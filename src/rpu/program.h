/**
 * @file
 * B1K instruction-stream generation and a frontend/pipeline model.
 *
 * CodeGen (isa.h) estimates instruction *counts*; this module emits the
 * actual instruction streams for the HKS kernels and replays them
 * through a model of the RPU frontend: one instruction decoded per
 * cycle, dispatched to the compute/shuffle/memory queues, each queue
 * draining in order at VL/lanes cycles per vector instruction (one
 * cycle per scalar op). This makes the paper's vector-length argument
 * quantitative: with short vectors the single-issue frontend cannot
 * keep 128 HPLEs fed, which is why CiFlow widened B512 to B1K
 * ("Longer vectors make hardware efficient, e.g., taking pressure off
 * the frontend and improving compute utilization", §V-A).
 */

#ifndef CIFLOW_RPU_PROGRAM_H
#define CIFLOW_RPU_PROGRAM_H

#include <cstdint>
#include <vector>

#include "rpu/isa.h"

namespace ciflow
{

/** One decoded B1K instruction (register fields compressed). */
struct B1kInstr
{
    B1kOp op;
    std::uint16_t vd = 0;  ///< destination vector register
    std::uint16_t vs1 = 0; ///< first source
    std::uint16_t vs2 = 0; ///< second source
    std::uint32_t imm = 0; ///< immediate / address offset
};

/** An ordered B1K instruction stream. */
class Program
{
  public:
    void
    push(B1kOp op, std::uint16_t vd = 0, std::uint16_t vs1 = 0,
         std::uint16_t vs2 = 0, std::uint32_t imm = 0)
    {
        code.push_back({op, vd, vs1, vs2, imm});
    }

    const std::vector<B1kInstr> &instrs() const { return code; }
    std::size_t size() const { return code.size(); }

    /** Instruction counts per issue queue (scalar ops -> Compute). */
    InstrCounts queueCounts() const;

    /** Count of one specific opcode. */
    std::size_t countOp(B1kOp op) const;

    /** Append another program. */
    void append(const Program &o);

  private:
    std::vector<B1kInstr> code;
};

/** Emits B1K instruction streams for the HKS tower kernels. */
class KernelGen
{
  public:
    /**
     * @param vectorLen  vector length (1024 for B1K, 512 for B512)
     * @param n          ring degree of the towers
     */
    KernelGen(std::size_t vectorLen, std::size_t n);

    /** Negacyclic NTT (or INTT) of one tower. */
    Program nttTower(bool inverse) const;

    /** Pointwise modular multiply of one tower pair. */
    Program pointwiseMul() const;

    /** Pointwise modular multiply-accumulate (key multiply half). */
    Program pointwiseMac() const;

    /** One BConv output column from `a` source towers. */
    Program bconvColumn(std::size_t a) const;

    /** Load or store one tower between DRAM and data memory. */
    Program towerTransfer(bool store) const;

    std::size_t vectorLen() const { return vl; }

  private:
    /** Vector chunks covering `elems` elements. */
    std::size_t chunks(std::size_t elems) const
    {
        return (elems + vl - 1) / vl;
    }

    std::size_t vl;
    std::size_t n;
};

/** Cycle accounting of one Program replayed through the frontend. */
struct PipelineStats
{
    std::uint64_t cycles = 0;        ///< end-to-end cycles
    std::uint64_t frontendStall = 0; ///< cycles a full queue stalled decode
    std::uint64_t computeBusy = 0;   ///< lane-pipe busy cycles
    std::uint64_t shuffleBusy = 0;   ///< crossbar busy cycles
    std::uint64_t memoryBusy = 0;    ///< data-memory port busy cycles

    double
    computeUtilization() const
    {
        return cycles ? static_cast<double>(computeBusy) / cycles : 0.0;
    }
};

/**
 * Replay a program through the decoupled frontend model.
 *
 * @param prog   instruction stream
 * @param vl     vector length the stream was generated for
 * @param lanes  number of HPLEs
 */
PipelineStats replayProgram(const Program &prog, std::size_t vl,
                            std::size_t lanes);

} // namespace ciflow

#endif // CIFLOW_RPU_PROGRAM_H
