/**
 * @file
 * Allocation guard for set-up: building and compiling the task graphs
 * of a design-study set-up (every paper benchmark x dataflow x evk
 * residency x 16/32/64/128 MiB capacity that fits, perfbench's `sweep`
 * set-up) may take at most 3 heap allocations per task in graph build
 * and 1 in compile. The count comes from a replaced global operator
 * new, which is why this test is an executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "hksflow/dataflow.h"
#include "rpu/engine.h"

namespace
{

std::atomic<std::size_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line: inlined into a new-expression's cleanup, free() on a
// pointer from operator new reads to GCC as a mismatched pair.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace ciflow;

TEST(SetupAllocs, BuildAndCompileStayUnderTheirPerTaskBudgets)
{
    std::size_t graphs = 0, tasks = 0, build = 0, compile = 0;
    for (const HksParams &par : paperBenchmarks()) {
        for (Dataflow d : allDataflows()) {
            for (bool onChip : {false, true}) {
                for (std::uint64_t mib : {16, 32, 64, 128}) {
                    MemoryConfig mem;
                    mem.dataCapacityBytes = mib << 20;
                    mem.evkOnChip = onChip;
                    if (mem.dataCapacityBytes < minDataCapacity(par, d))
                        continue;
                    RpuConfig cfg;
                    cfg.dataMemBytes = mem.dataCapacityBytes;
                    cfg.evkOnChip = onChip;
                    const RpuEngine eng(cfg);

                    std::size_t before = g_allocs.load();
                    const TaskGraph g = buildHksGraph(par, d, mem);
                    build += g_allocs.load() - before;

                    before = g_allocs.load();
                    const sim::CompiledSchedule cs = eng.compile(g);
                    compile += g_allocs.load() - before;

                    ++graphs;
                    tasks += g.size();
                }
            }
        }
    }
    const double perTask = static_cast<double>(tasks);
    std::printf("%zu graphs, %zu tasks: build %.2f, compile %.2f "
                "allocations per task\n",
                graphs, tasks, build / perTask, compile / perTask);
    ASSERT_GT(tasks, 0u);
    EXPECT_LE(build, 3 * tasks);
    EXPECT_LE(compile, tasks);
}
