/**
 * @file
 * Structured recoverable errors for sim-facing API boundaries.
 *
 * panic()/fatal() terminate the process, which is right for internal
 * invariants but wrong for boundaries where the caller can recover —
 * a serving loop validating an untrusted graph, a fault harness
 * checking a sampled trace, a watchdog rejecting degenerate rates.
 * Those boundaries return a sim::Error instead: a machine-checkable
 * code plus a human-readable context string. The aborting entry
 * points (TaskGraph::validate, CompiledSchedule::replay) are kept and
 * now panic *through* the checked variants, so the two can never
 * disagree about what is valid.
 */

#ifndef CIFLOW_SIM_ERROR_H
#define CIFLOW_SIM_ERROR_H

#include <cstdint>
#include <string>

namespace ciflow::sim
{

/** Machine-checkable classification of a recoverable error. */
enum class ErrorCode : std::uint8_t {
    Ok = 0,
    /** TaskGraph structural invariant violated (validateChecked). */
    InvalidGraph,
    /** ReplayRates cover a different resource count than the schedule. */
    RateMismatch,
    /** A service rate is NaN, infinite, or non-positive. */
    NonFiniteRate,
    /** An op evaluated to a NaN/infinite duration or finish time. */
    NonFiniteDuration,
    /** A fault trace or rate-epoch table is malformed. */
    BadFaultTrace,
    /** A fault scenario killed every chip; the run cannot complete. */
    NoSurvivors,
    /** A serving spec or arrival stream is malformed. */
    BadServeSpec,
    /** An interconnect's latency or link bandwidth is out of range. */
    BadInterconnect,
};

/** Short stable name of an error code ("rate-mismatch", ...). */
inline const char *
errorCodeName(ErrorCode c)
{
    switch (c) {
    case ErrorCode::Ok:
        return "ok";
    case ErrorCode::InvalidGraph:
        return "invalid-graph";
    case ErrorCode::RateMismatch:
        return "rate-mismatch";
    case ErrorCode::NonFiniteRate:
        return "non-finite-rate";
    case ErrorCode::NonFiniteDuration:
        return "non-finite-duration";
    case ErrorCode::BadFaultTrace:
        return "bad-fault-trace";
    case ErrorCode::NoSurvivors:
        return "no-survivors";
    case ErrorCode::BadServeSpec:
        return "bad-serve-spec";
    case ErrorCode::BadInterconnect:
        return "bad-interconnect";
    }
    return "?";
}

/**
 * A recoverable error: code plus context. Default-constructed means
 * success; `if (err)` reads as "did it fail". Checked variants return
 * the *first* violation found, with enough context (ids, names,
 * counts) to act on without a debugger.
 */
struct Error
{
    ErrorCode code = ErrorCode::Ok;
    /** Human-readable detail of the first violation found. */
    std::string context;

    /** True when this is an error (code != Ok). */
    explicit operator bool() const { return code != ErrorCode::Ok; }
    bool ok() const { return code == ErrorCode::Ok; }

    /** "code-name: context" for logs and panics. */
    std::string
    message() const
    {
        return std::string(errorCodeName(code)) + ": " + context;
    }
};

} // namespace ciflow::sim

#endif // CIFLOW_SIM_ERROR_H
