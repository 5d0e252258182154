/**
 * @file
 * gem5-style named debug flags and the process-wide trace/log sink.
 *
 * Tracing is a debugging instrument, not a reporting channel: every trace
 * point in the simulator is guarded by Trace-flag checks that cost one
 * predictable branch on a cached word when tracing is disabled, and the
 * whole subsystem compiles away under -DAXMEMO_NO_TRACE. Flags are
 * selected at runtime (`axmemo --debug-flags=Exec,Memo` or the
 * AXMEMO_DEBUG environment variable) and every emitted line carries a
 * gem5-like `cycle: component: message` prefix, so serial traces are
 * byte-reproducible and diffable across runs.
 *
 * The sink machinery below the flags is shared with common/log.cc: warn,
 * inform and trace lines all funnel through one mutex-guarded writer, so
 * concurrent sweep workers never interleave partial lines, and worker
 * threads (common/thread_pool) tag their lines with a `[w<n>]` prefix.
 */

#ifndef AXMEMO_OBS_TRACE_HH
#define AXMEMO_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

namespace axmemo {

namespace detail {

/** Fold a pack of streamable values into one string (shared with the
 * axm_warn/axm_panic macros in common/log.hh). */
template <typename... Args>
std::string
obsConcat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

namespace trace {

/** Every named debug flag (gem5's debug-flag registry, sized to us). */
enum class Flag : unsigned
{
    Exec,  ///< committed instruction stream (cycle, pc, disassembly)
    Memo,  ///< memoization unit: feed/lookup/update/invalidate
    Cache, ///< memory hierarchy: per-access path and latency
    Dram,  ///< DRAM row hits/misses
    Lut,   ///< lookup-table internals: insert/evict/invalidate
    Sweep, ///< sweep engine: phases, job lifecycle, cache reuse
    Prof,  ///< phase-timer begin/end events
    Host,  ///< host-side execution paths (dispatch mode, CRC kernel)
    NumFlags
};

constexpr unsigned numFlags = static_cast<unsigned>(Flag::NumFlags);

/** @return the canonical name of @p flag ("Exec", "Memo", ...). */
const char *flagName(Flag flag);

namespace detail {
/** Bitmask of enabled flags; relaxed loads keep the guard one test. */
extern std::atomic<std::uint32_t> flagWord;
/** Current simulated cycle of this thread (trace-line prefix).
 * constinit: accesses from other translation units address the slot
 * directly instead of through a TLS wrapper call. */
extern constinit thread_local std::uint64_t tlsCycle;
} // namespace detail

#ifdef AXMEMO_NO_TRACE

/** Compile-time kill switch: guards fold to constant false and every
 * trace point dead-code-eliminates, message formatting included. */
constexpr bool enabled(Flag) { return false; }
constexpr bool anyEnabled() { return false; }

#else

/** @return true iff @p flag is enabled. One relaxed load + bit test. */
inline bool
enabled(Flag flag)
{
    return detail::flagWord.load(std::memory_order_relaxed) &
           (1u << static_cast<unsigned>(flag));
}

/** @return true iff any flag is enabled (hoistable hot-loop guard). */
inline bool
anyEnabled()
{
    return detail::flagWord.load(std::memory_order_relaxed) != 0;
}

#endif // AXMEMO_NO_TRACE

/** Enable or disable one flag. */
void setFlag(Flag flag, bool on);

/** Disable every flag. */
void clearAllFlags();

/**
 * Parse a comma-separated flag list ("Exec,Memo", case-insensitive,
 * "All" enables everything) and enable the named flags on top of the
 * current set. @return false (with @p error filled) on unknown names.
 */
bool enableFlags(const std::string &spec, std::string *error = nullptr);

/** Enable flags named in $AXMEMO_DEBUG, if set (malformed specs warn
 * on stderr and are ignored). Safe to call more than once. */
void initFromEnv();

/**
 * Set the simulated cycle stamped on subsequent trace lines from this
 * thread. Components without their own clock (caches, LUTs, DRAM)
 * inherit the cycle their caller set.
 */
inline void
setCycle(std::uint64_t cycle)
{
#ifndef AXMEMO_NO_TRACE
    detail::tlsCycle = cycle;
#else
    (void)cycle;
#endif
}

/** The cycle most recently set on this thread. */
inline std::uint64_t
currentCycle()
{
#ifndef AXMEMO_NO_TRACE
    return detail::tlsCycle;
#else
    return 0;
#endif
}

/**
 * Emit one trace line: "<cycle>: [label] <component>: <message>\n" to
 * the trace sink, atomically with respect to every other sink writer.
 * Callers must have checked enabled() — use the AXM_TRACE macro.
 */
void print(Flag flag, const char *component, const std::string &message);

/**
 * Redirect trace output to @p path (append is false: truncate).
 * @return false if the file cannot be opened (sink unchanged).
 */
bool openTraceFile(const std::string &path);

/** Route trace output back to stderr, closing any open trace file. */
void closeTraceFile();

/** Stream-manipulator for hexadecimal values in trace messages. */
struct Hex
{
    std::uint64_t value;
};

inline std::ostream &
operator<<(std::ostream &os, Hex h)
{
    const auto flags = os.flags();
    os << "0x" << std::hex << h.value;
    os.flags(flags);
    return os;
}

inline Hex hex(std::uint64_t value) { return Hex{value}; }

} // namespace trace

namespace obs {

/**
 * Mutex-guarded line writer shared by warn/inform (common/log.cc) and
 * the trace sink: one fwrite per line, so concurrent writers cannot
 * produce torn output. Lines without a trailing newline get one.
 */
void logLine(FILE *to, const std::string &line);

/**
 * Write one already-formatted line through the sink without adding
 * this thread's label. Used to relay stderr lines captured from
 * --isolate child processes: the child formatted (and labelled) the
 * line itself; the parent only guarantees it lands untorn.
 */
void forwardLine(FILE *to, const std::string &line);

/** Tag this thread's log and trace lines with "[w<index>] " (sweep
 * workers call this once at startup). */
void setThreadLabel(unsigned workerIndex);

/** Remove this thread's label (main-thread output stays unprefixed). */
void clearThreadLabel();

/** The current thread's label ("" when unset). */
const char *threadLabel();

} // namespace obs

} // namespace axmemo

/**
 * Guarded trace point: evaluates its message arguments only when
 * @p flag is enabled; compiles to nothing under AXMEMO_NO_TRACE. The
 * emitted cycle is the thread's current cycle (trace::setCycle).
 *
 *   AXM_TRACE(Memo, "memo", "lookup lut", id, " hash=", trace::hex(h));
 */
#define AXM_TRACE(flag, component, ...)                                      \
    do {                                                                     \
        if (::axmemo::trace::enabled(::axmemo::trace::Flag::flag))           \
            ::axmemo::trace::print(                                          \
                ::axmemo::trace::Flag::flag, (component),                    \
                ::axmemo::detail::obsConcat(__VA_ARGS__));                   \
    } while (0)

#endif // AXMEMO_OBS_TRACE_HH
