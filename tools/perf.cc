/**
 * @file
 * Implementation of the `axmemo perf` subcommand (tools/perf.hh).
 *
 * Each microbenchmark times one data path on a fixed input stream, and
 * where the repo keeps a reference implementation alongside it (the CRC
 * byte table and bit-serial LFSR, the LUT/cache way scan) times that
 * too, inside the same binary, so the ratios travel with the repo.
 * The fig7 rows then re-run the sweep with each host-side lever
 * toggled to attribute the end-to-end rate.
 */

#include "tools/perf.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "common/runtime_options.hh"
#include "core/artifact.hh"
#include "core/json_value.hh"
#include "core/output_paths.hh"
#include "core/shard_queue.hh"
#include "crc/crc.hh"
#include "memo/lut.hh"
#include "memsys/cache.hh"
#include "memsys/sim_memory.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/replay.hh"
#include "serve/server.hh"
#include "workloads/request_trace.hh"

#include <sys/socket.h>

namespace axmemo {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Best-of-3 wall time of @p fn (one warmup call first). The best run is
 * reported: microbenchmarks are noise-bounded from below, so the
 * minimum is the most reproducible estimate of the true cost.
 */
template <typename Fn>
double
bestSeconds(Fn &&fn)
{
    fn(); // warmup
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        fn();
        best = std::min(best, secondsSince(start));
    }
    return best;
}

/** Defeat dead-code elimination without fencing the loop. */
volatile std::uint64_t perfSink;

/** Deterministic address stream with simulator-like locality: mostly
 * sequential 8-byte strides with occasional jumps, within @p span. */
std::vector<Addr>
addressStream(std::size_t count, std::uint64_t span)
{
    Rng rng(1234);
    std::vector<Addr> addrs(count);
    const Addr base = 0x10000;
    Addr a = base;
    for (std::size_t i = 0; i < count; ++i) {
        if (rng.below(16) == 0)
            a = base + (rng.below(span) & ~7ull);
        addrs[i] = a;
        a += 8;
        if (a + 8 > base + span)
            a = base;
    }
    return addrs;
}

/** Tiny incremental JSON object builder (move-only via ostringstream). */
struct JsonObj
{
    std::ostringstream os;
    bool first = true;

    void
    key(const std::string &k)
    {
        os << (first ? "{" : ",") << "\"" << k << "\":";
        first = false;
    }
    void
    field(const std::string &k, double v)
    {
        key(k);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", v);
        os << buf;
    }
    void
    field(const std::string &k, std::uint64_t v)
    {
        key(k);
        os << v;
    }
    void
    field(const std::string &k, const std::string &v)
    {
        key(k);
        os << "\"" << v << "\"";
    }
    /** Booleans serialize as JSON true/false, not "true"/"false".
     * The const char* overload exists so string literals keep landing
     * here instead of silently converting to bool. */
    void
    field(const std::string &k, bool v)
    {
        key(k);
        os << (v ? "true" : "false");
    }
    void
    field(const std::string &k, const char *v)
    {
        field(k, std::string(v));
    }
    void
    field(const std::string &k, const JsonObj &nested)
    {
        key(k);
        os << nested.str();
    }
    void
    rawField(const std::string &k, const std::string &json)
    {
        key(k);
        os << json;
    }
    std::string str() const { return os.str() + "}"; }
};

// --------------------------------------------------------------- benches

JsonObj
benchSimMemory(std::size_t iters)
{
    constexpr std::uint64_t span = 4ull << 20; // 4 MB working set
    const std::vector<Addr> addrs = addressStream(iters, span);

    const auto mixedOps = [&](auto &mem) {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            const Addr a = addrs[i];
            if ((i & 3) == 3)
                mem.write(a, acc + i, 8);
            else
                acc += mem.read(a, (i & 1) ? 8 : 4);
        }
        perfSink = acc;
    };

    SimMemory fast;
    SimMemory noTlb;
    noTlb.setTranslationCacheEnabled(false);
    // Touch the whole span once so the steady state has no page faults.
    for (Addr a = 0x10000; a < 0x10000 + span; a += SimMemory::pageSize) {
        fast.write(a, 1, 1);
        noTlb.write(a, 1, 1);
    }

    const double fastSec = bestSeconds([&] { mixedOps(fast); });
    const double noTlbSec = bestSeconds([&] { mixedOps(noTlb); });

    const double perOp = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("ops", static_cast<std::uint64_t>(iters));
    o.field("ns_per_op", fastSec * perOp);
    o.field("no_tlb_ns_per_op", noTlbSec * perOp);
    return o;
}

JsonObj
benchClone(std::size_t iters)
{
    constexpr std::uint64_t bytes = 8ull << 20; // 8 MB prepared dataset
    SimMemory source;
    Rng rng(99);
    for (Addr a = 0x10000; a < 0x10000 + bytes; a += 8)
        source.write(a, rng.next(), 8);

    // Each clone dirties one page — the sweep-engine pattern: most of a
    // prepared dataset is read-only input the cloned run never touches.
    const double cowSec = bestSeconds([&] {
        for (std::size_t i = 0; i < iters; ++i) {
            SimMemory copy = source.clone();
            copy.write(0x10000 + (i % 8) * SimMemory::pageSize, i, 8);
        }
    });

    const double perClone = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("dataset_bytes", static_cast<std::uint64_t>(bytes));
    o.field("cow_clone_ns", cowSec * perClone);
    return o;
}

JsonObj
benchCrc(std::size_t bufBytes)
{
    const CrcEngine engine(CrcSpec::crc32());
    Rng rng(7);
    std::vector<std::uint8_t> buf(bufBytes);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));

    const double sliceSec = bestSeconds([&] {
        perfSink = engine.update(engine.initial(), buf.data(), buf.size());
    });
    const double tableSec = bestSeconds([&] {
        std::uint64_t state = engine.initial();
        for (const std::uint8_t b : buf)
            state = engine.updateByte(state, b);
        perfSink = state;
    });
    const double serialSec = bestSeconds([&] {
        std::uint64_t state = engine.initial();
        for (const std::uint8_t b : buf)
            state = engine.updateByteSerial(state, b);
        perfSink = state;
    });
    // The simulator's actual entry point: word-at-a-time ld_crc feeds.
    const double wordSec = bestSeconds([&] {
        std::uint64_t state = engine.initial();
        for (std::size_t i = 0; i + 8 <= buf.size(); i += 8) {
            std::uint64_t w;
            std::memcpy(&w, buf.data() + i, 8);
            state = engine.updateWord(state, w, 8);
        }
        perfSink = state;
    });

    const double perByte = 1e9 / static_cast<double>(bufBytes);
    JsonObj o;
    o.field("bytes", static_cast<std::uint64_t>(bufBytes));
    o.field("slice8_ns_per_byte", sliceSec * perByte);
    o.field("word_feed_ns_per_byte", wordSec * perByte);
    o.field("byte_table_ns_per_byte", tableSec * perByte);
    o.field("bit_serial_ns_per_byte", serialSec * perByte);
    o.field("speedup_vs_byte_table", tableSec / sliceSec);
    o.field("speedup_vs_bit_serial", serialSec / sliceSec);
    return o;
}

JsonObj
benchLut(std::size_t iters)
{
    const LutConfig config{"perf", 8 * 1024, 4};
    LookupTable mru(config);
    LookupTable scan(config);
    scan.setMruHintEnabled(false);

    // Fill with a key population, then replay a bursty hit stream — the
    // steady state of a memoizable region with high input reuse.
    Rng rng(5);
    std::vector<std::uint64_t> hot(256);
    for (auto &h : hot)
        h = rng.next();
    for (const std::uint64_t h : hot) {
        mru.insert(0, h, h & 0xffffffff);
        scan.insert(0, h, h & 0xffffffff);
    }

    const auto lookups = [&](LookupTable &lut) {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < iters; ++i) {
            // Short bursts on one key model consecutive invocations
            // hashing to the same entry.
            const std::uint64_t h = hot[(i >> 2) & 255];
            acc += lut.lookup(0, h).value_or(0);
        }
        perfSink = acc;
    };

    const double mruSec = bestSeconds([&] { lookups(mru); });
    const double scanSec = bestSeconds([&] { lookups(scan); });

    const double perOp = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("lookups", static_cast<std::uint64_t>(iters));
    o.field("mru_ns_per_lookup", mruSec * perOp);
    o.field("scan_ns_per_lookup", scanSec * perOp);
    o.field("speedup", scanSec / mruSec);
    return o;
}

JsonObj
benchCache(std::size_t iters)
{
    // Two geometries bracket the Cache::kMruScanMinAssoc gate. At 32
    // ways the hint probe is live and must beat the (long) way scan; at
    // 8 ways the probe auto-disables, so hinted and scan-only caches
    // run the same code and the ratio documents parity, guarding
    // against the hint ever re-engaging where the scan wins.
    const std::vector<Addr> addrs = addressStream(iters, 16ull << 10);
    const auto accesses = [&](Cache &cache) {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i)
            hits += cache.access(addrs[i], (i & 7) == 7).hit ? 1 : 0;
        perfSink = hits;
    };
    // Interleave the hinted and scan-only runs rep by rep so frequency
    // or thermal drift hits both sides equally — the ratio is asserted
    // in CI, so it has to be stable, not just the absolute numbers.
    const auto measurePair = [&](unsigned assoc, double &mruSec,
                                 double &scanSec) {
        const CacheConfig config{"perf", 32 * 1024, assoc, 64, 1};
        Cache mru(config);
        Cache scan(config);
        scan.setMruHintEnabled(false);
        accesses(mru);
        accesses(scan);
        mruSec = 1e300;
        scanSec = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            auto start = Clock::now();
            accesses(mru);
            mruSec = std::min(mruSec, secondsSince(start));
            start = Clock::now();
            accesses(scan);
            scanSec = std::min(scanSec, secondsSince(start));
        }
    };

    double mruSec = 0, scanSec = 0, lowMruSec = 0, lowScanSec = 0;
    measurePair(32, mruSec, scanSec);
    measurePair(8, lowMruSec, lowScanSec);

    const double perOp = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("accesses", static_cast<std::uint64_t>(iters));
    o.field("assoc", static_cast<std::uint64_t>(32));
    o.field("mru_ns_per_access", mruSec * perOp);
    o.field("scan_ns_per_access", scanSec * perOp);
    o.field("speedup", scanSec / mruSec);
    o.field("low_assoc", static_cast<std::uint64_t>(8));
    o.field("low_assoc_mru_ns_per_access", lowMruSec * perOp);
    o.field("low_assoc_scan_ns_per_access", lowScanSec * perOp);
    o.field("low_assoc_speedup", lowScanSec / lowMruSec);
    return o;
}

JsonObj
benchTrace(std::size_t iters)
{
    // Disabled-guard cost: the same arithmetic loop with and without a
    // guarded trace point. With no flags enabled the trace point is one
    // relaxed load + predictable branch (or nothing at all under
    // AXMEMO_NO_TRACE) — this is the number backing the "zero overhead
    // when disabled" claim in DESIGN.md §8.
    trace::clearAllFlags();
    const auto work = [&](bool traced) {
        std::uint64_t a = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = 0; i < iters; ++i) {
            if (traced)
                AXM_TRACE(Exec, "perf", "never emitted ", i);
            a = (a ^ i) * 0x100000001b3ull;
        }
        perfSink = a;
    };
    const double bareSec = bestSeconds([&] { work(false); });
    const double guardedSec = bestSeconds([&] { work(true); });

    // Enabled line cost, emitted to a null sink so the number measures
    // formatting + the mutex-guarded write, not terminal throughput.
    double lineSec = 0.0;
    if (trace::openTraceFile("/dev/null")) {
        trace::setFlag(trace::Flag::Exec, true);
        const std::size_t lines = std::max<std::size_t>(iters / 64, 1);
        lineSec = bestSeconds([&] {
            for (std::size_t i = 0; i < lines; ++i)
                AXM_TRACE(Exec, "perf", "line ", i, " of ", lines);
        }) / static_cast<double>(lines);
        trace::clearAllFlags();
        trace::closeTraceFile();
    }

    const double perOp = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("ops", static_cast<std::uint64_t>(iters));
    o.field("bare_ns_per_op", bareSec * perOp);
    o.field("disabled_guard_ns_per_op", guardedSec * perOp);
    o.field("disabled_overhead_pct",
            bareSec > 0.0 ? (guardedSec - bareSec) / bareSec * 100.0
                          : 0.0);
    o.field("enabled_line_ns", lineSec * 1e9);
    return o;
}

JsonObj
benchTelemetry(std::size_t iters)
{
    // Disabled-guard cost of a span scope: the same arithmetic loop
    // with and without an AXM_SPAN inside. With telemetry disabled the
    // scope is one relaxed load + predictable branch (or nothing under
    // AXMEMO_NO_TRACE) — the number backing the trace-guard budget for
    // the timeline instrumentation in DESIGN.md §13.
    telemetry::setEnabled(false);
    const auto work = [&](bool spanned) {
        std::uint64_t a = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = 0; i < iters; ++i) {
            if (spanned) {
                AXM_SPAN("perf", "never-recorded");
                a = (a ^ i) * 0x100000001b3ull;
            } else {
                a = (a ^ i) * 0x100000001b3ull;
            }
        }
        perfSink = a;
    };
    const double bareSec = bestSeconds([&] { work(false); });
    const double guardedSec = bestSeconds([&] { work(true); });

    // Enabled span cost: open/close + ring push, drained periodically
    // so the ring never saturates and the number measures the steady
    // state rather than the dropped-event fast path.
    double spanSec = 0.0;
#ifndef AXMEMO_NO_TRACE
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    const std::size_t spans = std::max<std::size_t>(iters / 64, 1);
    spanSec = bestSeconds([&] {
        for (std::size_t i = 0; i < spans; ++i) {
            AXM_SPAN("perf", "recorded");
            if ((i & 0xfff) == 0)
                telemetry::collect();
        }
    }) / static_cast<double>(spans);
    telemetry::setEnabled(false);
    telemetry::resetForTest();
#endif

    const double perOp = 1e9 / static_cast<double>(iters);
    JsonObj o;
    o.field("ops", static_cast<std::uint64_t>(iters));
    o.field("bare_ns_per_op", bareSec * perOp);
    o.field("disabled_guard_ns_per_op", guardedSec * perOp);
    o.field("disabled_overhead_pct",
            bareSec > 0.0 ? (guardedSec - bareSec) / bareSec * 100.0
                          : 0.0);
    o.field("enabled_span_ns", spanSec * 1e9);
    return o;
}

/**
 * Serve-loop throughput: an in-process MemoServer fed the two-tenant
 * Zipfian smoke trace over a socketpair by the replay client — the
 * closed-loop request rate `axmemo serve` sustains end to end (frame
 * codec, reader poll loop, bounded queue, TenantTable, reply path),
 * not a TenantTable microbench.
 */
JsonObj
benchServe(std::size_t requests)
{
    serve::ServerConfig config;
    config.table.policy = serve::PartitionPolicy::Partitioned;
    config.table.tenants.push_back({"tenant-a", 0});
    config.table.tenants.push_back({"tenant-b", 0});

    RequestTraceSpec spec = RequestTraceSpec::smoke(42);
    spec.requests = requests;
    const std::vector<TraceRequest> trace = generateRequestTrace(spec);

    JsonObj o;
    o.field("requests", static_cast<std::uint64_t>(requests));

    serve::MemoServer server(config);
    if (!server.start().ok()) {
        o.field("error", std::string("server start failed"));
        return o;
    }
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        o.field("error", std::string("socketpair failed"));
        return o;
    }
    server.attachClient(fds[1]);

    serve::ReplayConfig replayConfig;
    replayConfig.drainAfter = true;
    const Expected<serve::ReplayReport> got =
        serve::replayTrace(fds[0], spec, trace, replayConfig);
    ::close(fds[0]);
    server.serveUntilDrained(false);
    if (!got.ok()) {
        o.field("error", got.error().describe());
        return o;
    }
    const serve::ReplayReport &report = got.value();
    o.field("requests_per_second",
            report.elapsedSeconds > 0.0
                ? static_cast<double>(report.requests) /
                      report.elapsedSeconds
                : 0.0);
    o.field("p50_us", report.p50Us);
    o.field("p99_us", report.p99Us);
    o.field("sheds", report.sheds);
    return o;
}

/**
 * Host-side execution levers for one benchFig7 run. Every combination
 * produces bit-identical simulated results (DESIGN.md §10); only the
 * wall clock moves, which is exactly what the per-lever rows attribute.
 */
struct Fig7Levers
{
    const char *dispatch = "auto"; // auto | threaded | switch
    bool blockBatch = true;
};

JsonObj
benchFig7(double scale, const Fig7Levers &levers = {},
          double baselineMinstr = 0.0, double *minstrOut = nullptr)
{
    char scaleStr[32];
    std::snprintf(scaleStr, sizeof(scaleStr), "%g", scale);
    setenv("AXMEMO_SCALE", scaleStr, 1);
    unsetenv("AXMEMO_FULL");
    setenv("AXMEMO_DISPATCH", levers.dispatch, 1);
    setenv("AXMEMO_NO_BATCH", levers.blockBatch ? "0" : "1", 1);
    // The driver froze RuntimeOptions at startup; mirror the scale and
    // lever changes into the frozen copy so benchScale() consumers and
    // the simulator's knob reads see them.
    if (RuntimeOptions::globalFrozen()) {
        RuntimeOptions updated = RuntimeOptions::global();
        updated.scale = scale;
        updated.scaleSet = scale > 0.0;
        updated.full = false;
        updated.dispatch = levers.dispatch;
        updated.blockBatch = levers.blockBatch;
        RuntimeOptions::setGlobal(updated);
    }

    const std::unique_ptr<Artifact> artifact =
        ArtifactRegistry::instance().make("fig7");
    JsonObj o;
    o.field("scale", scale);
    if (!artifact) {
        o.field("error", std::string("fig7 not registered"));
        return o;
    }

    SweepEngine engine;
    const auto start = Clock::now();
    artifact->enqueue(engine);
    const std::vector<SweepOutcome> outcomes = engine.execute();
    artifact->reduce(outcomes); // report text discarded; timing includes it
    const double wall = secondsSince(start);

    const SweepMetrics &m = engine.metrics();
    o.field("workers", static_cast<std::uint64_t>(m.workers));
    o.field("jobs", static_cast<std::uint64_t>(m.jobs));
    o.field("wall_seconds", wall);
    o.field("simulated_macro_insts", m.simulatedMacroInsts);
    o.field("simulated_minstr_per_second", m.simulatedMinstrPerSecond);
    if (baselineMinstr > 0.0)
        o.field("speedup_vs_switch_nobatch",
                m.simulatedMinstrPerSecond / baselineMinstr);
    if (minstrOut)
        *minstrOut = m.simulatedMinstrPerSecond;
    return o;
}

/**
 * Multi-process shard-queue scaling: run the dse smoke grid to
 * completion with 1, 2 and 4 cooperating single-threaded workers
 * (`run dse --shard-dir ... --jobs 1`) and report the aggregate
 * simulated Minstr/s at each width. Workers are real child processes of
 * this binary (fork + exec of /proc/self/exe), so the number includes
 * every claim/heartbeat/journal cost of the shard protocol — this is
 * the end-to-end scaling figure for DESIGN.md §12, not a microbench.
 */
JsonObj
benchDseScaling(double scale, const std::string &outDir)
{
    JsonObj o;
    o.field("scale", scale);
    // Scaling is bounded by the host: on a 1-core container every
    // width serializes and the ratios legitimately sit at ~1.0x or
    // below (per-worker setup is duplicated). Record the bound so the
    // entry is interpretable wherever it was generated.
    o.field("host_cpus",
            static_cast<std::uint64_t>(
                std::thread::hardware_concurrency()));
    char scaleStr[32];
    std::snprintf(scaleStr, sizeof(scaleStr), "%g", scale);
    const std::string base = joinPath(
        resolveOutputDir(outDir),
        "dse_scaling." +
            std::to_string(static_cast<unsigned long>(::getpid())));

    double baseMinstr = 0.0;
    for (const int workers : {1, 2, 4}) {
        const std::string dir = base + ".w" + std::to_string(workers);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec); // fresh queue per width

        std::vector<pid_t> kids;
        const auto start = Clock::now();
        for (int k = 0; k < workers; ++k) {
            const std::string wid = "perf" + std::to_string(k);
            const pid_t pid = ::fork();
            if (pid < 0)
                break;
            if (pid == 0) {
                // Worker mode prints only a stderr summary; drop even
                // that so the perf report stays clean.
                const int null = ::open("/dev/null", O_WRONLY);
                if (null >= 0) {
                    ::dup2(null, STDOUT_FILENO);
                    if (!::getenv("AXMEMO_PERF_DEBUG"))
                        ::dup2(null, STDERR_FILENO);
                }
                ::execl("/proc/self/exe", "axmemo", "run", "dse",
                        "--shard-dir", dir.c_str(), "--worker-id",
                        wid.c_str(), "--jobs", "1", "--no-timing",
                        "--scale", scaleStr, "--out", dir.c_str(),
                        static_cast<char *>(nullptr));
                ::_exit(127);
            }
            kids.push_back(pid);
        }
        bool ok = static_cast<int>(kids.size()) == workers;
        std::string detail = ok ? "" : "fork failed";
        for (const pid_t pid : kids) {
            int status = 0;
            if (::waitpid(pid, &status, 0) != pid) {
                ok = false;
                detail = "waitpid failed";
            } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                ok = false;
                detail = WIFEXITED(status)
                             ? "worker exit " +
                                   std::to_string(WEXITSTATUS(status))
                             : "worker signal " +
                                   std::to_string(WTERMSIG(status));
            }
        }
        const double wall = secondsSince(start);

        // Aggregate simulated volume across the per-worker manifests.
        std::uint64_t macroInsts = 0;
        if (::getenv("AXMEMO_PERF_DEBUG"))
            std::fprintf(stderr, "[dse_scaling] w%d: %zu manifest(s) in %s\n",
                         workers, ShardQueue::shardManifests(dir).size(),
                         dir.c_str());
        for (const std::string &manifest :
             ShardQueue::shardManifests(dir)) {
            std::ifstream in(manifest);
            std::ostringstream ss;
            ss << in.rdbuf();
            const Expected<JValue> doc = parseJsonValue(ss.str());
            if (!doc.ok()) {
                ok = false;
                detail = "unreadable manifest " + manifest;
                continue;
            }
            const JValue *insts =
                doc.value().find("simulated_macro_insts");
            if (insts && insts->kind == JValue::Kind::Number)
                macroInsts += std::strtoull(insts->token.c_str(),
                                            nullptr, 10);
        }
        std::filesystem::remove_all(dir, ec);

        const std::string tag = "workers_" + std::to_string(workers);
        if (!ok || wall <= 0.0 || macroInsts == 0) {
            if (detail.empty())
                detail = "no simulated volume in shard manifests";
            o.field(tag + "_error", detail);
            continue;
        }
        const double minstr =
            static_cast<double>(macroInsts) / 1e6 / wall;
        o.field(tag + "_wall_seconds", wall);
        o.field(tag + "_minstr_per_second", minstr);
        if (workers == 1)
            baseMinstr = minstr;
        else if (baseMinstr > 0.0)
            o.field("scaling_" + std::to_string(workers) + "x",
                    minstr / baseMinstr);
    }
    return o;
}

/** Append @p entry to the JSON array in @p path (created if missing),
 * preserving previous entries: the file is a trajectory, not a
 * snapshot. */
bool
appendEntry(const std::string &path, const std::string &entry)
{
    std::string existing;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            existing = ss.str();
        }
    }
    const auto trim = [&] {
        while (!existing.empty() &&
               (existing.back() == '\n' || existing.back() == ' '))
            existing.pop_back();
    };
    trim();

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    if (!existing.empty() && existing.back() == ']') {
        existing.pop_back();
        trim();
        out << existing;
        if (existing.back() != '[')
            out << ",";
        out << "\n" << entry << "\n]\n";
    } else {
        out << "[\n" << entry << "\n]\n";
    }
    return out.good();
}

std::string
utcNow()
{
    char buf[32];
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/**
 * Print a per-section delta table of @p currentJson against the last
 * entry already recorded in @p path, before the new entry is appended.
 * One canonical metric per section; the ratio is normalized so > 1.00x
 * is always an improvement (inverted for ns-per-op metrics), and any
 * regression beyond 5% is flagged. Silent when there is no history yet;
 * rows whose metric is missing on either side are skipped, so old
 * entries predating a section never break the diff.
 *
 * @return the number of canonical metrics that regressed beyond 5%
 * (0 when there is no history to diff against), so `perf --check` can
 * turn the table into a gate.
 */
std::size_t
printDeltaVsPrevious(const std::string &path,
                     const std::string &currentJson)
{
    std::string existing;
    {
        std::ifstream in(path);
        if (!in)
            return 0; // first entry ever: nothing to diff against
        std::ostringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
    }
    const Expected<JValue> history = parseJsonValue(existing);
    if (!history.ok() ||
        history.value().kind != JValue::Kind::Array ||
        history.value().elements.empty()) {
        std::printf("\nprevious %s unreadable; delta table skipped\n",
                    path.c_str());
        return 0;
    }
    const JValue &prev = history.value().elements.back();
    const Expected<JValue> current = parseJsonValue(currentJson);
    if (!current.ok())
        return 0;

    struct Row
    {
        const char *section;
        const char *metric;
        bool higherIsBetter;
    };
    static constexpr Row rows[] = {
        {"simmemory", "ns_per_op", false},
        {"clone", "cow_clone_ns", false},
        {"crc32", "word_feed_ns_per_byte", false},
        {"lut", "mru_ns_per_lookup", false},
        {"cache", "mru_ns_per_access", false},
        {"cache", "speedup", true},
        {"trace", "disabled_guard_ns_per_op", false},
        {"telemetry", "disabled_guard_ns_per_op", false},
        {"serve", "requests_per_second", true},
        {"fig7", "simulated_minstr_per_second", true},
        {"dse_scaling", "workers_4_minstr_per_second", true},
    };

    const JValue *prevUtc = prev.find("utc");
    const JValue *prevQuick = prev.find("quick");
    const JValue *curQuick = current.value().find("quick");
    const bool modeMismatch =
        prevQuick && curQuick &&
        prevQuick->kind == JValue::Kind::Bool &&
        curQuick->kind == JValue::Kind::Bool &&
        prevQuick->boolean != curQuick->boolean;
    std::printf("\ndelta vs previous entry (%s)%s:\n",
                prevUtc && prevUtc->kind == JValue::Kind::String
                    ? prevUtc->token.c_str()
                    : "unknown time",
                modeMismatch
                    ? " [quick-mode mismatch: deltas not comparable]"
                    : "");
    std::printf("  %-12s %-28s %12s %12s %8s\n", "section", "metric",
                "previous", "current", "ratio");
    std::size_t regressions = 0;
    for (const Row &row : rows) {
        const JValue *prevSection = prev.find(row.section);
        const JValue *curSection = current.value().find(row.section);
        if (!prevSection || !curSection)
            continue;
        const JValue *prevField = prevSection->find(row.metric);
        const JValue *curField = curSection->find(row.metric);
        if (!prevField || !curField ||
            prevField->kind != JValue::Kind::Number ||
            curField->kind != JValue::Kind::Number)
            continue;
        const double prevValue =
            std::strtod(prevField->token.c_str(), nullptr);
        const double curValue =
            std::strtod(curField->token.c_str(), nullptr);
        if (prevValue <= 0.0 || curValue <= 0.0)
            continue;
        const double ratio = row.higherIsBetter
                                 ? curValue / prevValue
                                 : prevValue / curValue;
        const bool regressed = ratio < 0.95;
        regressions += regressed ? 1 : 0;
        std::printf("  %-12s %-28s %12.4f %12.4f %7.2fx%s\n",
                    row.section, row.metric, prevValue, curValue,
                    ratio, regressed ? "  ** REGRESSION" : "");
    }
    if (regressions)
        std::printf("  %zu metric(s) regressed beyond 5%%\n",
                    regressions);
    std::fflush(stdout);
    return regressions;
}

} // namespace

int
runPerf(const PerfOptions &options)
{
    const std::size_t scaleDown = options.quick ? 8 : 1;
    const double fig7Scale =
        options.scale > 0.0 ? options.scale : (options.quick ? 0.02 : 0.05);

    std::printf("axmemo perf%s: data-path microbenchmarks + fig7 "
                "end-to-end\n",
                options.quick ? " --quick" : "");
    std::fflush(stdout);

    JsonObj entry;
    entry.field("utc", utcNow());
    entry.field("quick", options.quick);

    // Every section runs under a phase timer; the aggregated snapshot
    // (including the sweep.* phases benchFig7's execute() records, per
    // worker) lands in the entry's "phases" object.
    obs::Profiler::instance().reset();
    const auto section = [&](const char *name, auto bench) {
        JsonObj o;
        {
            AXM_PROF(name);
            o = bench();
        }
        std::printf("  %-10s %s\n", name, o.str().c_str());
        std::fflush(stdout);
        entry.field(name, o);
    };

    section("simmemory", [&] { return benchSimMemory(4'000'000 / scaleDown); });
    section("clone", [&] { return benchClone(64 / scaleDown); });
    section("crc32", [&] { return benchCrc((1u << 20) / scaleDown); });
    section("lut", [&] { return benchLut(8'000'000 / scaleDown); });
    section("cache", [&] { return benchCache(4'000'000 / scaleDown); });
    section("trace", [&] { return benchTrace(8'000'000 / scaleDown); });
    section("telemetry",
            [&] { return benchTelemetry(8'000'000 / scaleDown); });
    section("serve", [&] { return benchServe(32'000 / scaleDown); });
    section("fig7", [&] { return benchFig7(fig7Scale); });

    // Per-lever fig7 rows: the same sweep re-run with each host-side
    // speed lever toggled, so the entry attributes the end-to-end gain
    // to dispatch and block batching individually. All three produce
    // bit-identical simulated results; the switch/no-batch row is the
    // speedup baseline. The default "fig7" row above stays the
    // scoreboard metric.
    double leverBase = 0.0;
    section("fig7_switch_nobatch", [&] {
        return benchFig7(fig7Scale, {"switch", false}, 0.0, &leverBase);
    });
    section("fig7_threaded_nobatch", [&] {
        return benchFig7(fig7Scale, {"threaded", false}, leverBase);
    });
    section("fig7_threaded_batch", [&] {
        return benchFig7(fig7Scale, {"threaded", true}, leverBase);
    });
    // Put the lever knobs back so anything after us sees the defaults.
    unsetenv("AXMEMO_DISPATCH");
    unsetenv("AXMEMO_NO_BATCH");
    if (RuntimeOptions::globalFrozen()) {
        RuntimeOptions restored = RuntimeOptions::global();
        restored.dispatch = "auto";
        restored.blockBatch = true;
        RuntimeOptions::setGlobal(restored);
    }

    // Multi-process scaling of the shard queue over the dse smoke grid.
    // Runs after the lever knobs are restored so the workers inherit
    // default dispatch/batch settings. Full mode floors the scale
    // at 0.05: below that the smoke jobs are so short that per-process
    // setup and claim traffic drown whatever scaling exists.
    const double dseScale =
        options.quick ? fig7Scale : std::max(fig7Scale, 0.05);
    section("dse_scaling",
            [&] { return benchDseScaling(dseScale, options.outDir); });

    entry.rawField("phases", obs::Profiler::instance().renderJson());

    const std::string path =
        joinPath(resolveOutputDir(options.outDir), "BENCH_perf.json");
    const std::size_t regressions =
        printDeltaVsPrevious(path, entry.str());
    if (!appendEntry(path, entry.str())) {
        std::fprintf(stderr, "axmemo perf: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("appended entry to %s\n", path.c_str());
    if (options.check && regressions) {
        std::fprintf(stderr,
                     "axmemo perf --check: %zu metric(s) regressed "
                     "beyond 5%% vs the previous entry\n",
                     regressions);
        return 1;
    }
    return 0;
}

} // namespace axmemo
