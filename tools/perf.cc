/**
 * @file
 * Implementation of the `axmemo perf` subcommand (tools/perf.hh).
 *
 * Each microbenchmark times one data path on a fixed input stream, and
 * where the repo keeps a reference implementation alongside it (the CRC
 * byte table and bit-serial LFSR, the LUT/cache way scan) times that
 * too, inside the same binary, so the ratios travel with the repo.
 * The fig7 row times the end-to-end sweep once, and the dse_scaling
 * row runs the dse smoke grid at 1, 2 and 4 sweep threads.
 */

#include "tools/perf.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "common/runtime_options.hh"
#include "common/thread_pool.hh"
#include "core/artifact.hh"
#include "core/json_export.hh"
#include "core/json_value.hh"
#include "core/output_paths.hh"
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
        os << "\"" << JsonWriter::escape(v) << "\"";
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
 * One in-process sweep of the registered artifact @p name at @p scale:
 * enqueue, execute on a SweepEngine with @p workers threads (0 = the
 * driver's --jobs), reduce. The report text is discarded; the timing
 * includes it.
 */
JsonObj
benchSweep(const char *name, double scale, unsigned workers = 0,
           double *minstrOut = nullptr)
{
    // benchScale() reads the driver's frozen RuntimeOptions, so the
    // scale is set there.
    RuntimeOptions updated = RuntimeOptions::global();
    updated.scale = scale;
    updated.scaleSet = true;
    updated.full = false;
    RuntimeOptions::setGlobal(updated);

    const std::unique_ptr<Artifact> artifact =
        ArtifactRegistry::instance().make(name);
    JsonObj o;
    o.field("scale", scale);
    if (!artifact) {
        o.field("error", std::string(name) + " not registered");
        return o;
    }

    SweepEngine engine(workers ? workers : ThreadPool::jobsFromEnv());
    const auto start = Clock::now();
    artifact->enqueue(engine);
    const std::vector<SweepOutcome> outcomes = engine.execute();
    artifact->reduce(outcomes);
    const double wall = secondsSince(start);

    const SweepMetrics &m = engine.metrics();
    o.field("workers", static_cast<std::uint64_t>(m.workers));
    o.field("jobs", static_cast<std::uint64_t>(m.jobs));
    o.field("wall_seconds", wall);
    o.field("simulated_macro_insts", m.simulatedMacroInsts);
    o.field("simulated_minstr_per_second", m.simulatedMinstrPerSecond);
    if (minstrOut)
        *minstrOut = m.simulatedMinstrPerSecond;
    return o;
}

/**
 * Thread scaling of the sweep engine: the dse smoke grid run in
 * process at 1, 2 and 4 workers (`run dse --jobs <n>`, the one local
 * parallelism mechanism), reported as simulated Minstr/s per width.
 */
JsonObj
benchDseScaling(double scale)
{
    JsonObj o;
    o.field("scale", scale);
    // Scaling is bounded by the host: on a 1-core container every
    // width serializes and the ratios legitimately sit at ~1.0x.
    // Record the bound so the entry is interpretable wherever it was
    // generated.
    o.field("host_cpus",
            static_cast<std::uint64_t>(
                std::thread::hardware_concurrency()));
    double baseMinstr = 0.0;
    for (const unsigned jobs : {1u, 2u, 4u}) {
        double minstr = 0.0;
        benchSweep("dse", scale, jobs, &minstr);
        o.field("jobs_" + std::to_string(jobs) + "_minstr_per_second",
                minstr);
        if (jobs == 1)
            baseMinstr = minstr;
        else if (baseMinstr > 0.0)
            o.field("scaling_" + std::to_string(jobs) + "x",
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

/** The host fingerprint every entry carries: CPU model, CPU count,
 * compiler and build type. Entries are compared only against earlier
 * entries with an identical fingerprint and the same mode. */
JsonObj
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t start =
            line.find_first_not_of(" \t", line.find(':') + 1);
        if (start != std::string::npos)
            cpu = line.substr(start);
        break;
    }
    JsonObj o;
    o.field("cpu_model", cpu);
    o.field("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
    o.field("compiler", AXMEMO_COMPILER);
    o.field("build_type", AXMEMO_BUILD_TYPE);
    return o;
}

/** True when @p a and @p b ran in the same mode on the same host. */
bool
comparable(const JValue &a, const JValue &b)
{
    const JValue *quickA = a.find("quick");
    const JValue *quickB = b.find("quick");
    const JValue *hostA = a.find("host");
    const JValue *hostB = b.find("host");
    const auto sameField = [](const auto &x, const auto &y) {
        return x.first == y.first && x.second.token == y.second.token;
    };
    return quickA && quickB && quickA->boolean == quickB->boolean &&
           hostA && hostB &&
           hostA->members.size() == hostB->members.size() &&
           std::equal(hostA->members.begin(), hostA->members.end(),
                      hostB->members.begin(), sameField);
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
 * Print a per-section delta table of @p currentJson against the newest
 * comparable() entry already recorded in @p path (same host
 * fingerprint, same quick/full mode), before the new entry is appended.
 * One canonical metric per section; the ratio is normalized so > 1.00x
 * is always an improvement (inverted for ns-per-op metrics), and any
 * regression beyond 5% is flagged. Silent when there is no history yet;
 * rows whose metric is missing on either side are skipped, so old
 * entries predating a section never break the diff.
 *
 * @return the number of canonical metrics that regressed beyond 5%
 * (0 when there is no comparable entry to diff against), so `perf
 * --check` can turn the table into a gate.
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
    const Expected<JValue> current = parseJsonValue(currentJson);
    if (!current.ok())
        return 0;
    const std::vector<JValue> &entries = history.value().elements;
    const auto match = std::find_if(
        entries.rbegin(), entries.rend(), [&](const JValue &entry) {
            return comparable(entry, current.value());
        });
    if (match == entries.rend()) {
        std::printf("\nno earlier entry in %s from this host in this "
                    "mode; delta table skipped\n",
                    path.c_str());
        return 0;
    }
    const JValue &prev = *match;

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
        {"dse_scaling", "jobs_4_minstr_per_second", true},
    };

    const JValue *prevUtc = prev.find("utc");
    std::printf("\ndelta vs previous same-host entry (%s):\n",
                prevUtc && prevUtc->kind == JValue::Kind::String
                    ? prevUtc->token.c_str()
                    : "unknown time");
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
    entry.field("host", hostFingerprint());

    // Every section runs under a phase timer; the aggregated snapshot
    // (including the sweep.* phases benchSweep's execute() records, per
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
    section("fig7", [&] { return benchSweep("fig7", fig7Scale); });

    // Thread scaling over the dse smoke grid. Full mode floors the
    // scale at 0.05: below that the smoke jobs are so short that
    // per-job setup drowns whatever scaling exists.
    const double dseScale =
        options.quick ? fig7Scale : std::max(fig7Scale, 0.05);
    section("dse_scaling", [&] { return benchDseScaling(dseScale); });

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
