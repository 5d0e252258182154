/**
 * @file
 * The measuring program of the repository benchmark (see README.md in
 * this directory). It runs one workload for a fixed host-time budget and
 * writes a JSON report: end-to-end metrics from untraced passes, or
 * per-layer metrics from a traced run, plus a digest of every job's
 * simulated statistics and outputs for the correctness gate.
 *
 * Untraced sweep passes go through SweepEngine exactly as the artifact
 * driver does. A traced pass cannot look inside SweepEngine::execute(),
 * so it replays the engine's three phases (prepare, baseline, subject)
 * from this file, calling each layer's public entry point itself with a
 * span around the call. Both paths must produce identical digests and
 * identical work counts; the report says so in its checks.
 *
 * Usage: perfbench_ledger --workload <name> --seed <n> --seconds <s>
 *            --trace <0|1> --workers <n> --work-dir <dir> --out <file>
 *            [--scale <f>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "common/run_control.hh"
#include "common/runtime_options.hh"
#include "common/thread_pool.hh"
#include "compiler/atm_transform.hh"
#include "compiler/dddg.hh"
#include "compiler/iact_transform.hh"
#include "compiler/region_finder.hh"
#include "compiler/software_transform.hh"
#include "compiler/speedup_estimator.hh"
#include "compiler/transform.hh"
#include "core/experiment.hh"
#include "core/run_journal.hh"
#include "core/sweep.hh"
#include "isa/disasm.hh"
#include "isa/dyn_trace.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace axmemo;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/** Resident-set high-water mark of the process so far, in MiB. */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Digests of simulated results (FNV-1a over every field's bits).

class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    byte(unsigned char c)
    {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    std::uint64_t h_ = 14695981039346656037ull;
};

void
digestRegions(Digest &d, const std::vector<RegionTransformInfo> &regions)
{
    d.u64(regions.size());
    for (const RegionTransformInfo &r : regions)
        for (const std::uint64_t v :
             {std::uint64_t(r.regionId), std::uint64_t(r.lut),
              std::uint64_t(r.numInputs), std::uint64_t(r.inputBytes),
              std::uint64_t(r.numOutputs), std::uint64_t(r.outputBytes),
              std::uint64_t(r.fusedLoads)})
            d.u64(v);
}

void
digestStats(Digest &d, const SimStats &s)
{
    for (const std::uint64_t v :
         {std::uint64_t(s.cycles), s.macroInsts, s.uops, s.memoUops,
          s.branches, s.mispredicts, s.loads, s.stores,
          std::uint64_t(s.memoQueueStalls), s.regionEntries})
        d.u64(v);
    const MemoUnitStats &m = s.memo;
    for (const std::uint64_t v :
         {m.lookups, m.l1Hits, m.l2Hits, m.misses, m.sampledHits,
          m.profiledHits, m.adaptiveRaises, m.adaptiveLowers, m.updates,
          m.invalidates, m.inputBytesHashed,
          std::uint64_t(m.monitorTripped)})
        d.u64(v);
    for (const std::uint64_t v :
         {s.dists.memoHitStreak.count(), s.dists.memoHitStreak.sum(),
          s.dists.memoLookupLatency.count(),
          s.dists.memoLookupLatency.sum(),
          s.dists.regionInvocations.count(),
          s.dists.regionInvocations.sum(),
          s.dists.l2SetOccupancy.count(), s.dists.l2SetOccupancy.sum()})
        d.u64(v);
    for (const auto &[name, value] : s.events.all()) {
        d.str(name);
        d.u64(value);
    }
}

void
digestRun(Digest &d, const RunResult &r)
{
    d.str(r.backend);
    digestStats(d, r.stats);
    for (const double v : {r.energy.corePj, r.energy.cachePj,
                           r.energy.dramPj, r.energy.memoPj,
                           r.energy.leakagePj})
        d.f64(v);
    d.u64(r.lookups);
    d.u64(r.hits);
    d.u64(r.outputs.size());
    for (const double v : r.outputs)
        d.f64(v);
    digestRegions(d, r.regions);
}

std::string
digestOutcome(const SweepOutcome &out, bool scored)
{
    Digest d;
    if (!out.ok()) {
        d.str(std::string("fault:") + jobStatusName(out.status));
        return d.hex();
    }
    digestRun(d, out.run);
    if (scored) {
        digestRun(d, out.cmp.baseline);
        for (const double v :
             {out.cmp.speedup, out.cmp.energyReduction,
              out.cmp.qualityLoss, out.cmp.normalizedUops,
              out.cmp.memoUopShare})
            d.f64(v);
    }
    return d.hex();
}

std::string
combineDigests(const std::vector<std::string> &digests)
{
    Digest d;
    for (const std::string &s : digests)
        d.str(s);
    return d.hex();
}

// ---------------------------------------------------------------------
// Spans recorded around calls into the src/ layers.

enum Layer : unsigned
{
    kPrepare,
    kBuild,
    kClone,
    kSessionBuild,
    kSimulate,
    kFold,
    kScore,
    kJournal,
    kTraceCapture,
    kDddg,
    kRegionSearch,
    kEstimate,
    kTransform,
    kLayerCount
};

struct Span
{
    Layer layer;
    Clock::time_point start;
    Clock::time_point end;
};

/** Span store of one traced pass: record() is thread-safe; the
 * readers run after every recording thread has finished. */
class SpanLog
{
  public:
    void
    record(Layer layer, Clock::time_point start, Clock::time_point end)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({layer, start, end});
    }

    /** Summed span seconds per layer (thread-seconds when parallel). */
    std::vector<double>
    layerSeconds() const
    {
        std::vector<double> out(kLayerCount, 0.0);
        for (const Span &s : spans_)
            out[s.layer] += secondsBetween(s.start, s.end);
        return out;
    }

    /** Seconds of [begin, end] covered by at least one span. */
    double
    coveredSeconds(Clock::time_point begin, Clock::time_point end) const
    {
        std::vector<std::pair<Clock::time_point, Clock::time_point>> v;
        v.reserve(spans_.size());
        for (const Span &s : spans_)
            v.emplace_back(std::max(s.start, begin), std::min(s.end, end));
        std::sort(v.begin(), v.end());
        double covered = 0.0;
        Clock::time_point reach = begin;
        for (const auto &[a, b] : v) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += secondsBetween(from, b);
                reach = b;
            }
        }
        return covered;
    }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Records one span for its lifetime; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, Layer layer) : log_(log), layer_(layer)
    {
        if (log_)
            start_ = Clock::now();
    }
    ~SpanScope()
    {
        if (log_)
            log_->record(layer_, start_, Clock::now());
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    Layer layer_;
    Clock::time_point start_{};
};

// ---------------------------------------------------------------------
// Simulated work counts, summed over every simulation a pass performs
// (each distinct baseline once, every non-baseline subject once) — the
// same accounting as SweepMetrics::simulatedMacroInsts.

struct Work
{
    std::uint64_t macroInsts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t l2LutHits = 0;
    std::uint64_t updates = 0;
    std::uint64_t crcBytes = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t traceEntries = 0;
    std::uint64_t uniqueSubgraphs = 0;

    void
    addStats(const SimStats &s)
    {
        macroInsts += s.macroInsts;
        cycles += s.cycles;
        l2LutHits += s.memo.l2Hits;
        updates += s.memo.updates;
        crcBytes += s.memo.inputBytesHashed;
        l1dHits += s.events.get("l1d_hit");
        l1dMisses += s.events.get("l1d_miss");
        l2Hits += s.events.get("l2_hit");
        l2Misses += s.events.get("l2_miss");
        dramAccesses +=
            s.events.get("dram_read") + s.events.get("dram_write");
    }
    void
    addRun(const RunResult &r)
    {
        addStats(r.stats);
        lookups += r.lookups;
        hits += r.hits;
    }
    bool operator==(const Work &) const = default;
};

// ---------------------------------------------------------------------
// Workload plans. They restate the fig7 and dse artifact grids instead
// of enqueueing the artifacts: the artifacts fix the dataset seed, and a
// later edit to an artifact must not silently change what the benchmark
// measures.

struct BenchJob
{
    std::string workload;
    std::string backend;
    ExperimentConfig config;
    bool scored = false;
    std::string label;
};

struct Plan
{
    std::string name;
    bool sweep = true;
    double scale = 0.0;
    std::uint64_t seed = 42;
    unsigned workers = 1;
    /** Sweep workloads: jobs in SweepEngine submission order. */
    std::vector<BenchJob> jobs;
    bool journal = false;
    /** compiler_flow: benchmarks and their sample-set parameters. */
    std::vector<std::string> benchmarks;
    WorkloadParams flowParams{};

    std::size_t
    jobCount() const
    {
        return sweep ? jobs.size() : benchmarks.size();
    }
};

/** The paper's headline defaults: L1 8 KB + L2 512 KB, Table 2 CRC32. */
ExperimentConfig
baseConfig(double scale, std::uint64_t seed)
{
    ExperimentConfig config;
    config.dataset.scale = scale;
    config.dataset.seed = seed;
    config.lut = {8 * 1024, 512 * 1024};
    return config;
}

/** The four LUT setups of Section 6.1 (Fig. 7's x-axis). */
const std::vector<LutSetup> &
standardLuts()
{
    static const std::vector<LutSetup> luts = {
        {4 * 1024, 0},
        {8 * 1024, 0},
        {8 * 1024, 256 * 1024},
        {8 * 1024, 512 * 1024},
    };
    return luts;
}

/** Fig. 7: baseline, four AxMemo LUT setups, software LUT. */
void
planPaperGrid(Plan &plan)
{
    for (const std::string &name : workloadNames()) {
        const ExperimentConfig base = baseConfig(plan.scale, plan.seed);
        plan.jobs.push_back({name, "baseline", base, false, "baseline"});
        for (const LutSetup &lut : standardLuts()) {
            ExperimentConfig config = base;
            config.lut = lut;
            plan.jobs.push_back({name, "axmemo", config, true,
                                 "axmemo " + lut.label()});
        }
        plan.jobs.push_back(
            {name, "software-lut", base, true, "software-lut"});
    }
}

/** The `dse` smoke grid: 14 scored configurations per benchmark. */
void
planDseSweep(Plan &plan)
{
    plan.journal = true;
    for (const std::string &name : workloadNames()) {
        for (const unsigned l1 : {4u, 8u}) {
            for (const unsigned l2 : {0u, 512u}) {
                for (const int trunc : {-1, 4}) {
                    ExperimentConfig config =
                        baseConfig(plan.scale, plan.seed);
                    config.lut = {l1 * 1024, l2 * 1024};
                    config.truncOverride = trunc;
                    config.crcBits = 16;
                    plan.jobs.push_back(
                        {name, "axmemo", config, true,
                         "axmemo L1 " + std::to_string(l1) + "KB L2 " +
                             std::to_string(l2) + "KB trunc " +
                             std::to_string(trunc) + " crc16"});
                }
            }
        }
        for (const unsigned log2 : {18u, 22u}) {
            ExperimentConfig config = baseConfig(plan.scale, plan.seed);
            config.atm.log2Entries = log2;
            plan.jobs.push_back({name, "atm", config, true,
                                 "atm 2^" + std::to_string(log2)});
        }
        for (const unsigned log2 : {4u, 6u}) {
            for (const double threshold : {0.0, 0.05}) {
                ExperimentConfig config =
                    baseConfig(plan.scale, plan.seed);
                config.iact.log2Entries = log2;
                config.iact.threshold = threshold;
                char label[48];
                std::snprintf(label, sizeof label,
                              "iact 2^%u threshold %.2f", log2,
                              threshold);
                plan.jobs.push_back(
                    {name, "iact", config, true, label});
            }
        }
    }
}

/** Fig. 5's compiler workflow on the sample input set. */
void
planCompilerFlow(Plan &plan)
{
    plan.sweep = false;
    plan.benchmarks = workloadNames();
    plan.flowParams.scale = plan.scale;
    plan.flowParams.seed = plan.seed;
    plan.flowParams.sampleSet = true;
}

/** Bounded trace window of the compiler flow (table1's window). */
constexpr std::size_t kTraceWindow = 1u << 18;

// ---------------------------------------------------------------------
// One pass of a workload.

struct PassResult
{
    double wall = 0.0;
    double cpu = 0.0;
    Work work;
    std::vector<std::string> digests;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    std::size_t preparedPrograms = 0;

    // Sweep-level measurements (untraced SweepEngine passes).
    SweepMetrics metrics{};
    double executeSeconds = 0.0;
    double reportSeconds = 0.0;
    double longestJobSeconds = 0.0;
    std::uint64_t journalBytes = 0;

    // Traced passes.
    std::vector<double> layerSeconds;
    double unattributedShare = 0.0;

    /** Speedup of each scored job, 0 for the others (paper_grid's
     * model-vs-paper line). */
    std::vector<double> speedups;
};

/** Sums the work of a finished sweep from its outcomes: each
 * workload's baseline once (jobs share one dataset per workload), plus
 * every non-baseline subject. */
Work
sweepWork(const Plan &plan, const std::vector<SweepOutcome> &outcomes)
{
    Work work;
    std::set<std::string> baselines;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome &out = outcomes[i];
        const BenchJob &job = plan.jobs[i];
        if (!out.ok())
            continue;
        if (job.backend == "baseline") {
            if (baselines.insert(job.workload).second)
                work.addRun(out.run);
            continue;
        }
        if (job.scored && baselines.insert(job.workload).second)
            work.addRun(out.cmp.baseline);
        work.addRun(out.run);
    }
    return work;
}

void
finishSweepPass(const Plan &plan, const std::vector<SweepOutcome> &outcomes,
                PassResult &pass)
{
    pass.attempted = outcomes.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome &out = outcomes[i];
        if (out.status == JobStatus::TimedOut)
            ++pass.timedOut;
        else if (!out.ok())
            ++pass.failed;
        pass.digests.push_back(digestOutcome(out, plan.jobs[i].scored));
        pass.speedups.push_back(out.ok() && plan.jobs[i].scored
                                    ? out.cmp.speedup
                                    : 0.0);
        pass.longestJobSeconds =
            std::max(pass.longestJobSeconds, out.seconds);
    }
    pass.work = sweepWork(plan, outcomes);
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** An untraced pass through SweepEngine, as the artifact driver runs
 * it: journal on when the plan asks, report written. */
PassResult
runEnginePass(const Plan &plan, const std::string &workDir)
{
    PassResult pass;
    const std::string journalPath =
        workDir + "/" + plan.name + "_sweep.ckpt";
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();

    RuntimeOptions options = RuntimeOptions::global();
    options.jobs = plan.workers;
    SweepEngine engine(options);
    for (const BenchJob &job : plan.jobs) {
        if (job.scored)
            engine.enqueueCompare(job.workload, job.backend, job.config);
        else
            engine.enqueueRun(job.workload, job.backend, job.config);
    }
    if (plan.journal)
        engine.setJournal(journalPath, /*resume=*/false);
    const auto e0 = Clock::now();
    const std::vector<SweepOutcome> outcomes = engine.execute();
    const auto e1 = Clock::now();
    if (plan.journal)
        pass.journalBytes = fileBytes(journalPath);
    engine.writeReport(plan.name, workDir);
    const auto r1 = Clock::now();
    if (plan.journal)
        engine.closeJournal(/*removeFile=*/true);

    pass.wall = secondsBetween(t0, Clock::now());
    pass.cpu = cpuSeconds() - cpu0;
    pass.executeSeconds = secondsBetween(e0, e1);
    pass.reportSeconds = secondsBetween(e1, r1);
    pass.metrics = engine.metrics();
    pass.preparedPrograms = pass.metrics.preparedPrograms;
    finishSweepPass(plan, outcomes, pass);
    return pass;
}

/** The prepared-program cache entry of the traced pass. */
struct Prepared
{
    std::string name;
    std::unique_ptr<Workload> workload;
    SimMemory mem;
    Program program;
    const ExperimentConfig *config = nullptr; ///< first job's config
    RunResult baseline;
    bool failed = false;
};

/** One prepared run, each layer call inside its own span. */
RunResult
simulateTraced(const Prepared &prep, const ExperimentConfig &config,
               const std::string &backend, SpanLog &log)
{
    SimMemory mem;
    {
        SpanScope span(&log, kClone);
        mem = prep.mem.clone();
    }
    RunControl control;
    control.cancelled = &interruptRequested;
    std::unique_ptr<RunSession> session;
    {
        SpanScope span(&log, kSessionBuild);
        session = std::make_unique<RunSession>(
            config, *prep.workload, backend, prep.program, mem,
            BackendSessionHooks{&control, nullptr});
    }
    for (bool more = true; more;) {
        const bool simulate =
            std::strcmp(session->phase(), "simulate") == 0;
        SpanScope span(&log, simulate ? kSimulate : kSessionBuild);
        more = session->step();
    }
    SpanScope span(&log, kFold);
    return session->finish();
}

/** A traced sweep pass: SweepEngine's phases replayed from here. */
PassResult
runTracedSweepPass(const Plan &plan, const std::string &workDir)
{
    PassResult pass;
    SpanLog log;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();

    std::vector<std::unique_ptr<Prepared>> prepared;
    std::map<std::string, Prepared *> byName;
    for (const BenchJob &job : plan.jobs) {
        if (byName.count(job.workload))
            continue;
        prepared.push_back(std::make_unique<Prepared>());
        prepared.back()->name = job.workload;
        prepared.back()->config = &job.config;
        byName[job.workload] = prepared.back().get();
    }
    std::vector<SweepOutcome> outcomes(plan.jobs.size());
    {
        ThreadPool pool(plan.workers);
        // Phase A: prepared programs.
        for (const auto &entry : prepared) {
            Prepared *p = entry.get();
            pool.submit([p, &log] {
                try {
                    {
                        SpanScope span(&log, kPrepare);
                        p->workload = makeWorkload(p->name);
                        p->workload->prepare(p->mem, p->config->dataset);
                    }
                    SpanScope span(&log, kBuild);
                    p->program = p->workload->build();
                } catch (const std::exception &) {
                    p->failed = true;
                }
            });
        }
        pool.wait();
        // Phase B: one baseline per prepared program.
        for (const auto &entry : prepared) {
            Prepared *p = entry.get();
            if (p->failed)
                continue;
            pool.submit([p, &log] {
                try {
                    p->baseline =
                        simulateTraced(*p, *p->config, "baseline", log);
                } catch (const std::exception &) {
                    p->failed = true;
                }
            });
        }
        pool.wait();
        // Phase C: subjects, scored against the shared baseline.
        SweepJournal journal;
        const bool journalOpen =
            plan.journal &&
            journal
                .open(workDir + "/" + plan.name + "_traced.ckpt",
                      /*fresh=*/true)
                .ok();
        std::mutex journalMutex;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            pool.submit([&, i] {
                const BenchJob &job = plan.jobs[i];
                const Prepared &p = *byName.at(job.workload);
                SweepOutcome &out = outcomes[i];
                out.scored = job.scored;
                out.attempts = 1;
                if (p.failed) {
                    out.status = JobStatus::Failed;
                    return;
                }
                try {
                    const auto start = Clock::now();
                    if (job.backend == "baseline") {
                        out.run = p.baseline;
                    } else {
                        out.run = simulateTraced(p, job.config,
                                                 job.backend, log);
                        out.seconds =
                            secondsBetween(start, Clock::now());
                    }
                    if (job.scored) {
                        SpanScope span(&log, kScore);
                        out.cmp = ExperimentRunner::score(
                            *p.workload, p.baseline, out.run);
                    }
                } catch (const std::exception &) {
                    out.status = JobStatus::Failed;
                    return;
                }
                if (journalOpen) {
                    SpanScope span(&log, kJournal);
                    const std::lock_guard<std::mutex> lock(journalMutex);
                    journal.append(
                        SweepJournal::jobKey({job.workload, job.backend,
                                              job.config, job.scored}),
                        out);
                }
            });
        }
        pool.wait();
        if (journalOpen) {
            journal.close();
            pass.journalBytes = fileBytes(journal.path());
            std::remove(journal.path().c_str());
        }
    }
    const auto t1 = Clock::now();
    pass.wall = secondsBetween(t0, t1);
    pass.cpu = cpuSeconds() - cpu0;
    pass.preparedPrograms = prepared.size();
    pass.layerSeconds = log.layerSeconds();
    pass.unattributedShare =
        1.0 - ratio(log.coveredSeconds(t0, t1), pass.wall);
    finishSweepPass(plan, outcomes, pass);
    return pass;
}

/** What the compiler flow produced for one benchmark. */
struct FlowResult
{
    bool ok = false;
    std::uint64_t traceEntries = 0;
    std::uint64_t observed = 0;
    bool truncated = false;
    SimStats traceStats{};
    std::size_t dddgVertices = 0;
    std::uint64_t dddgWeight = 0;
    RegionAnalysis analysis{};
    double estimate = 0.0;
    TransformResult axmemo;
    SwTransformResult software;
    SwTransformResult atm;
    SwTransformResult iact;
};

std::string
digestFlow(const FlowResult &r)
{
    Digest d;
    if (!r.ok) {
        d.str("fault");
        return d.hex();
    }
    d.u64(r.traceEntries);
    d.u64(r.observed);
    d.u64(r.truncated);
    digestStats(d, r.traceStats);
    d.u64(r.dddgVertices);
    d.u64(r.dddgWeight);
    d.u64(r.analysis.totalDynamicSubgraphs);
    d.f64(r.analysis.avgCiRatio);
    d.f64(r.analysis.coverage);
    d.u64(r.analysis.unique.size());
    for (const UniqueSubgraph &u : r.analysis.unique) {
        d.u64(u.signature.size());
        for (const InstIndex idx : u.signature)
            d.u64(idx);
        d.u64(u.dynamicCount);
        d.f64(u.ciRatio);
        d.f64(u.meanInputs);
        d.f64(u.meanWeight);
        d.u64(static_cast<std::uint64_t>(u.region));
    }
    d.f64(r.estimate);
    d.str(disassemble(r.axmemo.program));
    d.u64(r.axmemo.dataBytes);
    digestRegions(d, r.axmemo.regions);
    for (const SwTransformResult *sw : {&r.software, &r.atm, &r.iact}) {
        d.str(disassemble(sw->program));
        digestRegions(d, sw->regions);
    }
    return d.hex();
}

/** One pass of the compiler workflow; @p log null = untraced. */
PassResult
runFlowPass(const Plan &plan, SpanLog *log)
{
    PassResult pass;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::vector<FlowResult> results(plan.benchmarks.size());
    parallelFor(plan.workers, plan.benchmarks.size(), [&](std::size_t i) {
        FlowResult &r = results[i];
        try {
            std::unique_ptr<Workload> workload;
            SimMemory mem;
            {
                SpanScope span(log, kPrepare);
                workload = makeWorkload(plan.benchmarks[i]);
                workload->prepare(mem, plan.flowParams);
            }
            Program prog;
            {
                SpanScope span(log, kBuild);
                prog = workload->build();
            }
            // Pristine images for the software transforms, which
            // allocate their tables in simulated memory.
            SimMemory swMem, atmMem, iactMem;
            {
                SpanScope span(log, kClone);
                swMem = mem.clone();
                atmMem = mem.clone();
                iactMem = mem.clone();
            }
            // The trace buffer and the DDDG are freed inside their
            // layers' spans: releasing them is part of those layers' cost.
            std::unique_ptr<TraceBuffer> buffer;
            {
                SpanScope span(log, kTraceCapture);
                buffer = std::make_unique<TraceBuffer>(kTraceWindow);
                Simulator sim(prog, mem, {});
                sim.setTraceBuffer(buffer.get());
                r.traceStats = sim.run();
            }
            r.traceEntries = buffer->entries().size();
            r.observed = buffer->observed();
            r.truncated = buffer->truncated();
            std::unique_ptr<Dddg> graph;
            {
                SpanScope span(log, kDddg);
                graph = std::make_unique<Dddg>(prog, buffer->entries());
            }
            r.dddgVertices = graph->size();
            r.dddgWeight = graph->totalWeight();
            {
                SpanScope span(log, kRegionSearch);
                r.analysis = RegionFinder().analyze(*graph);
            }
            {
                SpanScope span(log, kEstimate);
                r.estimate = SpeedupEstimator().estimateProgram(
                    r.analysis, r.dddgWeight);
            }
            {
                SpanScope span(log, kDddg);
                graph.reset();
            }
            {
                SpanScope span(log, kTraceCapture);
                buffer.reset();
            }
            {
                SpanScope span(log, kTransform);
                const MemoSpec spec = workload->memoSpec();
                r.axmemo = MemoTransform::apply(prog, spec);
                r.software = SoftwareMemoTransform::apply(prog, spec,
                                                          swMem);
                r.atm = AtmTransform::apply(prog, spec, atmMem);
                r.iact = IactTransform::apply(prog, spec, iactMem);
            }
            r.ok = true;
        } catch (const std::exception &) {
            r.ok = false;
        }
    });
    const auto t1 = Clock::now();
    pass.wall = secondsBetween(t0, t1);
    pass.cpu = cpuSeconds() - cpu0;
    pass.attempted = results.size();
    pass.preparedPrograms = results.size();
    for (const FlowResult &r : results) {
        if (!r.ok)
            ++pass.failed;
        pass.digests.push_back(digestFlow(r));
        pass.work.addStats(r.traceStats);
        pass.work.traceEntries += r.traceEntries;
        pass.work.uniqueSubgraphs += r.analysis.unique.size();
    }
    if (log) {
        pass.layerSeconds = log->layerSeconds();
        pass.unattributedShare =
            1.0 - ratio(log->coveredSeconds(t0, t1), pass.wall);
    }
    return pass;
}

PassResult
runPass(const Plan &plan, bool traced, const std::string &workDir)
{
    if (!plan.sweep) {
        SpanLog log;
        return runFlowPass(plan, traced ? &log : nullptr);
    }
    return traced ? runTracedSweepPass(plan, workDir)
                  : runEnginePass(plan, workDir);
}

/** Passes of each kind a run makes at least, however short --seconds. */
constexpr unsigned kMinPasses = 3;
/** Set-up samples taken before every untraced pass. */
constexpr unsigned kSetupSamplesPerPass = 3;
/** One set-up takes 1-15 ms, so a sample repeats it back to back for at
 * least this long and reports the mean of one. */
constexpr double kSetupSampleSeconds = 0.05;

/** Set-up time: prepare() + build() of every distinct (workload,
 * dataset) the pass uses — the prepared-program cache's contents —
 * run serially from fresh memory. */
double
measureSetup(const Plan &plan)
{
    std::vector<std::pair<std::string, WorkloadParams>> datasets;
    if (plan.sweep) {
        std::set<std::string> seen;
        for (const BenchJob &job : plan.jobs)
            if (seen.insert(job.workload).second)
                datasets.emplace_back(job.workload, job.config.dataset);
    } else {
        for (const std::string &name : plan.benchmarks)
            datasets.emplace_back(name, plan.flowParams);
    }
    const auto t0 = Clock::now();
    unsigned repeats = 0;
    double elapsed = 0.0;
    do {
        for (const auto &[name, params] : datasets) {
            SimMemory mem;
            std::unique_ptr<Workload> workload = makeWorkload(name);
            workload->prepare(mem, params);
            const Program prog = workload->build();
            if (prog.size() == 0)
                std::fprintf(stderr, "empty program for %s\n",
                             name.c_str());
        }
        ++repeats;
        elapsed = secondsBetween(t0, Clock::now());
    } while (elapsed < kSetupSampleSeconds);
    return elapsed / repeats;
}

// ---------------------------------------------------------------------
// Report.

/** Minimal JSON emitter for the report (flat objects and arrays). The
 * benchmark keeps its own rather than core/json_export so its report
 * format does not move with the code under test. */
class Json
{
  public:
    void
    key(const std::string &k)
    {
        comma();
        quoted(k);
        out_ << ':';
        fresh_ = true;
    }
    void
    str(const std::string &s)
    {
        comma();
        quoted(s);
    }
    void
    num(double v)
    {
        comma();
        if (!std::isfinite(v)) {
            out_ << "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out_ << buf;
    }
    void
    boolean(bool v)
    {
        comma();
        out_ << (v ? "true" : "false");
    }
    void
    open(char c)
    {
        comma();
        out_ << c;
        fresh_ = true;
    }
    void
    close(char c)
    {
        out_ << c;
        fresh_ = false;
    }
    std::string text() const { return out_.str(); }

  private:
    void
    comma()
    {
        if (!fresh_)
            out_ << ',';
        fresh_ = false;
    }
    void
    quoted(const std::string &s)
    {
        out_ << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                out_ << ' ';
            else
                out_ << c;
        }
        out_ << '"';
    }
    std::ostringstream out_;
    bool fresh_ = true;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 1;
    double scale = -1.0;
    std::string workDir = ".";
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_ledger: %s\n"
                 "usage: perfbench_ledger --workload "
                 "<paper_grid|compiler_flow|dse_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1> --workers <n> "
                 "--work-dir <dir> --out <file> [--scale <f>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        const auto number = [&] {
            const double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(v >= 0.0))
                usage(("bad value for " + flag).c_str());
            return v;
        };
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = static_cast<std::uint64_t>(number());
        else if (flag == "--seconds")
            o.seconds = number();
        else if (flag == "--trace")
            o.trace = number() != 0.0;
        else if (flag == "--workers")
            o.workers = std::max(1u, static_cast<unsigned>(number()));
        else if (flag == "--scale")
            o.scale = number();
        else if (flag == "--work-dir")
            o.workDir = value;
        else if (flag == "--out")
            o.out = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.out.empty())
        usage("--out is required");
    return o;
}

Plan
makePlan(const Options &o)
{
    Plan plan;
    plan.name = o.workload;
    plan.seed = o.seed;
    plan.workers = o.workers;
    if (o.workload == "paper_grid") {
        plan.scale = o.scale >= 0.0 ? o.scale : 0.125;
        planPaperGrid(plan);
    } else if (o.workload == "dse_sweep") {
        plan.scale = o.scale >= 0.0 ? o.scale : 0.03;
        planDseSweep(plan);
    } else if (o.workload == "compiler_flow") {
        plan.scale = o.scale >= 0.0 ? o.scale : 0.01;
        planCompilerFlow(plan);
    } else {
        usage(("unknown workload '" + o.workload + "'").c_str());
    }
    return plan;
}

/** Geomean of paper_grid's scored speedups in one column. */
double
columnGeomean(const Plan &plan, const PassResult &pass,
              const std::string &label)
{
    double logSum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        if (plan.jobs[i].label != label || pass.speedups[i] <= 0.0)
            continue;
        logSum += std::log(pass.speedups[i]);
        ++n;
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

std::string
describeWork(const Work &w)
{
    std::ostringstream os;
    os << "macro_insts=" << w.macroInsts << " lookups=" << w.lookups
       << " hits=" << w.hits;
    return os.str();
}

/** Everything one invocation measured. */
struct Run
{
    /** The warm-up pass: its digests and work are the reference. */
    PassResult reference;
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::vector<double> setupSamples;
    /** High-water mark of a fresh process after its first pass: what
     * one sweep run from the command line holds. Later passes reuse
     * the allocator's retained memory, whose size depends on thread
     * scheduling, so they are not sampled. */
    double peakRssMib = 0.0;

    std::size_t attempted = 0;
    /** Failed or timed out. */
    std::size_t failed = 0;
    std::size_t timedOut = 0;
};

template <typename Fn>
std::vector<double>
samplesOf(const std::vector<PassResult> &passes, Fn fn)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(fn(p));
    return v;
}

template <typename Fn>
double
medianOf(const std::vector<PassResult> &passes, Fn fn)
{
    return median(samplesOf(passes, fn));
}

/** One warm-up pass, then set-up samples and passes (alternating
 * untraced and traced with --trace 1) until the time budget is spent. */
Run
measure(const Plan &plan, const Options &o)
{
    Run run;
    run.reference = runPass(plan, false, o.workDir);
    run.peakRssMib = peakRssMib();
    const auto start = Clock::now();
    for (;;) {
        const bool timeUp =
            secondsBetween(start, Clock::now()) >= o.seconds;
        const bool enough =
            run.untraced.size() >= kMinPasses &&
            (!o.trace || run.traced.size() >= kMinPasses);
        if (timeUp && enough)
            break;
        // Set-up samples are spread over the run, like the passes, so
        // their median sees the same host conditions.
        if (!o.trace)
            for (unsigned i = 0; i < kSetupSamplesPerPass; ++i)
                run.setupSamples.push_back(measureSetup(plan));
        run.untraced.push_back(runPass(plan, false, o.workDir));
        if (o.trace)
            run.traced.push_back(runPass(plan, true, o.workDir));
    }
    for (const std::vector<PassResult> *set :
         {&run.untraced, &run.traced})
        for (const PassResult &p : *set) {
            run.attempted += p.attempted;
            run.failed += p.failed + p.timedOut;
            run.timedOut += p.timedOut;
        }
    run.attempted += run.reference.attempted;
    run.failed += run.reference.failed + run.reference.timedOut;
    run.timedOut += run.reference.timedOut;
    return run;
}

std::vector<Check>
checkRun(const Plan &plan, const Run &run)
{
    const PassResult &ref = run.reference;
    std::vector<Check> checks;
    bool deterministic = true;
    for (const PassResult &p : run.untraced)
        deterministic = deterministic && p.digests == ref.digests;
    checks.push_back({"untraced_passes_identical", deterministic,
                      std::to_string(run.untraced.size() + 1) +
                          " passes"});
    checks.push_back({"no_failed_jobs", run.failed == 0,
                      std::to_string(run.failed) + " of " +
                          std::to_string(run.attempted) + " failed, " +
                          std::to_string(run.timedOut) + " timed out"});
    if (plan.sweep)
        checks.push_back(
            {"work_matches_sweep_metrics",
             ref.work.macroInsts == ref.metrics.simulatedMacroInsts,
             describeWork(ref.work) + " vs SweepMetrics " +
                 std::to_string(ref.metrics.simulatedMacroInsts)});
    if (!run.traced.empty()) {
        bool same = true, sameWork = true;
        for (const PassResult &p : run.traced) {
            same = same && p.digests == ref.digests;
            sameWork = sameWork && p.work == ref.work;
        }
        checks.push_back({"traced_digests_match_untraced", same,
                          std::to_string(run.traced.size()) +
                              " traced passes"});
        checks.push_back({"traced_work_matches_untraced", sameWork,
                          describeWork(run.traced[0].work) + " vs " +
                              describeWork(ref.work)});
        const double unattributed = medianOf(
            run.traced, [](auto &p) { return p.unattributedShare; });
        checks.push_back({"unattributed_share_at_most_0.10",
                          unattributed <= 0.10,
                          "median " + std::to_string(unattributed) +
                              " of traced wall outside any span"});
    }
    return checks;
}

std::vector<Metric>
endToEndMetrics(const Run &run)
{
    return {
        {"wall_s", medianOf(run.untraced, [](auto &p) { return p.wall; }),
         "s"},
        {"cpu_s", medianOf(run.untraced, [](auto &p) { return p.cpu; }),
         "s"},
        {"sim_minstr_per_s",
         medianOf(run.untraced,
                  [](auto &p) {
                      return ratio(
                          static_cast<double>(p.work.macroInsts) / 1e6,
                          p.wall);
                  }),
         "Minstr/s"},
        {"setup_s", median(run.setupSamples), "s"},
        {"peak_rss_mib", run.peakRssMib, "MiB"},
    };
}

std::vector<Metric>
layerMetrics(const Plan &plan, const Run &run)
{
    const PassResult &ref = run.reference;
    const Work &w = ref.work;
    const auto layer = [&](Layer l) {
        return medianOf(run.traced,
                        [l](auto &p) { return p.layerSeconds[l]; });
    };
    // Sweep-level metrics come from the untraced SweepEngine passes.
    const auto sweep = [&](auto fn) {
        return plan.sweep ? medianOf(run.untraced, fn) : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double simulateS = layer(kSimulate);
    const double captureS = layer(kTraceCapture);
    const SweepMetrics &sm = ref.metrics;
    return {
        {"workloads.prepare_s", layer(kPrepare), "s"},
        {"workloads.build_s", layer(kBuild), "s"},
        {"workloads.prepared_programs", d(ref.preparedPrograms), "count"},
        {"sim.simulate_s", simulateS, "s"},
        {"sim.ns_per_macro_inst",
         ratio((simulateS + captureS) * 1e9, d(w.macroInsts)), "ns"},
        {"sim.macro_insts", d(w.macroInsts), "count"},
        {"sim.cycles", d(w.cycles), "count"},
        {"sim.trace_capture_s", captureS, "s"},
        {"memsys.clone_s", layer(kClone), "s"},
        {"memsys.l1d_accesses", d(w.l1dHits + w.l1dMisses), "count"},
        {"memsys.l1d_miss_ratio",
         ratio(d(w.l1dMisses), d(w.l1dHits + w.l1dMisses)), "ratio"},
        {"memsys.l2_accesses", d(w.l2Hits + w.l2Misses), "count"},
        {"memsys.l2_miss_ratio",
         ratio(d(w.l2Misses), d(w.l2Hits + w.l2Misses)), "ratio"},
        {"memsys.dram_accesses", d(w.dramAccesses), "count"},
        {"memo.lookups", d(w.lookups), "count"},
        {"memo.hit_ratio", ratio(d(w.hits), d(w.lookups)), "ratio"},
        {"memo.l2_lut_hit_share", ratio(d(w.l2LutHits), d(w.hits)),
         "ratio"},
        {"memo.updates", d(w.updates), "count"},
        {"crc.bytes_hashed", d(w.crcBytes), "bytes"},
        {"compiler.trace_entries", d(w.traceEntries), "count"},
        {"compiler.dddg_s", layer(kDddg), "s"},
        {"compiler.region_search_s", layer(kRegionSearch), "s"},
        {"compiler.unique_subgraphs", d(w.uniqueSubgraphs), "count"},
        {"compiler.estimate_s", layer(kEstimate), "s"},
        {"compiler.transform_s", layer(kTransform), "s"},
        {"core.session_build_s", layer(kSessionBuild), "s"},
        {"energy.fold_s", layer(kFold), "s"},
        {"core.score_s", layer(kScore), "s"},
        {"core.journal_append_s", layer(kJournal), "s"},
        {"core.journal_bytes",
         sweep([](auto &p) { return static_cast<double>(p.journalBytes); }),
         "bytes"},
        {"core.report_emit_s", sweep([](auto &p) { return p.reportSeconds; }),
         "s"},
        {"core.sweep_execute_s",
         sweep([](auto &p) { return p.executeSeconds; }), "s"},
        {"core.baseline_reuse_ratio",
         ratio(d(sm.baselineRequests - sm.baselineSimulations),
               d(sm.baselineRequests)),
         "ratio"},
        {"core.parallel_efficiency",
         sweep([](auto &p) {
             return ratio(p.metrics.serialEstimateSeconds,
                          p.metrics.wallSeconds * p.metrics.workers);
         }),
         "ratio"},
        {"core.longest_job_s",
         sweep([](auto &p) { return p.longestJobSeconds; }), "s"},
        {"core.jobs_attempted", d(ref.attempted), "count"},
        {"core.jobs_failed", d(ref.failed + ref.timedOut), "count"},
        {"core.jobs_timed_out", d(ref.timedOut), "count"},
        {"bench.trace_overhead_ratio",
         ratio(medianOf(run.traced, [](auto &p) { return p.wall; }),
               medianOf(run.untraced, [](auto &p) { return p.wall; })) -
             1.0,
         "ratio"},
        {"bench.unattributed_share",
         medianOf(run.traced, [](auto &p) { return p.unattributedShare; }),
         "ratio"},
    };
}

std::string
reportJson(const Plan &plan, const Options &o, const Run &run,
           const std::vector<Check> &checks,
           const std::vector<Metric> &metrics)
{
    Json j;
    const auto number = [&j](const char *name, double v) {
        j.key(name);
        j.num(v);
    };
    const auto text = [&j](const char *name, const std::string &v) {
        j.key(name);
        j.str(v);
    };
    const auto numbers = [&j](const char *name,
                              const std::vector<double> &values) {
        j.key(name);
        j.open('[');
        for (const double v : values)
            j.num(v);
        j.close(']');
    };
    const auto texts = [&j](const char *name,
                            const std::vector<std::string> &values) {
        j.key(name);
        j.open('[');
        for (const std::string &v : values)
            j.str(v);
        j.close(']');
    };

    j.open('{');
    text("workload", plan.name);
    number("seed", static_cast<double>(plan.seed));
    number("scale", plan.scale);
    number("workers", plan.workers);
    number("trace", o.trace ? 1 : 0);
    text("build_type", PERFBENCH_BUILD_TYPE);
    text("compiler", PERFBENCH_COMPILER);
    number("jobs_per_pass", static_cast<double>(plan.jobCount()));
    number("untraced_passes", static_cast<double>(run.untraced.size()));
    number("traced_passes", static_cast<double>(run.traced.size()));
    numbers("wall_samples",
            samplesOf(run.untraced, [](auto &p) { return p.wall; }));
    numbers("cpu_samples",
            samplesOf(run.untraced, [](auto &p) { return p.cpu; }));
    numbers("traced_wall_samples",
            samplesOf(run.traced, [](auto &p) { return p.wall; }));
    numbers("setup_samples", run.setupSamples);
    number("attempted", static_cast<double>(run.attempted));
    number("failed", static_cast<double>(run.failed));
    number("timed_out", static_cast<double>(run.timedOut));
    text("digest", combineDigests(run.reference.digests));
    texts("job_digests", run.reference.digests);
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < plan.jobCount(); ++i)
        labels.push_back(plan.sweep ? plan.jobs[i].workload + " " +
                                          plan.jobs[i].label
                                    : plan.benchmarks[i]);
    texts("job_labels", labels);

    j.key("checks");
    j.open('[');
    for (const Check &c : checks) {
        j.open('{');
        text("name", c.name);
        j.key("ok");
        j.boolean(c.ok);
        text("detail", c.detail);
        j.close('}');
    }
    j.close(']');
    j.key("metrics");
    j.open('{');
    for (const Metric &m : metrics) {
        j.key(m.name);
        j.open('{');
        number("value", m.value);
        text("unit", m.unit);
        j.close('}');
    }
    j.close('}');
    if (plan.name == "paper_grid") {
        j.key("geomean_speedups");
        j.open('{');
        for (const char *label :
             {"axmemo L1(4KB)", "axmemo L1(8KB)",
              "axmemo L1(8KB)+L2(256KB)", "axmemo L1(8KB)+L2(512KB)",
              "software-lut"})
            number(label, columnGeomean(plan, run.reference, label));
        j.close('}');
    }
    j.close('}');
    return j.text();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setQuiet(true);
    // Fixed host options: the environment must not change what runs.
    RuntimeOptions runtime;
    runtime.jobs = o.workers;
    RuntimeOptions::setGlobal(runtime);

    const Plan plan = makePlan(o);
    const Run run = measure(plan, o);
    const std::string report =
        reportJson(plan, o, run, checkRun(plan, run),
                   o.trace ? layerMetrics(plan, run) : endToEndMetrics(run));

    std::ofstream out(o.out);
    out << report << "\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench_ledger: cannot write %s\n",
                     o.out.c_str());
        return 1;
    }
    return 0;
}
