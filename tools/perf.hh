/**
 * @file
 * The `axmemo perf` subcommand: microbenchmarks of the three simulator
 * data paths every run touches (SimMemory translation + CoW clone, CRC
 * bulk hashing, LUT/cache way lookup) plus an end-to-end `fig7` sweep,
 * appended as one entry to BENCH_perf.json so the performance
 * trajectory of the reproduction is tracked across PRs (DESIGN.md §7).
 */

#ifndef AXMEMO_TOOLS_PERF_HH
#define AXMEMO_TOOLS_PERF_HH

#include <string>

namespace axmemo {

/** Options of one `axmemo perf` invocation. */
struct PerfOptions
{
    /** CI mode: ~8x fewer iterations and a smaller fig7 scale. */
    bool quick = false;
    /** Output directory override (--out), else $AXMEMO_SWEEP_DIR/cwd. */
    std::string outDir;
    /** Dataset scale of the end-to-end fig7 run (--scale). */
    double scale = 0.0; ///< 0 = default (0.05, or 0.02 with --quick)
    /** --check: exit nonzero when the delta table against the newest
     * entry from the same host in the same mode flags a regression
     * beyond 5% on any canonical metric. */
    bool check = false;
};

/** Run the perf harness; @return process exit code. */
int runPerf(const PerfOptions &options);

} // namespace axmemo

#endif // AXMEMO_TOOLS_PERF_HH
