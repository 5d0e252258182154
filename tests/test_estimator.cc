/**
 * @file
 * Speedup-estimator tests: the analytic model's limit behaviours and its
 * agreement (as an optimistic bound with the right ordering) with the
 * simulated truth on real benchmarks.
 */

#include <gtest/gtest.h>

#include "compiler/speedup_estimator.hh"
#include "core/experiment.hh"
#include "sim/simulator.hh"

namespace axmemo {
namespace {

TEST(Estimator, HitRateLimits)
{
    const SpeedupEstimator est;
    // All invocations share one pattern: only the compulsory miss.
    EXPECT_NEAR(est.predictHitRate(1, 1000), 0.999, 1e-9);
    // Every invocation unique: nothing to reuse.
    EXPECT_EQ(est.predictHitRate(1000, 1000), 0.0);
    EXPECT_EQ(est.predictHitRate(2000, 1000), 0.0);
    // Pattern set overflowing the LUT streams.
    EstimatorConfig tiny;
    tiny.lutEntries = 100;
    EXPECT_EQ(SpeedupEstimator(tiny).predictHitRate(1000, 100000), 0.0);
    // Degenerate inputs.
    EXPECT_EQ(est.predictHitRate(0, 100), 0.0);
    EXPECT_EQ(est.predictHitRate(10, 0), 0.0);
}

TEST(Estimator, SubgraphLimits)
{
    const SpeedupEstimator est;
    UniqueSubgraph sub;
    sub.dynamicCount = 10000;
    sub.meanWeight = 100.0;
    sub.meanInputs = 2.0;

    // Full coverage + near-perfect reuse: speedup approaches
    // weight / hit-path cost.
    const SubgraphEstimate full =
        est.estimate(sub, /*totalWeight=*/1000000, /*patterns=*/1);
    EXPECT_NEAR(full.coverage, 1.0, 1e-9);
    EXPECT_GT(full.speedup, 5.0);

    // Zero reuse: no benefit, slight overhead.
    const SubgraphEstimate none =
        est.estimate(sub, 1000000, /*patterns=*/10000);
    EXPECT_LE(none.speedup, 1.0);

    // Small coverage bounds the whole-program gain (Amdahl).
    const SubgraphEstimate small =
        est.estimate(sub, /*totalWeight=*/100000000, 1);
    EXPECT_LT(small.speedup, 1.02);
}

TEST(Estimator, MoreInputsCostMore)
{
    const SpeedupEstimator est;
    UniqueSubgraph narrow;
    narrow.dynamicCount = 1000;
    narrow.meanWeight = 50.0;
    narrow.meanInputs = 1.0;
    UniqueSubgraph wide = narrow;
    wide.meanInputs = 9.0;
    const std::uint64_t total = 100000;
    EXPECT_GT(est.estimate(narrow, total, 1).speedup,
              est.estimate(wide, total, 1).speedup);
}

TEST(Estimator, OrdersRealBenchmarksLikeTheSimulator)
{
    // The estimator must at least rank a high-reuse, high-coverage
    // benchmark (blackscholes) above the no-reuse one (jmeint).
    auto analyze = [](const char *name, std::uint64_t patterns) {
        auto workload = makeWorkload(name);
        SimMemory mem;
        WorkloadParams params;
        params.scale = 0.01;
        workload->prepare(mem, params);
        const Program prog = workload->build();
        TraceBuffer buffer(1u << 18);
        Simulator sim(prog, mem, {});
        sim.setTraceBuffer(&buffer);
        sim.run();
        const Dddg graph(prog, buffer.entries());
        const RegionAnalysis analysis = RegionFinder().analyze(graph);
        const SpeedupEstimator est;
        std::vector<std::uint64_t> hints(analysis.unique.size(),
                                         patterns);
        return est.estimateProgram(analysis, graph.totalWeight(),
                                   hints);
    };

    // blackscholes: ~1500 option templates; jmeint: every pair unique.
    const double bs = analyze("blackscholes", 1500);
    const double jm = analyze("jmeint", 1u << 20);
    EXPECT_GT(bs, 1.3);
    EXPECT_LT(jm, 1.05);
    EXPECT_GT(bs, jm);
}

} // namespace
} // namespace axmemo
