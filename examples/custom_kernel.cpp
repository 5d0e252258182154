/**
 * @file
 * End-to-end walkthrough of memoizing *your own* kernel — the full
 * compiler workflow of Fig. 5 on user code rather than a canned
 * benchmark:
 *
 *   1. write a kernel in the AxIR builder DSL (a distance-field
 *      evaluator: for every query point, the softmin distance to a set
 *      of spheres — an exp-heavy inner region);
 *   2. trace one run and build the dynamic data dependence graph;
 *   3. let the region finder surface candidate subgraphs and their
 *      Compute-to-Input ratios (Table 1 style);
 *   4. apply the memoization transform to the hinted region and compare
 *      baseline vs AxMemo cycles, energy, and output quality.
 */

#include <cstdio>

#include "core/axmemo.hh"

using namespace axmemo;

namespace {

constexpr unsigned kSpheres = 4;
constexpr unsigned kQueries = 4000;
constexpr int kRegion = 1;

struct DistanceField
{
    SimMemory mem;
    Addr queries = 0;
    Addr spheres = 0;
    Addr out = 0;

    DistanceField()
    {
        Rng rng(2026);
        queries = mem.allocate(kQueries * 8);
        spheres = mem.allocate(kSpheres * 12);
        out = mem.allocate(kQueries * 4);
        // Query points on a sensor grid (quantized): repeats abound.
        for (unsigned i = 0; i < kQueries; ++i) {
            mem.writeFloat(queries + 8 * i,
                           quantizeTo(rng.uniform(-2, 2), 1.0f / 8));
            mem.writeFloat(queries + 8 * i + 4,
                           quantizeTo(rng.uniform(-2, 2), 1.0f / 8));
        }
        for (unsigned s = 0; s < kSpheres; ++s) {
            mem.writeFloat(spheres + 12 * s,
                           static_cast<float>(rng.uniform(-2, 2)));
            mem.writeFloat(spheres + 12 * s + 4,
                           static_cast<float>(rng.uniform(-2, 2)));
            mem.writeFloat(spheres + 12 * s + 8,
                           static_cast<float>(rng.uniform(0.5, 1.5)));
        }
    }

    static float
    quantizeTo(double x, float step)
    {
        return static_cast<float>(static_cast<int>(x / step)) * step;
    }

    Program
    build() const
    {
        KernelBuilder b("distance_field");
        const IReg q = b.imm(static_cast<std::int64_t>(queries));
        const IReg sph = b.imm(static_cast<std::int64_t>(spheres));
        const IReg o = b.imm(static_cast<std::int64_t>(out));

        b.forRange(0, kQueries, 1, [&](IReg i) {
            const IReg qa = b.add(q, b.shl(i, 3));
            const FReg x = b.ldf(qa, 0);
            const FReg y = b.ldf(qa, 4);

            // The exp-heavy softmin over spheres: a natural memoization
            // region with two inputs and one output. The sphere table
            // is read inside the region (slowly-varying state).
            b.regionBegin(kRegion);
            FReg acc = b.fimm(0.0f);
            for (unsigned s = 0; s < kSpheres; ++s) {
                const FReg cx = b.ldf(sph, 12 * s);
                const FReg cy = b.ldf(sph, 12 * s + 4);
                const FReg rad = b.ldf(sph, 12 * s + 8);
                const FReg dx = b.fsub(x, cx);
                const FReg dy = b.fsub(y, cy);
                const FReg dist = b.fsub(
                    b.fsqrt(b.fadd(b.fmul(dx, dx), b.fmul(dy, dy))),
                    rad);
                // softmin accumulation: acc += exp(-k * dist)
                acc = b.fadd(acc, b.fexp(b.fmul(b.fimm(-8.0f), dist)));
            }
            const FReg result = b.fdiv(
                b.flog(acc), b.fimm(-8.0f));
            b.regionEnd(kRegion);

            b.stf(b.add(o, b.shl(i, 2)), 0, result);
        });
        return b.finish();
    }
};

} // namespace

int
main()
{
    DistanceField field;
    const Program prog = field.build();
    std::printf("kernel: %lld static instructions\n\n",
                static_cast<long long>(prog.size()));

    // --- step 1-2: trace the program, build the DDDG ---
    TraceBuffer buffer(1u << 18);
    SimStats baseStats;
    std::vector<float> exact;
    {
        DistanceField fresh;
        Simulator sim(prog, fresh.mem, {});
        sim.setTraceBuffer(&buffer);
        baseStats = sim.run();
        exact = fresh.mem.readFloats(fresh.out, kQueries);
    }
    const Dddg graph(prog, buffer.entries());
    std::printf("trace: %zu dynamic instructions, DDDG weight %llu\n",
                buffer.entries().size(),
                static_cast<unsigned long long>(graph.totalWeight()));

    // --- step 3: candidate search (Table 1 for this kernel) ---
    const RegionAnalysis analysis = RegionFinder().analyze(graph);
    std::printf("candidates: %llu dynamic subgraphs, %zu unique, "
                "avg CI_Ratio %.1f, coverage %.1f%%\n",
                static_cast<unsigned long long>(
                    analysis.totalDynamicSubgraphs),
                analysis.unique.size(), analysis.avgCiRatio,
                100.0 * analysis.coverage);
    if (!analysis.unique.empty()) {
        const UniqueSubgraph &best = analysis.unique.front();
        std::printf("best subgraph: %llu instances, CI %.1f, region "
                    "hint %d\n\n",
                    static_cast<unsigned long long>(best.dynamicCount),
                    best.ciRatio, best.region);
    }

    // --- step 4: memoize the hinted region and compare ---
    RegionMemoSpec region;
    region.regionId = kRegion;
    region.truncBits = 6; // tolerate tiny query jitter
    // The sphere-table base address is invariant state, not an input.
    for (const Inst &inst : prog.insts()) {
        if (inst.op == Op::Movi &&
            static_cast<Addr>(inst.imm) == field.spheres)
            region.excludeInputs.insert(inst.dst);
    }
    MemoSpec spec;
    spec.regions.push_back(region);

    const TransformResult tr = MemoTransform::apply(prog, spec);
    std::printf("transform: %u inputs (%u bytes) -> %u output(s), "
                "%u loads fused into ld_crc\n",
                tr.regions[0].numInputs, tr.regions[0].inputBytes,
                tr.regions[0].numOutputs, tr.regions[0].fusedLoads);

    DistanceField memoized;
    SimConfig config;
    config.memoEnabled = true;
    config.memo.l1Lut.sizeBytes = 8 * 1024;
    config.memo.l1Lut.dataBytes = tr.dataBytes;
    config.memo.l2LutBytes = 512 * 1024;
    Simulator sim(tr.program, memoized.mem, config);
    const SimStats &stats = sim.run();
    const std::vector<float> approx =
        memoized.mem.readFloats(memoized.out, kQueries);

    std::vector<double> exactD(exact.begin(), exact.end());
    std::vector<double> approxD(approx.begin(), approx.end());
    const double quality = normalizedSquaredError(exactD, approxD);

    std::printf("baseline: %llu cycles; memoized: %llu cycles -> "
                "%.2fx speedup\n",
                static_cast<unsigned long long>(baseStats.cycles),
                static_cast<unsigned long long>(stats.cycles),
                static_cast<double>(baseStats.cycles) /
                    static_cast<double>(stats.cycles));
    std::printf("hit rate: %.1f%%, quality loss: %.4f%%\n",
                100.0 * stats.memo.hitRate(), 100.0 * quality);
    return 0;
}
