/**
 * @file
 * Compiler tests: the dynamic trace, the DDDG, the candidate-subgraph
 * finder, and — most critically — the AxMemo / software-memoization
 * transforms, including end-to-end functional equivalence between the
 * baseline and rewritten programs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "compiler/atm_transform.hh"
#include "compiler/dddg.hh"
#include "compiler/region_finder.hh"
#include "compiler/software_transform.hh"
#include "compiler/trace.hh"
#include "compiler/transform.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace {

/**
 * A tiny but representative workload: per element, a memoizable region
 * computing two outputs from two loaded floats; stores both results.
 */
struct MiniKernel
{
    SimMemory mem;
    Addr in = 0;
    Addr out = 0;
    unsigned n = 64;
    MemoSpec spec;

    MiniKernel()
    {
        in = mem.allocate(n * 8);
        out = mem.allocate(n * 8);
        // A handful of distinct values so memoization has reuse.
        for (unsigned i = 0; i < n; ++i) {
            mem.writeFloat(in + 8 * i, 1.0f + static_cast<float>(i % 5));
            mem.writeFloat(in + 8 * i + 4,
                           2.0f + static_cast<float>(i % 3));
        }
        RegionMemoSpec region;
        region.regionId = 1;
        region.lut = 0;
        region.truncBits = 0;
        spec.regions.push_back(region);
    }

    Program
    build() const
    {
        KernelBuilder b("mini");
        const IReg inReg = b.imm(static_cast<std::int64_t>(in));
        const IReg outReg = b.imm(static_cast<std::int64_t>(out));
        b.forRange(0, n, 1, [&](IReg i) {
            const IReg addr = b.add(inReg, b.shl(i, 3));
            const FReg x = b.ldf(addr, 0);
            const FReg y = b.ldf(addr, 4);
            b.regionBegin(1);
            const FReg s = b.fadd(b.fmul(x, x), y);
            const FReg t = b.fdiv(x, b.fadd(y, b.fimm(1.0f)));
            b.regionEnd(1);
            const IReg oaddr = b.add(outReg, b.shl(i, 3));
            b.stf(oaddr, 0, s);
            b.stf(oaddr, 4, t);
        });
        return b.finish();
    }

    std::vector<float>
    outputs() const
    {
        return mem.readFloats(out, 2 * n);
    }
};

// --------------------------------------------------------------- trace

TEST(Trace, RecordsWindowAndTruncates)
{
    KernelBuilder b("t");
    b.forRange(0, 100, 1, [&](IReg) { b.imm(1); });
    const Program p = b.finish();
    SimMemory mem;
    TraceRecorder recorder(50);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();
    EXPECT_EQ(recorder.entries().size(), 50u);
    EXPECT_TRUE(recorder.truncated());
    EXPECT_GT(recorder.observed(), 100u);
}

// ---------------------------------------------------------------- dddg

TEST(Dddg, EdgesFollowDefUse)
{
    KernelBuilder b("t");
    const FReg x = b.fimm(2.0f);        // 0 const
    const FReg y = b.fmul(x, x);        // 1
    const FReg z = b.fadd(y, x);        // 2
    (void)z;
    const Program p = b.finish();

    TraceRecorder recorder;
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    ASSERT_GE(graph.size(), 3u);
    const auto &verts = graph.vertices();
    EXPECT_EQ(verts[0].kind, VertexKind::Const);
    EXPECT_EQ(verts[1].kind, VertexKind::Compute);
    // fmul consumed the const twice; fadd consumed fmul and the const.
    EXPECT_EQ(verts[1].preds.size(), 2u);
    EXPECT_EQ(verts[2].preds.size(), 2u);
    EXPECT_EQ(verts[2].preds[0], 1u);
}

TEST(Dddg, ExternalInputsCounted)
{
    // Reading a register never written in the window counts as an
    // external input.
    Program p("ext");
    p.append({.op = Op::Add, .dst = iregId(0), .src1 = iregId(5),
              .imm = 1});
    p.append({.op = Op::Halt});
    p.verify();
    std::vector<TraceEntry> trace = {{0, Op::Add}};
    const Dddg graph(p, trace);
    EXPECT_EQ(graph.vertices()[0].externalInputs, 1u);
}

TEST(Dddg, RegionAttribution)
{
    KernelBuilder b("t");
    const FReg x = b.fimm(1.0f);
    b.regionBegin(7);
    b.fmul(x, x);
    b.regionEnd(7);
    b.fadd(x, x);
    const Program p = b.finish();

    TraceRecorder recorder;
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    bool sawInside = false;
    bool sawOutside = false;
    for (const auto &v : graph.vertices()) {
        if (v.op == Op::Fmul) {
            EXPECT_EQ(v.region, 7);
            sawInside = true;
        }
        if (v.op == Op::Fadd) {
            EXPECT_EQ(v.region, -1);
            sawOutside = true;
        }
    }
    EXPECT_TRUE(sawInside && sawOutside);
}

// -------------------------------------------------------- region finder

TEST(RegionFinder, FindsLoopBodyAndDedups)
{
    MiniKernel kernel;
    const Program p = kernel.build();
    TraceRecorder recorder;
    SimMemory mem = std::move(kernel.mem);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    RegionFinderConfig config;
    config.minCiRatio = 2.0;
    const RegionFinder finder(config);
    const RegionAnalysis analysis = finder.analyze(graph);

    // Many dynamic instances, few unique signatures (one loop body).
    EXPECT_GT(analysis.totalDynamicSubgraphs, 64u);
    EXPECT_LE(analysis.unique.size(), 8u);
    EXPECT_GT(analysis.coverage, 0.1);
    EXPECT_GT(analysis.avgCiRatio, 2.0);
    // The heaviest unique subgraph lies in the hinted region.
    ASSERT_FALSE(analysis.unique.empty());
    EXPECT_EQ(analysis.unique.front().region, 1);
}

TEST(RegionFinder, ThresholdFiltersEverything)
{
    MiniKernel kernel;
    const Program p = kernel.build();
    TraceRecorder recorder;
    SimMemory mem = std::move(kernel.mem);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();
    const Dddg graph(p, recorder.entries());

    RegionFinderConfig config;
    config.minCiRatio = 1e9;
    const RegionAnalysis analysis = RegionFinder(config).analyze(graph);
    EXPECT_EQ(analysis.totalDynamicSubgraphs, 0u);
    EXPECT_TRUE(analysis.unique.empty());
}

/** A trace that executes every instruction of @p prog once, in order. */
std::vector<TraceEntry>
straightLineTrace(const Program &prog)
{
    std::vector<TraceEntry> trace;
    for (InstIndex i = 0; i < prog.size(); ++i)
        trace.push_back({i, prog.at(i).op});
    return trace;
}

TEST(RegionFinder, ConeOverflowDropsRootButLimitQualifies)
{
    // r1 <- r0 + 1 (r0 window-external), then six more adds and a div:
    // an eight-vertex chain whose full cone weighs 7 * 1 + 12 = 19 over
    // one input. Every shorter cone has CI_Ratio <= 7, so with a
    // threshold of 10 only the root at the end of the chain qualifies.
    Program p("chain");
    for (unsigned k = 0; k < 7; ++k)
        p.append({.op = Op::Add, .dst = iregId(k + 1),
                  .src1 = iregId(k), .imm = 1});
    p.append({.op = Op::Div, .dst = iregId(8), .src1 = iregId(7),
              .imm = 3});
    const Dddg graph(p, straightLineTrace(p));

    RegionFinderConfig config;
    config.minCiRatio = 10.0;
    config.maxConeVertices = 8;
    const RegionAnalysis atLimit = RegionFinder(config).analyze(graph);
    EXPECT_EQ(atLimit.totalDynamicSubgraphs, 1u);
    ASSERT_EQ(atLimit.unique.size(), 1u);
    EXPECT_EQ(atLimit.unique[0].signature.size(), 8u);
    EXPECT_EQ(atLimit.unique[0].meanWeight, 19.0);
    EXPECT_EQ(atLimit.unique[0].meanInputs, 1.0);

    config.maxConeVertices = 7;
    const RegionAnalysis overflow = RegionFinder(config).analyze(graph);
    EXPECT_EQ(overflow.totalDynamicSubgraphs, 0u);
    EXPECT_TRUE(overflow.unique.empty());
}

TEST(RegionFinder, SecondInstanceOfStaticInstStopsCone)
{
    // One static div executed twice, the second instance consuming the
    // first: a loop-carried recurrence. Each root's cone is its own
    // vertex alone, and the earlier instance becomes a boundary input.
    Program p("recurrence");
    p.append({.op = Op::Div, .dst = iregId(1), .src1 = iregId(1),
              .imm = 3});
    const std::vector<TraceEntry> trace = {{0, Op::Div}, {0, Op::Div}};
    const Dddg graph(p, trace);
    ASSERT_EQ(graph.size(), 2u);
    ASSERT_EQ(graph.vertices()[1].preds.size(), 1u);
    EXPECT_EQ(graph.vertices()[1].preds[0], 0u);

    const RegionAnalysis analysis = RegionFinder().analyze(graph);
    EXPECT_EQ(analysis.totalDynamicSubgraphs, 2u);
    ASSERT_EQ(analysis.unique.size(), 1u);
    EXPECT_EQ(analysis.unique[0].signature, std::vector<InstIndex>{0});
    EXPECT_EQ(analysis.unique[0].dynamicCount, 2u);
    // Without the rule the second root's cone would weigh 24, not 12.
    EXPECT_EQ(analysis.unique[0].meanWeight, 12.0);
    EXPECT_EQ(analysis.unique[0].meanInputs, 1.0);
}

TEST(RegionFinder, ConstPredecessorsAreNotInputs)
{
    // r2 <- r1 / r3 with r1 a constant and r3 window-external: one
    // input. A div fed only by a constant has no inputs and no
    // candidate.
    Program p("consts");
    p.append({.op = Op::Movi, .dst = iregId(1), .imm = 5});
    p.append({.op = Op::Div, .dst = iregId(2), .src1 = iregId(1),
              .src2 = iregId(3)});
    p.append({.op = Op::Div, .dst = iregId(4), .src1 = iregId(1),
              .imm = 7});
    const Dddg graph(p, straightLineTrace(p));
    ASSERT_EQ(graph.vertices()[1].preds.size(), 1u);
    EXPECT_EQ(graph.vertices()[1].externalInputs, 1u);

    const RegionAnalysis analysis = RegionFinder().analyze(graph);
    EXPECT_EQ(analysis.totalDynamicSubgraphs, 1u);
    ASSERT_EQ(analysis.unique.size(), 1u);
    EXPECT_EQ(analysis.unique[0].signature, std::vector<InstIndex>{1});
    EXPECT_EQ(analysis.unique[0].meanInputs, 1.0);
    EXPECT_EQ(analysis.unique[0].ciRatio, 12.0);
}

TEST(RegionFinder, ValueReadTwiceIsOneInput)
{
    // r2 <- r1 / r1 with r1 loaded: two preds entries, one input.
    Program p("square");
    p.append({.op = Op::Ld, .dst = iregId(1), .src1 = iregId(0)});
    p.append({.op = Op::Div, .dst = iregId(2), .src1 = iregId(1),
              .src2 = iregId(1)});
    const Dddg graph(p, straightLineTrace(p));
    const auto &preds = graph.vertices()[1].preds;
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], 0u);
    EXPECT_EQ(preds[1], 0u);

    const RegionAnalysis analysis = RegionFinder().analyze(graph);
    ASSERT_EQ(analysis.unique.size(), 1u);
    EXPECT_EQ(analysis.unique[0].meanInputs, 1.0);
    EXPECT_EQ(analysis.unique[0].ciRatio, 12.0);
}

/** FNV-1a over the 64-bit words of a value stream. */
struct Fnv1a
{
    std::uint64_t hash = 14695981039346656037ull;

    void
    add(std::uint64_t word)
    {
        for (unsigned byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
};

/** Digest of every field of @p analysis, floating point by bit pattern. */
std::uint64_t
digestOf(const RegionAnalysis &analysis)
{
    Fnv1a fnv;
    fnv.add(analysis.totalDynamicSubgraphs);
    fnv.add(analysis.avgCiRatio);
    fnv.add(analysis.coverage);
    fnv.add(std::uint64_t{analysis.unique.size()});
    for (const UniqueSubgraph &u : analysis.unique) {
        fnv.add(std::uint64_t{u.signature.size()});
        for (InstIndex id : u.signature)
            fnv.add(static_cast<std::uint64_t>(id));
        fnv.add(u.dynamicCount);
        fnv.add(u.ciRatio);
        fnv.add(u.meanInputs);
        fnv.add(u.meanWeight);
        fnv.add(static_cast<std::uint64_t>(u.region));
    }
    return fnv.hash;
}

TEST(RegionFinder, GoldenAnalysisOfEveryBenchmark)
{
    // Table 1's sample flow: sample inputs at scale 0.01, a 2^18-entry
    // trace window, default search parameters. Any change to the
    // traversal order, the merge order or a floating-point accumulation
    // order shows up here.
    struct Pin
    {
        const char *name;
        std::uint64_t dynamicSubgraphs;
        std::size_t uniqueSubgraphs;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"blackscholes", 125593, 3, 0x7231baecc8f81b8eull},
        {"fft", 12174, 5, 0xc730bf5e1f7cdcb8ull},
        {"inversek2j", 110373, 1, 0xb9b019a6bfce190dull},
        {"jmeint", 48436, 11, 0xe31f6cb6f02e07afull},
        {"jpeg", 73872, 12, 0xa29f7188d8e29812ull},
        {"kmeans", 53846, 12, 0x6d47c596b5b29befull},
        {"sobel", 45775, 3, 0x70acd9fc452b6a0eull},
        {"hotspot", 77632, 8, 0xeda4d4577d3bf710ull},
        {"lavamd", 129354, 4, 0x4ef8717d8461c6b5ull},
        {"srad", 85760, 4, 0x3c7e1334a3ec0318ull},
    };
    ASSERT_EQ(std::size(pins), workloadNames().size());

    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        auto workload = makeWorkload(pin.name);
        SimMemory mem;
        WorkloadParams params;
        params.scale = 0.01;
        params.sampleSet = true;
        workload->prepare(mem, params);
        const Program prog = workload->build();

        TraceBuffer buffer(1u << 18);
        Simulator sim(prog, mem, {});
        sim.setTraceBuffer(&buffer);
        sim.run();

        const Dddg graph(prog, buffer.entries());
        const RegionAnalysis analysis = RegionFinder().analyze(graph);
        EXPECT_EQ(analysis.totalDynamicSubgraphs, pin.dynamicSubgraphs);
        EXPECT_EQ(analysis.unique.size(), pin.uniqueSubgraphs);
        EXPECT_EQ(digestOf(analysis), pin.digest)
            << std::hex << "digest 0x" << digestOf(analysis);
    }
}

// ------------------------------------------------------- memo transform

TEST(MemoTransform, EmitsFig1Structure)
{
    const MiniKernel kernel;
    const Program base = kernel.build();
    const TransformResult tr = MemoTransform::apply(base, kernel.spec);

    unsigned lookups = 0, updates = 0, brMiss = 0, ldCrc = 0,
             regCrc = 0;
    for (const Inst &inst : tr.program.insts()) {
        lookups += inst.op == Op::Lookup;
        updates += inst.op == Op::Update;
        brMiss += inst.op == Op::BrMiss;
        ldCrc += inst.op == Op::LdCrc;
        regCrc += inst.op == Op::RegCrc;
    }
    EXPECT_EQ(lookups, 1u);
    EXPECT_EQ(updates, 1u);
    EXPECT_EQ(brMiss, 1u);
    // Both inputs are loads immediately before the region: fused.
    EXPECT_EQ(ldCrc, 2u);
    EXPECT_EQ(regCrc, 0u);

    ASSERT_EQ(tr.regions.size(), 1u);
    EXPECT_EQ(tr.regions[0].numInputs, 2u);
    EXPECT_EQ(tr.regions[0].inputBytes, 8u);
    EXPECT_EQ(tr.regions[0].numOutputs, 2u);
    EXPECT_EQ(tr.dataBytes, 8u);
    EXPECT_EQ(tr.regions[0].fusedLoads, 2u);
}

TEST(MemoTransform, FunctionalEquivalenceWithoutTruncation)
{
    // With trunc 0 and no collisions, the memoized program must produce
    // bit-identical outputs.
    MiniKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }

    MiniKernel memo;
    {
        const TransformResult tr =
            MemoTransform::apply(memo.build(), memo.spec);
        SimConfig config;
        config.memoEnabled = true;
        config.memo.l1Lut.dataBytes = tr.dataBytes;
        Simulator sim(tr.program, memo.mem, config);
        sim.run();
        EXPECT_GT(sim.stats().memo.lookups, 0u);
        EXPECT_GT(sim.stats().memo.hits(), 0u);
    }

    EXPECT_EQ(base.outputs(), memo.outputs());
}

TEST(MemoTransform, HitsSkipComputation)
{
    MiniKernel kernel;
    const TransformResult tr =
        MemoTransform::apply(kernel.build(), kernel.spec);
    SimConfig config;
    config.memoEnabled = true;
    config.memo.l1Lut.dataBytes = tr.dataBytes;
    config.memo.quality.enabled = false;
    Simulator sim(tr.program, kernel.mem, config);
    const SimStats &stats = sim.run();
    // 5x3 = 15 distinct keys over 64 iterations.
    EXPECT_EQ(stats.memo.lookups, 64u);
    EXPECT_EQ(stats.memo.misses, 15u);
    EXPECT_EQ(stats.memo.hits(), 49u);
    EXPECT_EQ(stats.memo.updates, 15u);
}

TEST(MemoTransform, MissingRegionFatal)
{
    const MiniKernel kernel;
    MemoSpec spec = kernel.spec;
    spec.regions[0].regionId = 42;
    EXPECT_THROW(MemoTransform::apply(kernel.build(), spec),
                 std::runtime_error);
}

TEST(MemoTransform, StoreInRegionFatal)
{
    KernelBuilder b("bad");
    const IReg addr = b.imm(0x1000);
    b.regionBegin(1);
    b.st(addr, 0, addr, 4);
    b.regionEnd(1);
    const Program p = b.finish();
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    EXPECT_THROW(MemoTransform::apply(p, spec), std::runtime_error);
}

TEST(MemoTransform, TooManyOutputsFatal)
{
    KernelBuilder b("bad");
    const FReg x = b.fimm(1.0f);
    b.regionBegin(1);
    const FReg a = b.fadd(x, x);
    const FReg c = b.fmul(x, x);
    const FReg d = b.fsub(x, x);
    b.regionEnd(1);
    const IReg sink = b.imm(0x1000);
    b.stf(sink, 0, a);
    b.stf(sink, 4, c);
    b.stf(sink, 8, d);
    const Program p = b.finish();
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    EXPECT_THROW(MemoTransform::apply(p, spec), std::runtime_error);
}

TEST(MemoTransform, EarlyExitRoutesThroughUpdate)
{
    // A region with an internal branch to its end must still update the
    // LUT on that path (otherwise the allocated entry is orphaned and
    // the next update panics).
    KernelBuilder b("early");
    const IReg n = b.imm(16);
    const IReg outAddr = b.imm(0x4000);
    b.forRange(0, n, 1, [&](IReg i) {
        const IReg v = b.band(i, 3);
        b.regionBegin(1);
        const IReg res = b.newIReg();
        b.assign(res, 0);
        b.ifThen(b.sne(v, 0), [&] { b.assign(res, b.mul(v, 7)); });
        b.regionEnd(1);
        b.st(b.add(outAddr, b.shl(i, 2)), 0, res, 4);
    });
    const Program p = b.finish();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    const TransformResult tr = MemoTransform::apply(p, spec);

    SimMemory mem;
    SimConfig config;
    config.memoEnabled = true;
    config.memo.quality.enabled = false;
    Simulator sim(tr.program, mem, config);
    sim.run(); // must not panic
    // Functional check vs baseline expectations: res = (i&3)*7.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(mem.read32(0x4000 + 4 * i), (i & 3) * 7);
}

TEST(MemoTransform, InvalidatePointsEmitInvalidate)
{
    MiniKernel kernel;
    Program p = [&] {
        KernelBuilder b("inv");
        b.regionBegin(9);
        b.regionEnd(9);
        const IReg addr = b.imm(static_cast<std::int64_t>(kernel.in));
        const FReg x = b.ldf(addr, 0);
        b.regionBegin(1);
        const FReg y = b.fmul(x, x);
        b.regionEnd(1);
        b.stf(addr, 32, y);
        return b.finish();
    }();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    spec.invalidateAt[9] = {0};
    const TransformResult tr = MemoTransform::apply(p, spec);

    unsigned invalidates = 0;
    for (const Inst &inst : tr.program.insts())
        invalidates += inst.op == Op::Invalidate;
    EXPECT_EQ(invalidates, 1u);
}

TEST(MemoTransform, ExcludedInputsNotHashed)
{
    KernelBuilder b("excl");
    const IReg table = b.imm(0x9000);
    const FReg x = b.fimm(3.0f);
    b.regionBegin(1);
    const FReg stateVal = b.ldf(table, 0); // state read inside
    const FReg y = b.fadd(x, stateVal);
    b.regionEnd(1);
    b.stf(table, 64, y);
    const Program p = b.finish();

    RegionMemoSpec region;
    region.regionId = 1;
    region.excludeInputs.insert(table.id);
    MemoSpec spec;
    spec.regions.push_back(region);
    const TransformResult tr = MemoTransform::apply(p, spec);

    // Only x is hashed: 4 input bytes.
    ASSERT_EQ(tr.regions.size(), 1u);
    EXPECT_EQ(tr.regions[0].numInputs, 1u);
    EXPECT_EQ(tr.regions[0].inputBytes, 4u);
}

TEST(MemoTransform, TruncationAppliedFromSpec)
{
    MiniKernel kernel;
    MemoSpec spec = kernel.spec;
    spec.regions[0].truncBits = 12;
    const TransformResult tr =
        MemoTransform::apply(kernel.build(), spec);
    bool sawTrunc = false;
    for (const Inst &inst : tr.program.insts()) {
        if (inst.op == Op::LdCrc) {
            EXPECT_EQ(inst.truncBits, 12);
            sawTrunc = true;
        }
    }
    EXPECT_TRUE(sawTrunc);
}

// --------------------------------------------------- software transform

TEST(SoftwareTransform, FunctionalEquivalence)
{
    MiniKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }

    MiniKernel sw;
    SwTransformResult tr;
    std::uint64_t lookups = 0, hits = 0;
    {
        tr = SoftwareMemoTransform::apply(sw.build(), sw.spec, sw.mem);
        Simulator sim(tr.program, sw.mem, {});
        sim.run();
        for (const auto &counter : tr.counters) {
            lookups += sim.intReg(counter.lookups);
            hits += sim.intReg(counter.hits);
        }
    }

    EXPECT_EQ(base.outputs(), sw.outputs());
    EXPECT_EQ(lookups, 64u);
    EXPECT_EQ(hits, 49u); // 15 distinct keys
}

TEST(SoftwareTransform, MoreInstructionsThanHardware)
{
    MiniKernel hw;
    MiniKernel sw;
    const TransformResult hwTr =
        MemoTransform::apply(hw.build(), hw.spec);
    const SwTransformResult swTr =
        SoftwareMemoTransform::apply(sw.build(), sw.spec, sw.mem);

    SimConfig hwConfig;
    hwConfig.memoEnabled = true;
    hwConfig.memo.l1Lut.dataBytes = hwTr.dataBytes;
    Simulator hwSim(hwTr.program, hw.mem, hwConfig);
    Simulator swSim(swTr.program, sw.mem, {});
    const std::uint64_t hwUops = hwSim.run().uops;
    const std::uint64_t swUops = swSim.run().uops;
    EXPECT_GT(swUops, hwUops * 3 / 2);
}

TEST(AtmTransform, RunsAndCounts)
{
    MiniKernel kernel;
    AtmConfig config;
    config.sampleBytes = 4;
    const SwTransformResult tr =
        AtmTransform::apply(kernel.build(), kernel.spec, kernel.mem,
                            config);
    Simulator sim(tr.program, kernel.mem, {});
    sim.run();
    ASSERT_EQ(tr.counters.size(), 1u);
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 64u);
    EXPECT_GT(sim.intReg(tr.counters[0].hits), 0u);
}

TEST(SoftwareTransform, GenerationInvalidation)
{
    // An invalidate point must force fresh misses afterwards.
    SimMemory mem;
    const Addr out = mem.allocate(64);
    KernelBuilder b("gen");
    const IReg outReg = b.imm(static_cast<std::int64_t>(out));
    b.forRange(0, 3, 1, [&](IReg iter) {
        b.regionBegin(9);
        b.regionEnd(9);
        b.forRange(0, 8, 1, [&](IReg) {
            const FReg x = b.fimm(2.0f);
            b.regionBegin(1);
            const FReg y = b.fmul(x, x);
            b.regionEnd(1);
            b.stf(b.add(outReg, b.shl(iter, 2)), 0, y);
        });
    });
    const Program p = b.finish();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    spec.invalidateAt[9] = {0};
    const SwTransformResult tr =
        SoftwareMemoTransform::apply(p, spec, mem);
    Simulator sim(tr.program, mem, {});
    sim.run();
    // 24 lookups; each of 3 generations begins with one miss.
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 24u);
    EXPECT_EQ(sim.intReg(tr.counters[0].hits), 21u);
}

} // namespace
} // namespace axmemo
