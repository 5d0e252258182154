/**
 * @file
 * Simulator tests: functional semantics of every opcode class, control
 * flow, memory access, and the in-order timing model's properties
 * (dual issue, dependence stalls, structural hazards, branch
 * mispredictions, cache latency).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "compiler/transform.hh"
#include "isa/blocks.hh"
#include "isa/builder.hh"
#include "memsys/sim_memory.hh"
#include "sim/branch_predictor.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace {

/** Run a freshly-built program and return the simulator for readouts. */
struct Ran
{
    SimMemory mem;
    std::unique_ptr<Simulator> sim;
    explicit Ran(Program prog, SimConfig config = {})
        : prog_(std::move(prog))
    {
        sim = std::make_unique<Simulator>(prog_, mem, config);
        sim->run();
    }

  private:
    Program prog_;
};

TEST(SimFunctional, IntegerArithmetic)
{
    KernelBuilder b("int");
    const IReg a = b.imm(20);
    const IReg c = b.imm(-6);
    const IReg sum = b.add(a, c);
    const IReg diff = b.sub(a, c);
    const IReg prod = b.mul(a, c);
    const IReg quot = b.div(a, c);
    const IReg rem = b.rem(a, c);
    const IReg mn = b.imin(a, c);
    const IReg mx = b.imax(a, c);
    Ran r(b.finish());
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(sum)), 14);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(diff)), 26);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(prod)), -120);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(quot)), -3);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(rem)), 2);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(mn)), -6);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(mx)), 20);
}

TEST(SimFunctional, DivisionByZeroIsDefined)
{
    KernelBuilder b("div0");
    const IReg a = b.imm(7);
    const IReg z = b.imm(0);
    const IReg q = b.div(a, z);
    const IReg m = b.rem(a, z);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(q), 0u);
    EXPECT_EQ(r.sim->intReg(m), 7u);
}

TEST(SimFunctional, LogicAndShifts)
{
    KernelBuilder b("logic");
    const IReg a = b.imm(0xf0f0);
    const IReg andv = b.band(a, 0xff00);
    const IReg orv = b.bor(a, b.imm(0x000f));
    const IReg xorv = b.bxor(a, 0xffff);
    const IReg shlv = b.shl(a, 4);
    const IReg shrv = b.shr(a, 4);
    const IReg neg = b.imm(-16);
    const IReg srav = b.sra(neg, 2);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(andv), 0xf000u);
    EXPECT_EQ(r.sim->intReg(orv), 0xf0ffu);
    EXPECT_EQ(r.sim->intReg(xorv), 0x0f0fu);
    EXPECT_EQ(r.sim->intReg(shlv), 0xf0f00u);
    EXPECT_EQ(r.sim->intReg(shrv), 0xf0fu);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(srav)), -4);
}

TEST(SimFunctional, Comparisons)
{
    KernelBuilder b("cmp");
    const IReg a = b.imm(-3);
    const IReg c = b.imm(5);
    const IReg lt = b.slt(a, c);
    const IReg le = b.sle(c, c);
    const IReg eq = b.seq(a, c);
    const IReg ne = b.sne(a, c);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(lt), 1u);
    EXPECT_EQ(r.sim->intReg(le), 1u);
    EXPECT_EQ(r.sim->intReg(eq), 0u);
    EXPECT_EQ(r.sim->intReg(ne), 1u);
}

TEST(SimFunctional, FloatArithmetic)
{
    KernelBuilder b("fp");
    const FReg x = b.fimm(2.0f);
    const FReg y = b.fimm(-0.5f);
    const FReg add = b.fadd(x, y);
    const FReg mul = b.fmul(x, y);
    const FReg div = b.fdiv(x, y);
    const FReg sq = b.fsqrt(x);
    const FReg ab = b.fabs(y);
    const FReg ng = b.fneg(y);
    const FReg mn = b.fmin(x, y);
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(add), 1.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(mul), -1.0f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(div), -4.0f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(sq), std::sqrt(2.0f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(ab), 0.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(ng), 0.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(mn), -0.5f);
}

TEST(SimFunctional, Intrinsics)
{
    KernelBuilder b("intrinsics");
    const FReg x = b.fimm(0.5f);
    const FReg e = b.fexp(x);
    const FReg l = b.flog(x);
    const FReg s = b.fsin(x);
    const FReg c = b.fcos(x);
    const FReg a2 = b.fatan2(x, b.fimm(1.0f));
    const FReg ac = b.facos(x);
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(e), std::exp(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(l), std::log(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(s), std::sin(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(c), std::cos(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(a2), std::atan2(0.5f, 1.0f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(ac), std::acos(0.5f));
}

TEST(SimFunctional, Conversions)
{
    KernelBuilder b("cvt");
    const FReg f = b.itof(b.imm(-7));
    const IReg i = b.ftoi(b.fimm(3.9f));
    const IReg bits = b.fbits(b.fimm(1.0f));
    const FReg back = b.bitsf(b.imm(0x40000000)); // 2.0f
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(f), -7.0f);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(i)), 3);
    EXPECT_EQ(r.sim->intReg(bits), 0x3f800000u);
    EXPECT_FLOAT_EQ(r.sim->floatReg(back), 2.0f);
}

TEST(SimFunctional, LoadStore)
{
    SimMemory mem;
    mem.write32(0x1000, 0xcafebabe);
    KernelBuilder b("mem");
    const IReg base = b.imm(0x1000);
    const IReg loaded = b.ld(base, 0, 4);
    b.st(base, 8, b.imm(0x1234), 2);
    const FReg pi = b.fimm(3.14f);
    b.stf(base, 16, pi);
    const FReg backf = b.ldf(base, 16);
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    sim.run();
    EXPECT_EQ(sim.intReg(loaded), 0xcafebabeu);
    EXPECT_EQ(mem.read(0x1008, 2), 0x1234u);
    EXPECT_FLOAT_EQ(sim.floatReg(backf), 3.14f);
    EXPECT_EQ(sim.stats().loads, 2u);
    EXPECT_EQ(sim.stats().stores, 2u);
}

TEST(SimFunctional, ForRangeLoop)
{
    KernelBuilder b("loop");
    const IReg sum = b.imm(0);
    b.forRange(0, 10, 1, [&](IReg i) { b.addTo(sum, sum, i); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(sum), 45u);
}

TEST(SimFunctional, ForRangeNegativeStep)
{
    KernelBuilder b("loop");
    const IReg count = b.imm(0);
    b.forRange(5, 0, -1, [&](IReg) { b.addTo(count, count, 1); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(count), 5u);
}

TEST(SimFunctional, IfThenElse)
{
    KernelBuilder b("if");
    const IReg out = b.newIReg();
    b.ifThenElse(b.imm(0), [&] { b.assign(out, 1); },
                 [&] { b.assign(out, 2); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(out), 2u);
}

TEST(SimFunctional, NestedLoops)
{
    KernelBuilder b("nest");
    const IReg n = b.imm(0);
    b.forRange(0, 6, 1, [&](IReg) {
        b.forRange(0, 7, 1, [&](IReg) { b.addTo(n, n, 1); });
    });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(n), 42u);
}

TEST(SimFunctional, TraceHookSeesEveryInstruction)
{
    KernelBuilder b("trace");
    b.forRange(0, 3, 1, [&](IReg) { b.imm(1); });
    SimMemory mem;
    const Program p = b.finish();
    TraceBuffer trace;
    Simulator sim(p, mem, {});
    sim.setTraceBuffer(&trace);
    const SimStats &stats = sim.run();
    EXPECT_EQ(trace.entries().size(), stats.macroInsts);
    EXPECT_EQ(trace.observed(), stats.macroInsts);
}

TEST(SimFunctional, RunawayLoopGuard)
{
    KernelBuilder b("spin");
    const Label head = b.newLabel();
    b.bind(head);
    b.imm(1);
    b.br(head);
    const Program p = b.finish();
    SimMemory mem;
    SimConfig config;
    config.maxMacroInsts = 1000;
    Simulator sim(p, mem, config);
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimFunctional, MemoOpWithoutUnitPanics)
{
    KernelBuilder b("bad");
    b.lookup(0);
    const Program p = b.finish();
    SimMemory mem;
    Simulator sim(p, mem, {}); // memoEnabled = false
    EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SimFunctional, RunTwicePanics)
{
    KernelBuilder b("t");
    b.imm(1);
    const Program p = b.finish();
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.run();
    EXPECT_THROW(sim.run(), std::logic_error);
}

// --------------------------------------------------------------- timing

Cycle
cyclesOf(Program prog)
{
    SimMemory mem;
    Simulator sim(prog, mem, {});
    return sim.run().cycles;
}

TEST(SimTiming, DualIssuePairsIndependentOps)
{
    // 40 independent movi: 2-wide front end needs ~20 cycles.
    KernelBuilder b("ilp");
    for (int i = 0; i < 40; ++i)
        b.imm(i);
    const Cycle parallel = cyclesOf(b.finish());
    EXPECT_LE(parallel, 24u);
    EXPECT_GE(parallel, 20u);
}

TEST(SimTiming, DependenceChainSerializes)
{
    // 40 dependent adds: one per cycle minimum regardless of width.
    KernelBuilder b("chain");
    IReg acc = b.imm(0);
    for (int i = 0; i < 40; ++i)
        acc = b.add(acc, 1);
    EXPECT_GE(cyclesOf(b.finish()), 40u);
}

TEST(SimTiming, UnpipelinedDividerBlocks)
{
    KernelBuilder b("divs");
    const IReg a = b.imm(100);
    const IReg c = b.imm(3);
    for (int i = 0; i < 4; ++i)
        b.div(a, c); // independent, but one divider
    const Cycle serial = cyclesOf(b.finish());
    EXPECT_GE(serial, 4 * opTraits(Op::Div).latency);
}

TEST(SimTiming, PipelinedFpOverlaps)
{
    KernelBuilder b("fps");
    const FReg x = b.fimm(1.5f);
    for (int i = 0; i < 16; ++i)
        b.fmul(x, x); // independent, pipelined unit
    // 16 muls at 1/cycle + drain beats 16 x 4-cycle serial.
    EXPECT_LT(cyclesOf(b.finish()), 16u * opTraits(Op::Fmul).latency);
}

TEST(SimTiming, MispredictsCostCycles)
{
    // A data-dependent alternating branch mispredicts often; a
    // monotone loop branch predicts well.
    KernelBuilder b("alt");
    const IReg flip = b.imm(0);
    const IReg sink = b.imm(0);
    b.forRange(0, 200, 1, [&](IReg) {
        b.assign(flip, b.bxor(flip, 1));
        b.ifThen(flip, [&] { b.addTo(sink, sink, 1); });
    });
    SimMemory mem;
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    const SimStats &stats = sim.run();
    EXPECT_GT(stats.mispredicts, 50u);
    EXPECT_LT(stats.mispredicts, stats.branches);
}

TEST(SimTiming, ColdMissSlowerThanWarm)
{
    // Sum an array N times: the first pass pays the cold misses, so the
    // second pass's incremental cycles are far fewer.
    auto passCycles = [](int passes) {
        KernelBuilder b("sum");
        const IReg base = b.imm(0x8000);
        const IReg sum = b.imm(0);
        for (int pass = 0; pass < passes; ++pass) {
            b.forRange(0, 256, 1, [&](IReg i) {
                const IReg v = b.ld(b.add(base, b.shl(i, 2)), 0, 4);
                b.addTo(sum, sum, v);
            });
        }
        SimMemory mem;
        for (unsigned i = 0; i < 256; ++i)
            mem.write32(0x8000 + 4 * i, i);
        const Program prog = b.finish();
        Simulator sim(prog, mem, {});
        return sim.run().cycles;
    };
    const Cycle one = passCycles(1);
    const Cycle two = passCycles(2);
    EXPECT_LT(two - one, one);
}

TEST(BranchPredictorUnit, LearnsBias)
{
    BranchPredictor bp(64);
    for (int i = 0; i < 100; ++i)
        bp.predict(5, true);
    EXPECT_LT(bp.mispredicts(), 3u);
}

TEST(BranchPredictorUnit, AliasesByIndexBits)
{
    BranchPredictor bp(64);
    // pc 0 and pc 64 share a counter.
    bp.predict(0, true);
    bp.predict(0, true);
    EXPECT_TRUE(bp.predict(64, true));
}

TEST(SimTiming, StatsAddUp)
{
    KernelBuilder b("stats");
    const FReg x = b.fimm(2.0f);
    b.fexp(x);
    b.imm(1);
    SimMemory mem;
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    const SimStats &stats = sim.run();
    // 4 macro insts (fmovi, fexp, movi, halt); fexp expands.
    EXPECT_EQ(stats.macroInsts, 4u);
    EXPECT_EQ(stats.uops, 3u + opTraits(Op::Fexp).uops);
    EXPECT_EQ(stats.events.get("frontend_uops"), stats.uops);
}

/**
 * The interpreter charges macro-instruction, µop, memo-µop and
 * µop-class event counts once per basic block (DESIGN.md §10).
 * Recounting them one retired instruction at a time from the trace is
 * the reference those block sums must reproduce exactly, on every
 * workload both as built and after the AxMemo transform.
 */
TEST(SimStats, BlockCountersMatchPerInstructionRecount)
{
    // @return the memo µops the run retired.
    const auto check = [](const Program &prog, SimMemory &mem,
                          const SimConfig &config) -> std::uint64_t {
        TraceBuffer trace(std::numeric_limits<std::size_t>::max());
        Simulator sim(prog, mem, config);
        sim.setTraceBuffer(&trace);
        const SimStats &stats = sim.run();
        EXPECT_FALSE(trace.truncated());

        std::uint64_t macroInsts = 0;
        std::uint64_t uops = 0;
        std::uint64_t memoUops = 0;
        std::array<std::uint64_t, numUopEvents> events{};
        for (const TraceEntry &entry : trace.entries()) {
            const Inst &inst = prog.at(entry.staticId);
            if (inst.op == Op::RegionBegin || inst.op == Op::RegionEnd)
                continue; // markers retire but cost nothing
            const OpTraits &traits = opTraits(inst.op);
            const std::uint64_t n = std::max(1u, traits.uops);
            ++macroInsts;
            uops += n;
            if (inst.isMemoOp() && inst.op != Op::LdCrc)
                memoUops += n;
            events[static_cast<std::size_t>(Ev::FrontendUops)] += n;
            const Ev ev = uopEventOf(traits.energy);
            if (ev != Ev::NumEvents)
                events[static_cast<std::size_t>(ev)] += n;
        }

        EXPECT_GT(macroInsts, 0u);
        EXPECT_EQ(stats.macroInsts, macroInsts);
        EXPECT_EQ(stats.uops, uops);
        EXPECT_EQ(stats.memoUops, memoUops);
        for (std::size_t i = 0; i < numUopEvents; ++i) {
            const char *name = eventName(static_cast<Ev>(i));
            EXPECT_EQ(stats.events.get(name), events[i]) << name;
        }
        return memoUops;
    };

    WorkloadParams params;
    params.scale = 0.01;
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        const auto workload = makeWorkload(name);
        {
            SimMemory mem;
            workload->prepare(mem, params);
            const Program prog = workload->build();
            EXPECT_EQ(check(prog, mem, {}), 0u);
        }
        SimMemory mem;
        workload->prepare(mem, params);
        const TransformResult tr =
            MemoTransform::apply(workload->build(), workload->memoSpec());
        SimConfig config;
        config.memoEnabled = true;
        config.memo.l1Lut.dataBytes = tr.dataBytes;
        EXPECT_GT(check(tr.program, mem, config), 0u);
    }
}

} // namespace
} // namespace axmemo
