/**
 * @file
 * Basic-block partitioning of an AxIR program, with the per-block
 * static sums the simulator's block counting adds on block entry
 * (DESIGN.md §10).
 *
 * A block is a maximal straight-line run: leaders are instruction 0,
 * every branch target, and every instruction after a branch or Halt;
 * the terminator is the first branch/Halt at or after the leader (or
 * the last instruction). Because AxIR control transfers only target
 * leaders, execution that enters a block always runs it leader to
 * terminator — so any *static* per-instruction accounting can be
 * summed once per block instead of once per instruction. The
 * aggregates here are the interpreter's only source for those static
 * counters: macro-instruction and µop totals, the memo-µop subset, and
 * the per-event-class µop deltas that feed EventCounters::addRange()
 * (the per-instruction recount that cross-checks them lives in
 * test_sim). Region markers execute inside blocks but are excluded
 * from the aggregates, mirroring the interpreter's marker shortcut.
 * Dynamic quantities (mispredicts, queue stalls, latencies, loads on
 * this path vs that) are untouched — block counting covers associative
 * counters only, never timing.
 */

#ifndef AXMEMO_ISA_BLOCKS_HH
#define AXMEMO_ISA_BLOCKS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/events.hh"
#include "isa/op_traits.hh"
#include "isa/program.hh"

namespace axmemo {

/** EnergyClass -> µop event id (NumEvents = "charge nothing"). */
constexpr Ev
uopEventOf(EnergyClass cls)
{
    constexpr Ev map[] = {
        Ev::UopIntAlu,   // EnergyClass::IntAlu
        Ev::UopIntMul,   // EnergyClass::IntMul
        Ev::UopIntDiv,   // EnergyClass::IntDiv
        Ev::UopFpSimple, // EnergyClass::FpSimple
        Ev::UopFpMul,    // EnergyClass::FpMul
        Ev::UopFpDiv,    // EnergyClass::FpDiv
        Ev::UopFpLong,   // EnergyClass::FpLong
        Ev::UopMem,      // EnergyClass::Mem
        Ev::UopBranch,   // EnergyClass::Branch
        Ev::UopMemo,     // EnergyClass::Memo
        Ev::NumEvents,   // EnergyClass::None
    };
    return map[static_cast<std::size_t>(cls)];
}

/** One straight-line run with its static per-execution costs. */
struct BasicBlock
{
    /** [begin, end): leader through terminator, inclusive. */
    InstIndex begin = 0;
    InstIndex end = 0;

    /** Non-marker instructions executed per pass through the block. */
    std::uint64_t macroInsts = 0;
    /** Total µops (max(1, traits.uops) per non-marker instruction). */
    std::uint64_t uops = 0;
    /** µops of memo-counted instructions (memo ops except ld_crc). */
    std::uint64_t memoUops = 0;
    /** Per-event µop deltas for the front-end/µop-class prefix of Ev
     * (index 0 = FrontendUops); EventCounters::addRange() operand. */
    std::array<std::uint64_t, numUopEvents> uopEvents{};

    InstIndex length() const { return end - begin; }
};

/** A program's block decomposition. */
struct BlockMap
{
    std::vector<BasicBlock> blocks;
    /** Static instruction index -> index into blocks. */
    std::vector<std::uint32_t> blockOf;

    /** The block led by @p leader (valid for any leader pc). */
    const BasicBlock &at(InstIndex leader) const
    {
        return blocks[blockOf[static_cast<std::size_t>(leader)]];
    }
};

/** Partition @p prog into basic blocks with static aggregates. The
 * program should already be verified (in-range branch targets). */
BlockMap partitionBlocks(const Program &prog);

} // namespace axmemo

#endif // AXMEMO_ISA_BLOCKS_HH
