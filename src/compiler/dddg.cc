#include "compiler/dddg.hh"

#include <limits>

#include "isa/op_traits.hh"

namespace axmemo {

VertexKind
vertexKindOf(Op op)
{
    switch (op) {
      case Op::Ld:
      case Op::Ldf:
      case Op::LdCrc:
        return VertexKind::Load;
      case Op::Movi:
      case Op::Fmovi:
        return VertexKind::Const;
      case Op::St:
      case Op::Stf:
        return VertexKind::Store;
      case Op::Br:
      case Op::Bt:
      case Op::Bf:
      case Op::BrHit:
      case Op::BrMiss:
      case Op::Halt:
        return VertexKind::Control;
      case Op::RegionBegin:
      case Op::RegionEnd:
        return VertexKind::Marker;
      default:
        return VertexKind::Compute;
    }
}

Dddg::Dddg(const Program &prog, const std::vector<TraceEntry> &trace)
{
    vertices_.reserve(trace.size());

    // Last dynamic writer of each register, indexed by the 16-bit RegId.
    constexpr std::uint32_t noWriter =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> lastWriter(
        std::size_t{std::numeric_limits<RegId>::max()} + 1, noWriter);
    std::int32_t activeRegion = -1;

    for (const TraceEntry &entry : trace) {
        const Inst &inst = prog.at(entry.staticId);

        if (inst.op == Op::RegionBegin) {
            activeRegion = static_cast<std::int32_t>(inst.imm);
            continue;
        }
        if (inst.op == Op::RegionEnd) {
            activeRegion = -1;
            continue;
        }

        DddgVertex v;
        v.staticId = entry.staticId;
        v.op = inst.op;
        v.kind = vertexKindOf(inst.op);
        v.weight = static_cast<std::uint16_t>(
            std::max<Cycle>(1, opTraits(inst.op).latency));
        v.region = activeRegion;

        const auto id = static_cast<std::uint32_t>(vertices_.size());
        const OperandInfo ops = operandsOf(inst);
        for (unsigned k = 0; k < ops.numSources; ++k) {
            const std::uint32_t writer = lastWriter[ops.sources[k]];
            if (writer == noWriter)
                ++v.externalInputs;
            else
                v.preds.push_back(writer);
        }
        if (ops.dest != invalidReg)
            lastWriter[ops.dest] = id;

        totalWeight_ += v.weight;
        vertices_.push_back(v);
    }
}

} // namespace axmemo
