/**
 * @file
 * Dynamic Data Dependence Graph — the reproduction's ALADDIN (step 2 of
 * Fig. 5).
 *
 * Vertices are dynamic instruction instances from a trace window; a
 * directed edge v -> w means w consumed the register value v produced.
 * Edges are stored only on the consumer, as w's inline `preds` list (one
 * entry per register source read, so a value read twice appears twice);
 * the candidate search walks the transpose and never needs successors.
 * Each vertex is weighted by its estimated latency (Section 5). Register
 * reads with no producer inside the window are *external inputs*; loads and
 * constants are boundary producers (their values come from outside the
 * candidate computation).
 */

#ifndef AXMEMO_COMPILER_DDDG_HH
#define AXMEMO_COMPILER_DDDG_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "compiler/trace.hh"
#include "isa/program.hh"

namespace axmemo {

/** Role a vertex can play in candidate formation. */
enum class VertexKind : std::uint8_t
{
    Compute, ///< eligible for inclusion in a candidate subgraph
    Load,    ///< boundary producer (value enters from memory)
    Const,   ///< boundary producer (immediate)
    Store,   ///< side effect; never inside a candidate
    Control, ///< branch; never inside a candidate
    Marker   ///< region begin/end
};

/** Producers of one vertex's register sources, stored inline. */
struct PredList
{
    static constexpr unsigned capacity = 3;

    std::uint32_t ids[capacity] = {};
    std::uint8_t count = 0;

    std::size_t size() const { return count; }
    std::uint32_t operator[](std::size_t i) const { return ids[i]; }
    const std::uint32_t *begin() const { return ids; }
    const std::uint32_t *end() const { return ids + count; }
    void push_back(std::uint32_t id) { ids[count++] = id; }
};

static_assert(PredList::capacity ==
                  std::extent_v<decltype(OperandInfo::sources)>,
              "one pred slot per possible register source");

/** One dynamic vertex. */
struct DddgVertex
{
    InstIndex staticId = 0;
    Op op = Op::Halt;
    VertexKind kind = VertexKind::Compute;
    /** Estimated latency (vertex weight of Equation 1). */
    std::uint16_t weight = 1;
    /** Hinted region id active when this instance executed; -1 if none. */
    std::int32_t region = -1;
    /** Register operands read with no producer in the window. */
    std::uint8_t externalInputs = 0;

    PredList preds;
};

/** The dynamic data dependence graph of one trace window. */
class Dddg
{
  public:
    /** Build from @p prog and a trace recorded while running it. */
    Dddg(const Program &prog, const std::vector<TraceEntry> &trace);

    const std::vector<DddgVertex> &vertices() const { return vertices_; }
    std::size_t size() const { return vertices_.size(); }

    /** Sum of all vertex weights (coverage denominator). */
    std::uint64_t totalWeight() const { return totalWeight_; }

  private:
    std::vector<DddgVertex> vertices_;
    std::uint64_t totalWeight_ = 0;
};

/** @return the candidate-formation role of @p op. */
VertexKind vertexKindOf(Op op);

} // namespace axmemo

#endif // AXMEMO_COMPILER_DDDG_HH
