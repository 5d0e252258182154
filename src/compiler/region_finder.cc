#include "compiler/region_finder.hh"

#include <algorithm>
#include <map>
#include <set>

#include "common/log.hh"

namespace axmemo {

namespace {

/** Accumulator for one signature during dedup. */
struct SignatureStats
{
    std::uint64_t count = 0;
    double ciSum = 0.0;
    double inputSum = 0.0;
    double weightSum = 0.0;
    std::int32_t region = -2; // -2 = unset, -1 = mixed/none
};

} // namespace

RegionFinder::RegionFinder(const RegionFinderConfig &config)
    : config_(config)
{
}

RegionAnalysis
RegionFinder::analyze(const Dddg &graph) const
{
    const auto &verts = graph.vertices();
    RegionAnalysis result;

    std::map<std::vector<InstIndex>, SignatureStats> bySignature;
    std::vector<char> covered(verts.size(), 0);
    double ciSumAll = 0.0;

    // Reused scratch for the BFS. Set membership is a generation stamp:
    // a slot is in the current root's set iff it holds that root's
    // epoch, so starting a new root is one increment, not a clear.
    std::vector<std::uint32_t> cone;
    std::vector<std::uint32_t> frontier;
    std::vector<InstIndex> signature;
    InstIndex maxStaticId = 0;
    for (const DddgVertex &vert : verts)
        maxStaticId = std::max(maxStaticId, vert.staticId);
    std::vector<std::uint32_t> coneStamp(verts.size(), 0);
    std::vector<std::uint32_t> boundaryStamp(verts.size(), 0);
    std::vector<std::uint32_t> staticStamp(maxStaticId + 1, 0);
    std::uint32_t epoch = 0;

    for (std::uint32_t v = 0; v < verts.size(); ++v) {
        if (verts[v].kind != VertexKind::Compute)
            continue;

        // Directed BFS on the transpose rooted at v (Section 5): grow the
        // backward cone of computational vertices.
        ++epoch;
        cone.clear();
        frontier.clear();
        cone.push_back(v);
        frontier.push_back(v);
        coneStamp[v] = epoch;
        staticStamp[verts[v].staticId] = epoch;
        bool overflow = false;

        while (!frontier.empty() && !overflow) {
            const std::uint32_t u = frontier.back();
            frontier.pop_back();
            for (std::uint32_t p : verts[u].preds) {
                if (verts[p].kind != VertexKind::Compute)
                    continue; // boundary producer -> becomes an input
                if (coneStamp[p] == epoch)
                    continue;
                // A transformable subgraph is one program block
                // executed once (Section 5): a second dynamic instance
                // of a static instruction marks a loop-carried
                // recurrence (e.g. an induction chain). Stop there —
                // the recurrence value becomes a boundary input.
                std::uint32_t &staticSeen = staticStamp[verts[p].staticId];
                if (staticSeen == epoch)
                    continue;
                if (cone.size() >= config_.maxConeVertices) {
                    overflow = true;
                    break;
                }
                coneStamp[p] = epoch;
                staticSeen = epoch;
                cone.push_back(p);
                frontier.push_back(p);
            }
        }
        if (overflow)
            continue;

        // Inputs: boundary predecessors (deduplicated) plus reads of
        // window-external values.
        unsigned boundaryInputs = 0;
        unsigned externals = 0;
        std::uint64_t weight = 0;
        for (std::uint32_t u : cone) {
            weight += verts[u].weight;
            externals += verts[u].externalInputs;
            for (std::uint32_t p : verts[u].preds) {
                // Compile-time constants are materialized inside the
                // block, not memoization inputs.
                if (coneStamp[p] != epoch && boundaryStamp[p] != epoch &&
                    verts[p].kind != VertexKind::Const) {
                    boundaryStamp[p] = epoch;
                    ++boundaryInputs;
                }
            }
        }
        const unsigned numInputs = boundaryInputs + externals;
        if (numInputs == 0 || numInputs > config_.maxInputs)
            continue;

        const double ci = static_cast<double>(weight) / numInputs;
        if (ci < config_.minCiRatio)
            continue;

        signature.clear();
        for (std::uint32_t u : cone)
            signature.push_back(verts[u].staticId);
        std::sort(signature.begin(), signature.end());
        signature.erase(std::unique(signature.begin(), signature.end()),
                        signature.end());

        // Qualifying dynamic subgraph.
        ++result.totalDynamicSubgraphs;
        ciSumAll += ci;
        for (std::uint32_t u : cone)
            covered[u] = 1;

        SignatureStats &stats = bySignature[signature];
        ++stats.count;
        stats.ciSum += ci;
        stats.inputSum += numInputs;
        stats.weightSum += static_cast<double>(weight);
        const std::int32_t region = verts[v].region;
        if (stats.region == -2)
            stats.region = region;
        else if (stats.region != region)
            stats.region = -1;
    }

    if (result.totalDynamicSubgraphs == 0)
        return result;

    result.avgCiRatio =
        ciSumAll / static_cast<double>(result.totalDynamicSubgraphs);

    // Coverage over the whole graph's weight.
    std::uint64_t coveredWeight = 0;
    for (std::uint32_t u = 0; u < verts.size(); ++u) {
        if (covered[u])
            coveredWeight += verts[u].weight;
    }
    result.coverage = graph.totalWeight()
                          ? static_cast<double>(coveredWeight) /
                                static_cast<double>(graph.totalWeight())
                          : 0.0;

    // Dedup happened via the signature map; now subset-filter: drop any
    // signature fully contained in a larger one (its instances fold into
    // the superset's uniqueness count only conceptually; the paper drops
    // them from the candidate list).
    std::vector<std::pair<std::vector<InstIndex>, SignatureStats>> sigs(
        bySignature.begin(), bySignature.end());
    std::sort(sigs.begin(), sigs.end(),
              [](const auto &a, const auto &b) {
                  return a.first.size() > b.first.size();
              });

    std::vector<bool> dropped(sigs.size(), false);
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        if (dropped[i])
            continue;
        for (std::size_t j = i + 1; j < sigs.size(); ++j) {
            if (dropped[j])
                continue;
            if (std::includes(sigs[i].first.begin(), sigs[i].first.end(),
                              sigs[j].first.begin(),
                              sigs[j].first.end()))
                dropped[j] = true;
        }
    }

    // Merge heavily-overlapping survivors into larger subgraphs.
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        if (dropped[i])
            continue;
        for (std::size_t j = i + 1; j < sigs.size(); ++j) {
            if (dropped[j])
                continue;
            std::vector<InstIndex> inter;
            std::set_intersection(
                sigs[i].first.begin(), sigs[i].first.end(),
                sigs[j].first.begin(), sigs[j].first.end(),
                std::back_inserter(inter));
            std::vector<InstIndex> uni;
            std::set_union(sigs[i].first.begin(), sigs[i].first.end(),
                           sigs[j].first.begin(), sigs[j].first.end(),
                           std::back_inserter(uni));
            const double jaccard =
                static_cast<double>(inter.size()) /
                static_cast<double>(uni.size());
            if (jaccard >= config_.mergeOverlap) {
                sigs[i].first = std::move(uni);
                sigs[i].second.count += sigs[j].second.count;
                sigs[i].second.ciSum += sigs[j].second.ciSum;
                sigs[i].second.inputSum += sigs[j].second.inputSum;
                sigs[i].second.weightSum += sigs[j].second.weightSum;
                if (sigs[i].second.region != sigs[j].second.region)
                    sigs[i].second.region = -1;
                dropped[j] = true;
            }
        }
    }

    for (std::size_t i = 0; i < sigs.size(); ++i) {
        if (dropped[i])
            continue;
        const SignatureStats &stats = sigs[i].second;
        UniqueSubgraph u;
        u.signature = sigs[i].first;
        u.dynamicCount = stats.count;
        u.ciRatio = stats.ciSum / static_cast<double>(stats.count);
        u.meanInputs = stats.inputSum / static_cast<double>(stats.count);
        u.meanWeight = stats.weightSum / static_cast<double>(stats.count);
        u.region = stats.region == -2 ? -1 : stats.region;
        result.unique.push_back(std::move(u));
    }

    std::sort(result.unique.begin(), result.unique.end(),
              [](const UniqueSubgraph &a, const UniqueSubgraph &b) {
                  return a.dynamicCount * a.meanWeight >
                         b.dynamicCount * b.meanWeight;
              });
    return result;
}

} // namespace axmemo
