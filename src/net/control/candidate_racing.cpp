#include "net/control/candidate_racing.hpp"

#include <algorithm>
#include <limits>

#include "graph/dijkstra.hpp"
#include "util/rng.hpp"

namespace cisp::net::control {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

void tally(RacingReport& report) {
  for (const RaceOutcome& out : report.outcomes) {
    switch (out.winner) {
      case RaceWinner::Microwave:
        ++report.mw_winners;
        break;
      case RaceWinner::Fiber:
        ++report.fiber_winners;
        break;
      case RaceWinner::None:
        ++report.failed_pairs;
        break;
    }
  }
}

}  // namespace

const char* to_string(RaceWinner winner) {
  switch (winner) {
    case RaceWinner::Microwave:
      return "microwave";
    case RaceWinner::Fiber:
      return "fiber";
    case RaceWinner::None:
      return "none";
  }
  return "unknown";
}

MultipathRouteSet RacingReport::route_set() const {
  MultipathRouteSet set;
  set.pair_paths.reserve(outcomes.size());
  for (const RaceOutcome& out : outcomes) set.push_single(out.path);
  return set;
}

CandidateRacer::CandidateRacer(const RouteRepairer& repairer)
    : repairer_(&repairer) {
  const SimTopologyView& view = repairer.view();
  const graphs::Graph& graph = view.latency_graph;
  const std::vector<TrafficDemand>& demands = repairer.demands();
  edge_is_mw_.resize(graph.edge_count());
  for (std::size_t eid = 0; eid < edge_is_mw_.size(); ++eid) {
    edge_is_mw_[eid] = repairer.plan().links[view.edge_to_link[eid] / 2].is_mw;
  }

  // Fiber fallbacks: one masked Dijkstra per distinct source, arcs
  // pinned from the tree — the fallback must stay on fiber even where a
  // parallel MW arc is cheaper.
  const graphs::EdgeMask fiber_only = [this](graphs::EdgeId eid) {
    return edge_is_mw_[eid] == 0;
  };
  std::vector<graphs::NodeId> sources;
  std::vector<std::size_t> tree_of(demands.size(), 0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    const graphs::NodeId src = demands[f].src;
    const auto it = std::find(sources.begin(), sources.end(), src);
    if (it == sources.end()) {
      tree_of[f] = sources.size();
      sources.push_back(src);
    } else {
      tree_of[f] = static_cast<std::size_t>(it - sources.begin());
    }
  }
  std::vector<graphs::ShortestPathTree> trees(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    trees[s] = graphs::dijkstra(graph, sources[s], fiber_only);
  }
  fiber_paths_.reserve(demands.size());
  for (std::size_t f = 0; f < demands.size(); ++f) {
    fiber_paths_.push_back(graphs::extract_pinned_path(
        graph, trees[tree_of[f]], demands[f].dst));
  }
}

RaceOutcome CandidateRacer::race_pair(std::size_t pair) const {
  RaceOutcome out;
  const PairRoute& mw = repairer_->routes()[pair];
  const bool has_mw = !mw.denied && !mw.path.empty();

  // MW handshake success probability: the worst capacity factor along
  // the route's MW hops (the weakest link delivers — or drops — the
  // handshake). Fiber hops of a mixed route never fail.
  double mw_success = 1.0;
  if (has_mw) {
    const SimTopologyView& view = repairer_->view();
    const std::vector<double>& factors = repairer_->capacity_factors();
    for (const graphs::EdgeId eid :
         net::path_edges(view.latency_graph, mw.path)) {
      if (!edge_is_mw_[eid]) continue;
      mw_success = std::min(factors[view.edge_to_link[eid] / 2], mw_success);
    }
  }

  // One Rng per pair: outcomes never depend on which shard raced the
  // pair, and only the MW candidate consumes draws.
  Rng rng(hash_combine(0, pair));
  double mw_done_s = kNever;
  if (has_mw) {
    for (std::uint32_t attempt = 0; attempt < kRaceMaxAttempts; ++attempt) {
      ++out.mw_attempts;
      if (rng.chance(mw_success)) {
        mw_done_s =
            static_cast<double>(attempt) * kRaceRetryS + 2.0 * mw.latency_s;
        break;
      }
    }
  }
  const graphs::Path& fiber = fiber_paths_[pair];
  double fiber_done_s = kNever;
  if (!fiber.empty()) {
    // Fiber never degrades: its first (staggered) attempt completes.
    out.fiber_attempts = 1;
    fiber_done_s = kRaceStaggerS + 2.0 * fiber.length;
  }

  if (mw_done_s <= fiber_done_s && mw_done_s < kNever) {
    out.winner = RaceWinner::Microwave;
    out.path = mw.path;
    out.decision_s = mw_done_s;
  } else if (fiber_done_s < kNever) {
    out.winner = RaceWinner::Fiber;
    out.path = fiber;
    out.decision_s = fiber_done_s;
  }
  return out;
}

RacingReport CandidateRacer::race() const {
  const std::vector<PairRoute>& routes = repairer_->routes();
  RacingReport report;
  report.outcomes.resize(routes.size());
  repairer_->parallel_for(routes.size(), [&](std::size_t f) {
    report.outcomes[f] = race_pair(f);
  });
  for (std::size_t f = 0; f < routes.size(); ++f) {
    if ((routes[f].denied || routes[f].path.empty()) &&
        report.outcomes[f].winner == RaceWinner::Fiber) {
      ++report.recovered_pairs;
    }
  }
  tally(report);
  return report;
}

}  // namespace cisp::net::control
