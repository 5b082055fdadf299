#include "design/lp_rounding.hpp"

#include <algorithm>
#include <cmath>

#include "lp/simplex.hpp"

namespace cisp::design {

namespace {

/// A routing option for one commodity: direct fiber, or fiber-MW-fiber
/// chains using one or two candidate links.
struct PathOption {
  double effective_km = 0.0;
  std::vector<std::size_t> links;  ///< candidate indices used (0, 1, or 2)
};

}  // namespace

LpRoundingResult solve_lp_rounding(const DesignInput& input,
                                   const LpRoundingOptions& options) {
  CISP_REQUIRE(options.elimination_slack >= 1.0,
               "elimination slack below 1 would cut optimal flows");
  const auto& candidates = input.candidates();
  const std::size_t n = input.site_count();
  const std::size_t L = candidates.size();

  // Commodity selection: heaviest traffic first.
  struct Commodity {
    std::size_t s, t;
    double h;
  };
  std::vector<Commodity> commodities;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = s + 1; t < n; ++t) {
      if (input.traffic(s, t) > 0.0) {
        commodities.push_back({s, t, input.traffic(s, t)});
      }
    }
  }
  std::sort(commodities.begin(), commodities.end(),
            [](const Commodity& a, const Commodity& b) { return a.h > b.h; });
  if (options.max_commodities > 0 &&
      commodities.size() > options.max_commodities) {
    commodities.resize(options.max_commodities);
  }

  // Enumerate path options per commodity with the elimination oracle.
  const auto fiber = [&](std::size_t a, std::size_t b) {
    return a == b ? 0.0 : input.fiber_effective_km(a, b);
  };
  std::vector<std::vector<PathOption>> paths(commodities.size());
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto [s, t, h] = commodities[k];
    const double fallback = fiber(s, t);
    paths[k].push_back({fallback, {}});
    const double cutoff = options.elimination_slack * fallback;
    for (std::size_t l = 0; l < L; ++l) {
      const auto& cl = candidates[l];
      // Both orientations of the single-link chain.
      const double via_ab = fiber(s, cl.site_a) + cl.mw_km + fiber(cl.site_b, t);
      const double via_ba = fiber(s, cl.site_b) + cl.mw_km + fiber(cl.site_a, t);
      const double best = std::min(via_ab, via_ba);
      if (best <= cutoff) paths[k].push_back({best, {l}});
    }
    // Two-link chains over the surviving single links.
    const std::size_t singles = paths[k].size();
    for (std::size_t i = 1; i < singles; ++i) {
      for (std::size_t j = 1; j < singles; ++j) {
        if (i == j) continue;
        const std::size_t l1 = paths[k][i].links[0];
        const std::size_t l2 = paths[k][j].links[0];
        if (l1 >= l2) continue;  // unordered pair once
        const auto& c1 = candidates[l1];
        const auto& c2 = candidates[l2];
        double best = kInfeasible;
        for (const auto& [u1, v1] : {std::pair{c1.site_a, c1.site_b},
                                     std::pair{c1.site_b, c1.site_a}}) {
          for (const auto& [u2, v2] : {std::pair{c2.site_a, c2.site_b},
                                       std::pair{c2.site_b, c2.site_a}}) {
            best = std::min(best, fiber(s, u1) + c1.mw_km + fiber(v1, u2) +
                                      c2.mw_km + fiber(v2, t));
          }
        }
        if (best <= cutoff) paths[k].push_back({best, {l1, l2}});
      }
    }
    // Keep the tableau bounded: best 24 options by length.
    std::sort(paths[k].begin(), paths[k].end(),
              [](const PathOption& a, const PathOption& b) {
                return a.effective_km < b.effective_km;
              });
    if (paths[k].size() > 24) paths[k].resize(24);
  }

  // Variable layout: [x_0..x_{L-1} | y_{k,p} ...].
  std::vector<std::size_t> y_offset(commodities.size() + 1, L);
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    y_offset[k + 1] = y_offset[k] + paths[k].size();
  }
  const std::size_t num_vars = y_offset.back();

  lp::LinearProgram lp;
  lp.num_vars = num_vars;
  lp.objective.assign(num_vars, 0.0);
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto& [s, t, h] = commodities[k];
    for (std::size_t p = 0; p < paths[k].size(); ++p) {
      lp.objective[y_offset[k] + p] =
          h * paths[k][p].effective_km / input.geodesic_km(s, t);
    }
  }
  // sum_p y_{k,p} = 1.
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    std::vector<double> row(num_vars, 0.0);
    for (std::size_t p = 0; p < paths[k].size(); ++p) {
      row[y_offset[k] + p] = 1.0;
    }
    lp.add_equal(std::move(row), 1.0);
  }
  // y_{k,p} <= x_l for each link on the path.
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    for (std::size_t p = 0; p < paths[k].size(); ++p) {
      for (const std::size_t l : paths[k][p].links) {
        std::vector<double> row(num_vars, 0.0);
        row[y_offset[k] + p] = 1.0;
        row[l] = -1.0;
        lp.add_less_eq(std::move(row), 0.0);
      }
    }
  }
  // Budget and x <= 1.
  {
    std::vector<double> row(num_vars, 0.0);
    for (std::size_t l = 0; l < L; ++l) row[l] = candidates[l].cost_towers;
    lp.add_less_eq(std::move(row), input.budget_towers());
  }
  for (std::size_t l = 0; l < L; ++l) {
    std::vector<double> row(num_vars, 0.0);
    row[l] = 1.0;
    lp.add_less_eq(std::move(row), 1.0);
  }

  LpRoundingResult result;
  result.lp_variables = num_vars;
  result.lp_constraints = lp.constraints.size();
  const lp::Solution sol = lp::solve(lp);
  if (sol.status != lp::SolveStatus::Optimal) {
    result.solved = false;
    result.topology = StretchEvaluator::evaluate(input, {});
    return result;
  }
  result.solved = true;
  result.lp_objective = sol.objective;

  // Greedy rounding: take links by descending fractional value while the
  // budget allows.
  std::vector<std::size_t> order(L);
  for (std::size_t l = 0; l < L; ++l) order[l] = l;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sol.x[a] > sol.x[b];
  });
  std::vector<std::size_t> chosen;
  double spent = 0.0;
  for (const std::size_t l : order) {
    if (sol.x[l] < 1e-6) break;
    if (spent + candidates[l].cost_towers > input.budget_towers()) continue;
    chosen.push_back(l);
    spent += candidates[l].cost_towers;
  }
  result.topology = StretchEvaluator::evaluate(input, std::move(chosen));
  return result;
}

}  // namespace cisp::design
