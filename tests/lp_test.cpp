// Unit and property tests for src/lp: simplex on known LPs, degenerate and
// infeasible/unbounded cases, and randomized verification against
// brute-force vertex enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::lp {
namespace {

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};  // minimize the negation
  lp.add_less_eq({1.0, 0.0}, 4.0);
  lp.add_less_eq({0.0, 2.0}, 12.0);
  lp.add_less_eq({3.0, 2.0}, 18.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
}

TEST(Simplex, GreaterEqAndEqualityConstraints) {
  // min x + 2y st x + y = 10, x >= 3  => x=10? No: y >= 0, so x=10,y=0
  // would violate x>=3? It satisfies it. obj = 10. But x + 2y with y=0 and
  // x=10 -> 10; alternative x=3,y=7 -> 17. Optimal: x=10.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 2.0};
  lp.add_equal({1.0, 1.0}, 10.0);
  lp.add_greater_eq({1.0, 0.0}, 3.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 10.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.add_less_eq({1.0}, 1.0);
  lp.add_greater_eq({1.0}, 2.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};  // maximize x with no upper bound
  lp.add_greater_eq({1.0}, 0.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x <= -5  <=>  x >= 5.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.add_less_eq({-1.0}, -5.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -1.0};
  lp.add_less_eq({1.0, 0.0}, 1.0);
  lp.add_less_eq({0.0, 1.0}, 1.0);
  lp.add_less_eq({1.0, 1.0}, 2.0);  // redundant at the optimum
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2 plants (supply 20, 30) x 2 markets (demand 25, 25); costs
  // [[2,3],[4,1]]. Optimal: x11=20, x21=5, x22=25 -> 40+20+25 = 85.
  LinearProgram lp;
  lp.num_vars = 4;  // x11 x12 x21 x22
  lp.objective = {2.0, 3.0, 4.0, 1.0};
  lp.add_less_eq({1.0, 1.0, 0.0, 0.0}, 20.0);
  lp.add_less_eq({0.0, 0.0, 1.0, 1.0}, 30.0);
  lp.add_equal({1.0, 0.0, 1.0, 0.0}, 25.0);
  lp.add_equal({0.0, 1.0, 0.0, 1.0}, 25.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 85.0, 1e-6);
}

/// Brute force over constraint-intersection vertices for 2-variable LPs.
double brute_force_2d(const LinearProgram& lp) {
  std::vector<std::pair<double, double>> candidates = {{0.0, 0.0}};
  // Intersections of all constraint boundary pairs (incl. axes).
  std::vector<std::array<double, 3>> lines;  // a x + b y = c
  for (const auto& cons : lp.constraints) {
    lines.push_back({cons.coeffs[0], cons.coeffs[1], cons.rhs});
  }
  lines.push_back({1.0, 0.0, 0.0});
  lines.push_back({0.0, 1.0, 0.0});
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1];
      if (std::fabs(det) < 1e-9) continue;
      const double x = (lines[i][2] * lines[j][1] - lines[j][2] * lines[i][1]) / det;
      const double y = (lines[i][0] * lines[j][2] - lines[j][0] * lines[i][2]) / det;
      candidates.push_back({x, y});
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [x, y] : candidates) {
    if (x < -1e-9 || y < -1e-9) continue;
    bool feasible = true;
    for (const auto& cons : lp.constraints) {
      const double lhs = cons.coeffs[0] * x + cons.coeffs[1] * y;
      if (cons.sense == Sense::LessEq && lhs > cons.rhs + 1e-7) feasible = false;
      if (cons.sense == Sense::GreaterEq && lhs < cons.rhs - 1e-7) feasible = false;
      if (cons.sense == Sense::Equal && std::fabs(lhs - cons.rhs) > 1e-7)
        feasible = false;
    }
    if (feasible) {
      best = std::min(best, lp.objective[0] * x + lp.objective[1] * y);
    }
  }
  return best;
}

TEST(Simplex, RandomTwoVarLpsMatchBruteForceProperty) {
  Rng rng(61);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LinearProgram lp;
    lp.num_vars = 2;
    lp.objective = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const int n_cons = 2 + static_cast<int>(rng.uniform_index(4));
    for (int c = 0; c < n_cons; ++c) {
      // Only <= with positive coefficients + a box keeps things bounded.
      lp.add_less_eq({rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)},
                     rng.uniform(1.0, 20.0));
    }
    lp.add_less_eq({1.0, 0.0}, 50.0);
    lp.add_less_eq({0.0, 1.0}, 50.0);
    const auto sol = solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    const double reference = brute_force_2d(lp);
    EXPECT_NEAR(sol.objective, reference, 1e-6);
    ++solved;
  }
  EXPECT_EQ(solved, 200);
}

}  // namespace
}  // namespace cisp::lp
