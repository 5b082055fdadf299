#pragma once
// Dense two-phase primal simplex. Substitutes for the Gurobi LP engine in
// the paper's Step 2 (§3.2): solves the flow-LP relaxation used by the
// LP-rounding baseline, and the TE split LP (net/te/split).
//
// Scope: problems up to a few thousand variables/constraints, which covers
// the paper's small-instance regime (the paper itself reports that exact
// solvers stop scaling around 50 cities — reproducing that wall is part of
// Fig. 2).

#include <cstddef>
#include <vector>

namespace cisp::lp {

enum class Sense { LessEq, GreaterEq, Equal };

struct Constraint {
  std::vector<double> coeffs;  ///< dense, size = num_vars
  Sense sense = Sense::LessEq;
  double rhs = 0.0;
};

/// minimize objective . x   subject to   constraints, x >= 0.
struct LinearProgram {
  std::size_t num_vars = 0;
  std::vector<double> objective;
  std::vector<Constraint> constraints;

  /// Convenience builders.
  void add_less_eq(std::vector<double> coeffs, double rhs);
  void add_greater_eq(std::vector<double> coeffs, double rhs);
  void add_equal(std::vector<double> coeffs, double rhs);
};

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;
};

struct SimplexOptions {
  std::size_t max_iterations = 200000;
  double tolerance = 1e-9;
};

/// Solves the LP with two-phase primal simplex (Dantzig pricing with a
/// Bland fallback for anti-cycling).
[[nodiscard]] Solution solve(const LinearProgram& lp,
                             const SimplexOptions& options = {});

}  // namespace cisp::lp
