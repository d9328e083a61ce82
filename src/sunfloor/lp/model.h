// Linear-program model builder.
//
// The paper solves the switch-position problem of Section VII with the
// external lp_solve package; we carry our own solver. This header is the
// problem description: variables (all constrained to be >= 0, which is what
// the placement formulation needs), linear constraints with <=, =, or >=
// relations, and a linear objective to minimize.
#pragma once

#include <utility>
#include <vector>

namespace sunfloor {

enum class Relation { LessEq, Equal, GreaterEq };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpResult {
    LpStatus status = LpStatus::IterationLimit;
    double objective = 0.0;
    std::vector<double> x;  ///< value per variable, valid when Optimal
    int iterations = 0;     ///< simplex pivots over both phases
};

/// A linear program: minimize c^T x subject to the stored constraints and
/// x >= 0 elementwise.
class LpProblem {
  public:
    /// Add a variable with the given objective coefficient. Returns its id.
    int add_variable(double objective_coeff);

    /// Add a constraint sum(coeff_i * x_i) REL rhs. Terms may repeat a
    /// variable; coefficients are summed.
    void add_constraint(std::vector<std::pair<int, double>> terms,
                        Relation rel, double rhs);

    int num_variables() const { return static_cast<int>(obj_.size()); }
    int num_constraints() const { return static_cast<int>(rows_.size()); }

    const std::vector<double>& objective() const { return obj_; }

    struct Row {
        std::vector<std::pair<int, double>> terms;
        Relation rel = Relation::LessEq;
        double rhs = 0.0;
    };
    const Row& row(int i) const { return rows_.at(static_cast<std::size_t>(i)); }

    /// Evaluate the objective at x.
    double objective_value(const std::vector<double>& x) const;

    /// True when x satisfies every constraint and nonnegativity within tol.
    bool is_feasible(const std::vector<double>& x, double tol = 1e-7) const;

  private:
    std::vector<double> obj_;
    std::vector<Row> rows_;
};

}  // namespace sunfloor
