// Two-phase primal simplex on a flat tableau.
//
// This is the in-repo replacement for lp_solve [37] used by the paper's
// switch-position step. Problem sizes in this tool are modest (a few
// hundred variables and constraints for 65-core designs). Pricing is
// Dantzig's rule with a Bland anti-cycling fallback.
//
// The tableau is one row-major buffer of m x (ncols+1) doubles; the last
// entry of each row is its rhs. The placement rows have two or three
// terms, so a pivot divides the pivot row, collects its nonzero columns
// and updates the other rows only there. Skipping a column where the
// pivot row holds a zero can change at most the sign of a zero, and no
// pivot decision reads that sign. The rhs column is the exception: it is
// updated on every pivot, even when the pivot row's rhs is zero, so the
// returned x keeps its signed zeros. After phase 1 the artificial columns
// can no longer enter and are never read again, so phase 2 neither
// prices nor updates them. Pivot choices, iteration counts and every bit
// of the result equal those of a dense tableau updated column by column.
#pragma once

#include "sunfloor/lp/model.h"

namespace sunfloor {

struct SimplexOptions {
    /// Hard cap on pivot steps over both phases.
    int max_iterations = 20000;
    /// Switch from Dantzig to Bland's rule after this many pivots to
    /// guarantee termination under degeneracy.
    int bland_after = 5000;
    /// Numerical tolerance for reduced costs / feasibility.
    double tol = 1e-9;
};

/// Solve `min c^T x  s.t. constraints, x >= 0`. The returned x has one entry
/// per LpProblem variable.
LpResult solve_lp(const LpProblem& problem, const SimplexOptions& opts = {});

}  // namespace sunfloor
