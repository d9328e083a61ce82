#include "sunfloor/lp/simplex.h"

#include <cmath>
#include <limits>
#include <vector>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"

namespace sunfloor {
namespace {

// Tableau layout: rows 0..m-1 are constraints (equality form, rhs >= 0)
// stored back to back in `a`, `stride` = ncols+1 entries each. Columns
// 0..ncols-1 are structural + slack/surplus + artificial variables and
// column ncols holds the rhs. Only columns 0..live-1 are priced and
// updated; `live` drops the artificials once phase 1 is over. `basis[r]`
// is the column basic in row r.
struct Tableau {
    int m = 0;
    int ncols = 0;
    int live = 0;
    std::size_t stride = 0;
    std::vector<double> a;
    std::vector<int> basis;
    std::vector<int> nz;      // pivot-row nonzero columns, reused per pivot
    std::vector<double> red;  // reduced costs, reused per iteration

    double* row(int r) {
        return a.data() + static_cast<std::size_t>(r) * stride;
    }
    const double* row(int r) const {
        return a.data() + static_cast<std::size_t>(r) * stride;
    }
    double at(int r, int c) const { return row(r)[c]; }
    double rhs(int r) const { return row(r)[ncols]; }
};

// Updates a row only at the pivot row's nonzero columns: there
// `row[c] - factor * 0` would leave a nonzero unchanged and could only
// flip the sign of a zero, which no pivot decision reads. The rhs column
// is updated on every pivot even when the pivot row's rhs is zero,
// because the solution is read from it and must keep its signed zeros.
void pivot(Tableau& t, int pr, int pc) {
    double* prow = t.row(pr);
    const double pv = prow[pc];
    t.nz.clear();
    for (int c = 0; c < t.live; ++c) {
        prow[c] /= pv;
        if (prow[c] != 0.0) t.nz.push_back(c);
    }
    prow[t.ncols] /= pv;
    const double prhs = prow[t.ncols];
    for (int r = 0; r < t.m; ++r) {
        if (r == pr) continue;
        double* row = t.row(r);
        const double factor = row[pc];
        if (factor == 0.0) continue;
        for (const int c : t.nz) row[c] -= factor * prow[c];
        row[t.ncols] -= factor * prhs;
        // Clean the pivot column exactly to avoid drift.
        row[pc] = 0.0;
    }
    t.basis[static_cast<std::size_t>(pr)] = pc;
}

// Reduced costs for objective `cost` given the current basis:
// z_j = c_j - c_B^T B^{-1} A_j, computed directly from the tableau one
// row at a time. Each column sees its subtractions in row order.
void reduced_costs(Tableau& t, const std::vector<double>& cost) {
    t.red.assign(cost.begin(), cost.begin() + t.live);
    double* red = t.red.data();
    for (int r = 0; r < t.m; ++r) {
        const int b = t.basis[static_cast<std::size_t>(r)];
        const double cb = cost[static_cast<std::size_t>(b)];
        if (cb == 0.0) continue;
        const double* row = t.row(r);
        for (int c = 0; c < t.live; ++c) red[c] -= cb * row[c];
    }
}

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

// Run simplex minimizing `cost` over the live columns of the tableau.
PhaseOutcome run_phase(Tableau& t, const std::vector<double>& cost,
                       const SimplexOptions& opts, int& iterations) {
    for (;;) {
        if (iterations >= opts.max_iterations)
            return PhaseOutcome::IterationLimit;
        const bool bland = iterations >= opts.bland_after;
        reduced_costs(t, cost);

        // Entering column: most negative reduced cost (Dantzig) or the
        // first negative one (Bland).
        int pc = -1;
        double best = -opts.tol;
        for (int c = 0; c < t.live; ++c) {
            const double rc = t.red[static_cast<std::size_t>(c)];
            if (rc < best) {
                best = rc;
                pc = c;
                if (bland) break;
            }
        }
        if (pc < 0) return PhaseOutcome::Optimal;

        // Leaving row: min-ratio test; Bland tie-break on basis index.
        int pr = -1;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (int r = 0; r < t.m; ++r) {
            const double av = t.at(r, pc);
            if (av > opts.tol) {
                const double ratio = t.rhs(r) / av;
                if (ratio < best_ratio - opts.tol ||
                    (ratio < best_ratio + opts.tol && pr >= 0 &&
                     t.basis[static_cast<std::size_t>(r)] <
                         t.basis[static_cast<std::size_t>(pr)])) {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if (pr < 0) return PhaseOutcome::Unbounded;

        pivot(t, pr, pc);
        ++iterations;
    }
}

// The relation of a row once it is normalized to rhs >= 0.
Relation normalized(const LpProblem::Row& r) {
    if (r.rhs < 0.0 && r.rel != Relation::Equal)
        return r.rel == Relation::LessEq ? Relation::GreaterEq
                                         : Relation::LessEq;
    return r.rel;
}

LpResult solve_lp_impl(const LpProblem& problem, const SimplexOptions& opts) {
    const int n = problem.num_variables();
    const int m = problem.num_constraints();

    int num_slack = 0;
    int num_art = 0;
    for (int i = 0; i < m; ++i) {
        const Relation rel = normalized(problem.row(i));
        if (rel != Relation::Equal) ++num_slack;  // slack or surplus
        if (rel != Relation::LessEq) ++num_art;   // = and >= need artificials
    }

    Tableau t;
    t.m = m;
    t.ncols = n + num_slack + num_art;
    t.live = t.ncols;
    t.stride = static_cast<std::size_t>(t.ncols) + 1;
    t.a.assign(static_cast<std::size_t>(m) * t.stride, 0.0);
    t.basis.assign(static_cast<std::size_t>(m), -1);

    // Each row is summed in term order and, when its rhs is negative,
    // negated afterwards. Artificials take columns n+num_slack..ncols-1.
    int slack_at = n;
    int art_at = n + num_slack;
    for (int r = 0; r < m; ++r) {
        const auto& pr = problem.row(r);
        double* row = t.row(r);
        for (const auto& [v, c] : pr.terms) row[v] += c;
        row[t.ncols] = pr.rhs;
        if (pr.rhs < 0.0) {
            for (int c = 0; c < n; ++c) row[c] = -row[c];
            row[t.ncols] = -pr.rhs;
        }
        switch (normalized(pr)) {
            case Relation::LessEq:
                row[slack_at] = 1.0;
                t.basis[static_cast<std::size_t>(r)] = slack_at++;
                break;
            case Relation::GreaterEq:
                row[slack_at] = -1.0;  // surplus
                ++slack_at;
                row[art_at] = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at++;
                break;
            case Relation::Equal:
                row[art_at] = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at++;
                break;
        }
    }

    int iterations = 0;

    // Phase 1: minimize the sum of artificials.
    if (num_art > 0) {
        std::vector<double> cost1(static_cast<std::size_t>(t.ncols), 0.0);
        for (int c = n + num_slack; c < t.ncols; ++c)
            cost1[static_cast<std::size_t>(c)] = 1.0;
        const auto out = run_phase(t, cost1, opts, iterations);
        if (out == PhaseOutcome::IterationLimit)
            return {LpStatus::IterationLimit, 0.0, {}, iterations};
        // Unbounded is impossible in phase 1 (objective bounded below by 0).
        double art_sum = 0.0;
        for (int r = 0; r < t.m; ++r) {
            const int b = t.basis[static_cast<std::size_t>(r)];
            if (b >= n + num_slack) art_sum += t.rhs(r);
        }
        if (art_sum > 1e-7)
            return {LpStatus::Infeasible, 0.0, {}, iterations};

        // From here on the artificial columns may not enter and are never
        // read again, so pivots stop pricing and updating them.
        t.live = n + num_slack;

        // Drive remaining (degenerate, rhs==0) artificials out of the basis
        // where possible; rows that cannot pivot are redundant and harmless.
        for (int r = 0; r < t.m; ++r) {
            const int b = t.basis[static_cast<std::size_t>(r)];
            if (b < n + num_slack) continue;
            for (int c = 0; c < n + num_slack; ++c) {
                if (std::abs(t.at(r, c)) > 1e-7) {
                    pivot(t, r, c);
                    break;
                }
            }
        }
    }

    // Phase 2: original objective over the live columns. Artificials left
    // basic in redundant rows keep cost 0.
    std::vector<double> cost2(static_cast<std::size_t>(t.ncols), 0.0);
    for (int v = 0; v < n; ++v)
        cost2[static_cast<std::size_t>(v)] =
            problem.objective()[static_cast<std::size_t>(v)];
    const auto out = run_phase(t, cost2, opts, iterations);
    if (out == PhaseOutcome::IterationLimit)
        return {LpStatus::IterationLimit, 0.0, {}, iterations};
    if (out == PhaseOutcome::Unbounded)
        return {LpStatus::Unbounded, 0.0, {}, iterations};

    LpResult res;
    res.status = LpStatus::Optimal;
    res.x.assign(static_cast<std::size_t>(n), 0.0);
    for (int r = 0; r < t.m; ++r) {
        const int b = t.basis[static_cast<std::size_t>(r)];
        if (b < n) res.x[static_cast<std::size_t>(b)] = t.rhs(r);
    }
    res.objective = problem.objective_value(res.x);
    res.iterations = iterations;
    return res;
}

}  // namespace

LpResult solve_lp(const LpProblem& problem, const SimplexOptions& opts) {
    obs::ScopedSpan span("lp.solve");
    LpResult res = solve_lp_impl(problem, opts);
    auto& reg = obs::Registry::global();
    reg.counter("lp.solves").add(1);
    reg.counter("lp.iterations").add(res.iterations);
    return res;
}

}  // namespace sunfloor
