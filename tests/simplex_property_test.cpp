// Property tests for the simplex: random feasible-by-construction LPs are
// solved to optimality-certified solutions (feasible, and no better
// solution among a large random sample), and random placement instances
// cross-check the LP against coordinate descent. The oracle tests check
// solve_lp bit for bit against a dense column-by-column tableau kept here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sunfloor/core/switch_placement.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/lp/placement_lp.h"
#include "sunfloor/lp/simplex.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {
namespace {

class SimplexRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom, FeasibleLpsSolveAndCertify) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
    const int n = 3 + static_cast<int>(rng.next_below(4));
    const int m = 2 + static_cast<int>(rng.next_below(5));

    // Construct around a known feasible point x0 >= 0.
    std::vector<double> x0(n);
    for (double& v : x0) v = rng.next_double() * 5.0;

    LpProblem lp;
    for (int v = 0; v < n; ++v)
        lp.add_variable(rng.next_double() * 4.0 - 1.0);
    for (int r = 0; r < m; ++r) {
        std::vector<std::pair<int, double>> terms;
        double lhs_at_x0 = 0.0;
        for (int v = 0; v < n; ++v) {
            if (!rng.next_bool(0.6)) continue;
            const double c = rng.next_double() * 4.0 - 2.0;
            terms.push_back({v, c});
            lhs_at_x0 += c * x0[static_cast<std::size_t>(v)];
        }
        if (terms.empty()) terms.push_back({0, 1.0});
        // rhs chosen so x0 satisfies the row with slack.
        lp.add_constraint(terms, Relation::LessEq,
                          lhs_at_x0 + rng.next_double() * 3.0 + 0.1);
    }
    // Box to keep the problem bounded.
    for (int v = 0; v < n; ++v)
        lp.add_constraint({{v, 1.0}}, Relation::LessEq, 50.0);

    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_TRUE(lp.is_feasible(res.x, 1e-6));
    EXPECT_LE(res.objective, lp.objective_value(x0) + 1e-6);

    // No random feasible point beats the reported optimum.
    for (int probe = 0; probe < 200; ++probe) {
        std::vector<double> x(static_cast<std::size_t>(n));
        for (double& v : x) v = rng.next_double() * 8.0;
        if (lp.is_feasible(x, 1e-9)) {
            EXPECT_GE(lp.objective_value(x), res.objective - 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom, ::testing::Range(0, 20));

class PlacementRandom : public ::testing::TestWithParam<int> {};

TEST_P(PlacementRandom, LpNeverLosesToDescent) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
    PlacementProblem p;
    p.num_movable = 2 + static_cast<int>(rng.next_below(4));
    const int nfixed = 3 + static_cast<int>(rng.next_below(5));
    for (int f = 0; f < nfixed; ++f)
        p.fixed_points.push_back(
            {rng.next_double() * 12.0, rng.next_double() * 12.0});
    // Anchor every movable to at least one fixed point.
    for (int m = 0; m < p.num_movable; ++m)
        p.fixed_conns.push_back(
            {m, static_cast<int>(rng.next_below(nfixed)),
             0.5 + rng.next_double() * 3.0});
    for (int extra = 0; extra < p.num_movable; ++extra)
        if (rng.next_bool(0.7))
            p.fixed_conns.push_back(
                {static_cast<int>(rng.next_below(p.num_movable)),
                 static_cast<int>(rng.next_below(nfixed)),
                 rng.next_double() * 2.0});
    for (int m = 0; m + 1 < p.num_movable; ++m)
        if (rng.next_bool(0.8))
            p.movable_conns.push_back(
                {m, m + 1, 0.5 + rng.next_double() * 2.0});

    const auto lp = solve_placement_lp(p);
    ASSERT_TRUE(lp.ok);
    const auto med = solve_placement_median(p, 300);
    EXPECT_LE(lp.cost, med.cost + 1e-6);
    // And the LP solution really has the cost it claims.
    EXPECT_NEAR(lp.cost, placement_cost(p, lp.positions), 1e-9);
    // Perturbing the LP solution never improves it (local optimality of a
    // convex optimum = global).
    for (int probe = 0; probe < 50; ++probe) {
        auto pos = lp.positions;
        for (auto& pt : pos) {
            pt.x = std::max(0.0, pt.x + (rng.next_double() - 0.5));
            pt.y = std::max(0.0, pt.y + (rng.next_double() - 0.5));
        }
        EXPECT_GE(placement_cost(p, pos), lp.cost - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementRandom, ::testing::Range(0, 15));

// ------------------------------------------------------- bitwise oracle

// The dense two-phase simplex that solve_lp replaced: one vector per row,
// every pivot a full-width update, reduced costs column by column. It is
// the reference the flat kernel must match bit for bit, and lives only
// in this test.
namespace dense {

struct Tableau {
    int m = 0;
    int ncols = 0;
    std::vector<std::vector<double>> a;  // m rows, ncols+1 entries each
    std::vector<int> basis;

    double& at(int r, int c) {
        return a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    double at(int r, int c) const {
        return a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    double& rhs(int r) { return at(r, ncols); }
    double rhs(int r) const { return at(r, ncols); }
};

void pivot(Tableau& t, int pr, int pc) {
    auto& prow = t.a[static_cast<std::size_t>(pr)];
    const double pv = prow[static_cast<std::size_t>(pc)];
    for (double& v : prow) v /= pv;
    for (int r = 0; r < t.m; ++r) {
        if (r == pr) continue;
        auto& row = t.a[static_cast<std::size_t>(r)];
        const double factor = row[static_cast<std::size_t>(pc)];
        if (factor == 0.0) continue;
        for (int c = 0; c <= t.ncols; ++c)
            row[static_cast<std::size_t>(c)] -=
                factor * prow[static_cast<std::size_t>(c)];
        row[static_cast<std::size_t>(pc)] = 0.0;
    }
    t.basis[static_cast<std::size_t>(pr)] = pc;
}

std::vector<double> reduced_costs(const Tableau& t,
                                  const std::vector<double>& cost) {
    std::vector<double> red(static_cast<std::size_t>(t.ncols));
    for (int c = 0; c < t.ncols; ++c) {
        double z = cost[static_cast<std::size_t>(c)];
        for (int r = 0; r < t.m; ++r) {
            const double cb = cost[static_cast<std::size_t>(
                t.basis[static_cast<std::size_t>(r)])];
            if (cb != 0.0) z -= cb * t.at(r, c);
        }
        red[static_cast<std::size_t>(c)] = z;
    }
    return red;
}

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

PhaseOutcome run_phase(Tableau& t, const std::vector<double>& cost,
                       const std::vector<char>& allowed,
                       const SimplexOptions& opts, int& iterations) {
    for (;;) {
        if (iterations >= opts.max_iterations)
            return PhaseOutcome::IterationLimit;
        const bool bland = iterations >= opts.bland_after;
        const auto red = reduced_costs(t, cost);
        int pc = -1;
        double best = -opts.tol;
        for (int c = 0; c < t.ncols; ++c) {
            if (!allowed[static_cast<std::size_t>(c)]) continue;
            const double rc = red[static_cast<std::size_t>(c)];
            if (rc < best) {
                best = rc;
                pc = c;
                if (bland) break;
            }
        }
        if (pc < 0) return PhaseOutcome::Optimal;
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

LpResult solve(const LpProblem& problem, const SimplexOptions& opts) {
    const int n = problem.num_variables();
    const int m = problem.num_constraints();
    struct NormRow {
        std::vector<double> coeff;
        Relation rel;
        double rhs;
    };
    std::vector<NormRow> norm;
    for (int i = 0; i < m; ++i) {
        const auto& r = problem.row(i);
        NormRow nr;
        nr.coeff.assign(static_cast<std::size_t>(n), 0.0);
        for (const auto& [v, c] : r.terms)
            nr.coeff[static_cast<std::size_t>(v)] += c;
        nr.rel = r.rel;
        nr.rhs = r.rhs;
        if (nr.rhs < 0.0) {
            for (double& c : nr.coeff) c = -c;
            nr.rhs = -nr.rhs;
            if (nr.rel == Relation::LessEq)
                nr.rel = Relation::GreaterEq;
            else if (nr.rel == Relation::GreaterEq)
                nr.rel = Relation::LessEq;
        }
        norm.push_back(std::move(nr));
    }
    int num_slack = 0;
    int num_art = 0;
    for (const auto& r : norm) {
        if (r.rel != Relation::Equal) ++num_slack;
        if (r.rel != Relation::LessEq) ++num_art;
    }
    Tableau t;
    t.m = m;
    t.ncols = n + num_slack + num_art;
    t.a.assign(static_cast<std::size_t>(m),
               std::vector<double>(static_cast<std::size_t>(t.ncols) + 1, 0.0));
    t.basis.assign(static_cast<std::size_t>(m), -1);
    std::vector<int> art_cols;
    int slack_at = n;
    int art_at = n + num_slack;
    for (int r = 0; r < m; ++r) {
        const auto& nr = norm[static_cast<std::size_t>(r)];
        for (int c = 0; c < n; ++c)
            t.at(r, c) = nr.coeff[static_cast<std::size_t>(c)];
        t.rhs(r) = nr.rhs;
        switch (nr.rel) {
            case Relation::LessEq:
                t.at(r, slack_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = slack_at++;
                break;
            case Relation::GreaterEq:
                t.at(r, slack_at) = -1.0;
                ++slack_at;
                t.at(r, art_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at;
                art_cols.push_back(art_at++);
                break;
            case Relation::Equal:
                t.at(r, art_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at;
                art_cols.push_back(art_at++);
                break;
        }
    }
    std::vector<char> allowed(static_cast<std::size_t>(t.ncols), 1);
    int iterations = 0;
    if (num_art > 0) {
        std::vector<double> cost1(static_cast<std::size_t>(t.ncols), 0.0);
        for (int c : art_cols) cost1[static_cast<std::size_t>(c)] = 1.0;
        const auto out = run_phase(t, cost1, allowed, opts, iterations);
        if (out == PhaseOutcome::IterationLimit)
            return {LpStatus::IterationLimit, 0.0, {}, iterations};
        double art_sum = 0.0;
        for (int r = 0; r < t.m; ++r) {
            const int b = t.basis[static_cast<std::size_t>(r)];
            if (b >= n + num_slack) art_sum += t.rhs(r);
        }
        if (art_sum > 1e-7) return {LpStatus::Infeasible, 0.0, {}, iterations};
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
        for (int c : art_cols) allowed[static_cast<std::size_t>(c)] = 0;
    }
    std::vector<double> cost2(static_cast<std::size_t>(t.ncols), 0.0);
    for (int v = 0; v < n; ++v)
        cost2[static_cast<std::size_t>(v)] =
            problem.objective()[static_cast<std::size_t>(v)];
    const auto out = run_phase(t, cost2, allowed, opts, iterations);
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

}  // namespace dense

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool is_negative_zero(double v) { return v == 0.0 && std::signbit(v); }

/// solve_lp against the dense oracle: status, iteration count and the
/// bits of the objective and of every x.
::testing::AssertionResult matches_oracle(const LpProblem& lp,
                                          const SimplexOptions& opts = {}) {
    const LpResult got = solve_lp(lp, opts);
    const LpResult want = dense::solve(lp, opts);
    if (got.status != want.status)
        return ::testing::AssertionFailure()
               << "status " << static_cast<int>(got.status) << " vs "
               << static_cast<int>(want.status);
    if (got.iterations != want.iterations)
        return ::testing::AssertionFailure()
               << "iterations " << got.iterations << " vs " << want.iterations;
    if (!same_bits(got.objective, want.objective))
        return ::testing::AssertionFailure()
               << "objective " << got.objective << " vs " << want.objective;
    if (got.x.size() != want.x.size())
        return ::testing::AssertionFailure()
               << "x size " << got.x.size() << " vs " << want.x.size();
    for (std::size_t i = 0; i < got.x.size(); ++i)
        if (!same_bits(got.x[i], want.x[i]))
            return ::testing::AssertionFailure()
                   << "x[" << i << "] " << got.x[i] << " vs " << want.x[i];
    return ::testing::AssertionSuccess();
}

/// A random LP over all three relations with rhs of either sign. Half the
/// instances use small-integer data, which makes degenerate pivots, the
/// phase-1 drive-out and signed zeros common. Half are feasible by
/// construction: every row holds at a point x0 >= 0, tightly or with slack.
LpProblem random_lp(Rng& rng) {
    const bool integer = rng.next_bool();
    auto value = [&](int span) {
        return integer ? static_cast<double>(rng.next_int(-span, span))
                       : (rng.next_double() * 2.0 - 1.0) * span;
    };
    const int n = rng.next_int(1, 8);
    const int m = rng.next_int(1, 8);
    std::vector<double> x0;
    if (rng.next_bool())
        for (int v = 0; v < n; ++v) x0.push_back(std::abs(value(3)));
    LpProblem lp;
    for (int v = 0; v < n; ++v) lp.add_variable(value(3));
    for (int r = 0; r < m; ++r) {
        std::vector<std::pair<int, double>> terms;
        for (int v = 0; v < n; ++v)
            if (rng.next_bool()) terms.push_back({v, value(2)});
        if (terms.empty())
            terms.push_back({rng.next_int(0, n - 1), value(2)});
        if (rng.next_bool(0.1))  // a repeated variable sums its terms
            terms.push_back({terms.front().first, value(2)});
        const auto rel = static_cast<Relation>(rng.next_below(3));
        double rhs = rng.next_bool(0.15) ? 0.0 : value(4);
        if (!x0.empty()) {
            double lhs = 0.0;
            for (const auto& [v, c] : terms)
                lhs += c * x0[static_cast<std::size_t>(v)];
            const double slack = rng.next_bool() ? 0.0 : std::abs(value(2));
            rhs = rel == Relation::LessEq      ? lhs + slack
                  : rel == Relation::GreaterEq ? lhs - slack
                                               : lhs;
        }
        lp.add_constraint(std::move(terms), rel, rhs);
    }
    if (rng.next_bool())  // a box keeps more instances bounded
        for (int v = 0; v < n; ++v)
            lp.add_constraint({{v, 1.0}}, Relation::LessEq,
                              integer ? rng.next_int(1, 6)
                                      : 1.0 + rng.next_double() * 9.0);
    return lp;
}

TEST(SimplexOracle, RandomLpsMatchBitForBit) {
    Rng rng(20240611);
    int by_status[4] = {0, 0, 0, 0};
    int negative_zeros = 0;
    for (int i = 0; i < 12000; ++i) {
        const LpProblem lp = random_lp(rng);
        // Some instances force Bland's rule early or cap the pivots.
        SimplexOptions opts;
        if (i % 7 == 3) opts.bland_after = rng.next_int(0, 3);
        if (i % 11 == 5) opts.max_iterations = rng.next_int(0, 5);
        ASSERT_TRUE(matches_oracle(lp, opts)) << "instance " << i;
        const LpResult res = solve_lp(lp, opts);
        ++by_status[static_cast<int>(res.status)];
        for (double v : res.x) negative_zeros += is_negative_zero(v) ? 1 : 0;
    }
    // Every outcome, and signed zeros in x, are exercised.
    EXPECT_GT(by_status[static_cast<int>(LpStatus::Optimal)], 4000);
    EXPECT_GT(by_status[static_cast<int>(LpStatus::Infeasible)], 2000);
    EXPECT_GT(by_status[static_cast<int>(LpStatus::Unbounded)], 1000);
    EXPECT_GT(by_status[static_cast<int>(LpStatus::IterationLimit)], 300);
    EXPECT_GT(negative_zeros, 100);
}

// A degenerate LP whose optimum holds both signed zeros. x2 stays +0.0
// only because every pivot updates the rhs column: a kernel that skips a
// row's rhs when the pivot row's rhs is zero returns -0.0 there.
TEST(SimplexOracle, SignedZerosOfTheSolutionArePinned) {
    LpProblem lp;
    lp.add_variable(1.0);
    lp.add_variable(1.0);
    lp.add_variable(3.0);
    lp.add_constraint({{0, -1.0}}, Relation::Equal, 0.0);
    lp.add_constraint({{1, -1.0}, {2, 2.0}}, Relation::LessEq, -1.0);
    lp.add_constraint({{1, 1.0}}, Relation::GreaterEq, 1.0);
    lp.add_constraint({{1, 2.0}, {2, -2.0}}, Relation::LessEq, 4.0);
    lp.add_constraint({{2, -2.0}, {2, 1.0}}, Relation::LessEq, 2.0);
    lp.add_constraint({{0, 1.0}, {1, 1.0}, {2, -1.0}, {0, -1.0}},
                      Relation::LessEq, 1.0);
    EXPECT_TRUE(matches_oracle(lp));
    const LpResult res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    ASSERT_EQ(res.x.size(), 3u);
    EXPECT_TRUE(is_negative_zero(res.x[0]));
    EXPECT_EQ(res.x[1], 1.0);
    EXPECT_TRUE(res.x[2] == 0.0 && !std::signbit(res.x[2]));
}

/// The per-axis LP exactly as solve_placement_lp builds it; `hi < lo`
/// leaves the movables unbounded.
LpProblem axis_lp(const PlacementProblem& p, bool x_axis, double lo,
                  double hi) {
    LpProblem lp;
    std::vector<int> pos;
    for (int i = 0; i < p.num_movable; ++i) pos.push_back(lp.add_variable(0.0));
    for (const auto& c : p.fixed_conns) {
        const int d = lp.add_variable(c.weight);
        const int v = pos[static_cast<std::size_t>(c.movable)];
        const Point& pt = p.fixed_points[static_cast<std::size_t>(c.fixed)];
        const double fc = x_axis ? pt.x : pt.y;
        lp.add_constraint({{v, 1.0}, {d, -1.0}}, Relation::LessEq, fc);
        lp.add_constraint({{v, 1.0}, {d, 1.0}}, Relation::GreaterEq, fc);
    }
    for (const auto& c : p.movable_conns) {
        const int d = lp.add_variable(c.weight);
        const int va = pos[static_cast<std::size_t>(c.a)];
        const int vb = pos[static_cast<std::size_t>(c.b)];
        lp.add_constraint({{va, 1.0}, {vb, -1.0}, {d, -1.0}},
                          Relation::LessEq, 0.0);
        lp.add_constraint({{vb, 1.0}, {va, -1.0}, {d, -1.0}},
                          Relation::LessEq, 0.0);
    }
    if (hi >= lo)
        for (int i = 0; i < p.num_movable; ++i) {
            lp.add_constraint({{pos[static_cast<std::size_t>(i)], 1.0}},
                              Relation::GreaterEq, lo);
            lp.add_constraint({{pos[static_cast<std::size_t>(i)], 1.0}},
                              Relation::LessEq, hi);
        }
    return lp;
}

TEST(SimplexOracle, PlacementLpsOfSynthesizedTopologiesMatchBitForBit) {
    int solves = 0;
    for (const std::string& name : benchmark_names()) {
        const DesignSpec spec = make_benchmark(name);
        SynthesisConfig cfg;
        cfg.partition.num_starts = 4;
        cfg.run_floorplan = false;
        cfg.max_switches = 8;
        const auto res = Synthesizer(spec, cfg).run(SynthesisPhase::Phase1);
        for (const auto& dp : res.points) {
            if (dp.topo.num_switches() == 0) continue;
            const PlacementProblem p =
                build_switch_placement_problem(dp.topo, spec);
            double x1 = 0.0, y1 = 0.0;
            for (const auto& pt : p.fixed_points) {
                x1 = std::max(x1, pt.x);
                y1 = std::max(y1, pt.y);
            }
            for (const bool x_axis : {true, false}) {
                const double hi = x_axis ? x1 : y1;
                EXPECT_TRUE(matches_oracle(axis_lp(p, x_axis, 0.0, -1.0)))
                    << name << " " << dp.switch_count << " switches";
                EXPECT_TRUE(matches_oracle(axis_lp(p, x_axis, 0.0, hi)))
                    << name << " " << dp.switch_count << " switches, bounded";
                solves += 2;
            }
        }
    }
    EXPECT_GT(solves, 100);
}

}  // namespace
}  // namespace sunfloor
