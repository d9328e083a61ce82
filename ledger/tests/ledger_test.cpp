// Tests of the ledger itself: the seed contract, the service request
// mix, the determinism guard and the traced self-time split.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "ledger.h"
#include "runner.h"
#include "service_plan.h"
#include "split.h"
#include "sunfloor/obs/trace.h"

namespace ledger {
namespace {

std::string work_dir() {
    const std::string dir = "ledger_test_work";
    std::filesystem::create_directories(dir);
    return dir;
}

/// setup + references + one pass of a named workload.
PassOutcome one_pass(const std::string& name, std::uint64_t seed) {
    WorkloadOptions opts;
    opts.seed = seed;
    opts.work_dir = work_dir();
    std::unique_ptr<Workload> wl = make_workload(name, opts);
    wl->setup();
    wl->prepare_references();
    wl->prepare_pass();
    PassOutcome out = wl->pass();
    wl->teardown();
    return out;
}

bool same_plan(const ServicePlan& a, const ServicePlan& b) {
    if (a.requests.size() != b.requests.size())
        return false;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const PlannedRequest& x = a.requests[i];
        const PlannedRequest& y = b.requests[i];
        if (x.spec != y.spec || x.freq_mhz != y.freq_mhz ||
            x.max_tsvs != y.max_tsvs || x.cls != y.cls)
            return false;
    }
    return true;
}

// ------------------------------------------------------------ seed contract

TEST(SeedContract, ServicePlanFollowsTheSeed) {
    EXPECT_TRUE(same_plan(plan_service(1), plan_service(1)));
    EXPECT_FALSE(same_plan(plan_service(1), plan_service(2)));
}

TEST(SeedContract, SimulateSweepBytesFollowTheSeed) {
    const PassOutcome a = one_pass("simulate_sweep", 1);
    const PassOutcome b = one_pass("simulate_sweep", 1);
    const PassOutcome c = one_pass("simulate_sweep", 2);
    EXPECT_EQ(a.failed, 0);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.items, b.items);
    EXPECT_NE(a.digest, c.digest);
}

TEST(SeedContract, DefaultSeedMatchesPinnedDigest) {
    WorkloadOptions opts;
    opts.work_dir = work_dir();
    const auto wl = make_workload("simulate_sweep", opts);
    EXPECT_EQ(one_pass("simulate_sweep", kDefaultSeed).digest,
              wl->pinned_digest());
}

// ------------------------------------------------------------ service mix

TEST(ServiceMix, FollowsTheStatedProportions) {
    const int total = kColdRequests + kNearRequests + kWarmRequests;
    // About 15% cold, 25% near, 60% warm.
    EXPECT_NEAR(100.0 * kColdRequests / total, 15.0, 2.0);
    EXPECT_NEAR(100.0 * kNearRequests / total, 25.0, 2.0);
    EXPECT_NEAR(100.0 * kWarmRequests / total, 60.0, 2.0);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const ServicePlan plan = plan_service(seed);
        ASSERT_EQ(plan.requests.size(), static_cast<std::size_t>(total));
        EXPECT_EQ(plan.requests.front().cls, RequestClass::Cold);
        int counts[3] = {0, 0, 0};
        std::vector<PlannedRequest> issued;
        std::vector<bool> resident(plan.gens.size(), false);
        for (const PlannedRequest& r : plan.requests) {
            ++counts[static_cast<int>(r.cls)];
            const bool seen = std::any_of(
                issued.begin(), issued.end(), [&](const PlannedRequest& o) {
                    return o.spec == r.spec && o.freq_mhz == r.freq_mhz &&
                           o.max_tsvs == r.max_tsvs;
                });
            const auto s = static_cast<std::size_t>(r.spec);
            switch (r.cls) {
                case RequestClass::Cold:
                    EXPECT_FALSE(resident[s]);
                    break;
                case RequestClass::Near:
                    EXPECT_TRUE(resident[s]);
                    EXPECT_FALSE(seen);
                    break;
                case RequestClass::Warm:
                    EXPECT_TRUE(seen);
                    break;
            }
            resident[s] = true;
            if (!seen) issued.push_back(r);
        }
        EXPECT_EQ(counts[0], kColdRequests);
        EXPECT_EQ(counts[1], kNearRequests);
        EXPECT_EQ(counts[2], kWarmRequests);
    }
}

TEST(ServiceMix, WarmRequestsHitAndColdRequestsMissPartition) {
    // The pass checks every request against the stage counters: a warm
    // one recomputes no stage (evaluation included), a cold one misses
    // the partition stage. Any deviation is a misclassification.
    const PassOutcome out = one_pass("service_mixed", 3);
    EXPECT_EQ(out.failed, 0) << out.error;
    EXPECT_EQ(out.counts.count("service.requests.misclassified"), 0u)
        << out.error;
    EXPECT_EQ(out.counts.at("service.requests.cold"), kColdRequests);
    EXPECT_EQ(out.counts.at("service.requests.near"), kNearRequests);
    EXPECT_EQ(out.counts.at("service.requests.warm"), kWarmRequests);
    EXPECT_EQ(out.items, kColdRequests + kNearRequests + kWarmRequests);
}

// -------------------------------------------------------- determinism guard

/// A workload whose second pass does different work.
class DriftingWorkload : public Workload {
  public:
    void setup() override {}
    PassOutcome pass() override {
        PassOutcome out;
        out.items = out.attempted = 1;
        out.op_ms.push_back(1.0);
        out.counts["work.units"] = passes_++ == 1 ? 2 : 1;
        out.digest = "same";
        return out;
    }
    std::string pinned_digest() const override { return ""; }

  private:
    int passes_ = 0;
};

TEST(DeterminismGuard, ReportsChangedCounts) {
    const Counts a{{"x", 1}, {"y", 2}};
    EXPECT_TRUE(count_differences(a, a).empty());
    EXPECT_EQ(count_differences(a, {{"x", 1}, {"y", 3}}),
              std::vector<std::string>{"y"});
    EXPECT_EQ(count_differences(a, {{"x", 1}}),
              std::vector<std::string>{"y"});
    EXPECT_EQ(count_differences({{"x", 1}}, a),
              std::vector<std::string>{"y"});
}

TEST(DeterminismGuard, FailsARunWhoseCountsDiffer) {
    DriftingWorkload wl;
    RunConfig cfg;
    cfg.workload = "drifting";
    cfg.seconds = 0.0;
    const RunResult r = run_workload(wl, cfg);
    EXPECT_FALSE(r.correct);
    EXPECT_NE(r.report.find("work.units"), std::string::npos);
}

// ------------------------------------------------------------- trace split

std::string trace_of(const std::vector<std::string>& events) {
    std::string s = "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i)
        s += (i ? "," : "") + events[i];
    return s + "]}";
}

std::string ev(const char* name, char ph, double ts_us, int tid) {
    std::ostringstream os;
    os << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
       << "\", \"ts\": " << ts_us << ", \"pid\": 1, \"tid\": " << tid << "}";
    return os.str();
}

TEST(TraceSplit, SelfTimeIsSpanMinusChildCoverageAcrossThreads) {
    // pass [0,100] on thread 1 blocks on a call [10,90]; the server's
    // request [20,80] on thread 2 waits for the job [30,70] on thread 3,
    // whose stage [40,50] nests on the same thread.
    const TraceSplit s = split_trace(trace_of({
        ev("pass", 'B', 0, 1), ev("call", 'B', 10, 1),
        ev("request", 'B', 20, 2), ev("job", 'B', 30, 3),
        ev("stage", 'B', 40, 3), ev("stage", 'E', 50, 3),
        ev("job", 'E', 70, 3), ev("request", 'E', 80, 2),
        ev("call", 'E', 90, 1), ev("pass", 'E', 100, 1),
    }));
    ASSERT_TRUE(s.balanced) << s.error;
    EXPECT_EQ(s.overlaps, 0);
    EXPECT_NEAR(s.spans.at("pass").self_ms, 0.020, 1e-9);
    EXPECT_NEAR(s.spans.at("call").self_ms, 0.020, 1e-9);
    EXPECT_NEAR(s.spans.at("request").self_ms, 0.020, 1e-9);
    EXPECT_NEAR(s.spans.at("job").self_ms, 0.030, 1e-9);
    EXPECT_NEAR(s.spans.at("stage").self_ms, 0.010, 1e-9);
    EXPECT_NEAR(s.spans.at("job").total_ms, 0.040, 1e-9);
    double self = 0.0;
    for (const auto& [name, st] : s.spans) self += st.self_ms;
    EXPECT_NEAR(self, s.spans.at("pass").total_ms, 1e-9);
}

TEST(TraceSplit, RejectsUnbalancedSpans) {
    EXPECT_FALSE(split_trace(trace_of({ev("a", 'B', 0, 1)})).balanced);
    EXPECT_FALSE(split_trace(trace_of({ev("a", 'E', 0, 1)})).balanced);
    // An end on another thread does not close a begin.
    EXPECT_FALSE(split_trace(trace_of({ev("a", 'B', 0, 1),
                                       ev("a", 'E', 5, 2)}))
                     .balanced);
    EXPECT_FALSE(split_trace(trace_of({ev("a", 'B', 0, 1),
                                       ev("b", 'B', 1, 1),
                                       ev("a", 'E', 2, 1),
                                       ev("b", 'E', 3, 1)}))
                     .balanced);
    EXPECT_FALSE(split_trace("not json").balanced);
}

TEST(TraceSplit, RealTracedPassIsBalancedAndAccountsForThePass) {
    WorkloadOptions opts;
    opts.work_dir = work_dir();
    const auto wl = make_workload("simulate_sweep", opts);
    wl->setup();
    sunfloor::obs::start_tracing();
    {
        sunfloor::obs::ScopedSpan span("bench.pass");
        wl->pass();
    }
    std::ostringstream os;
    sunfloor::obs::stop_tracing(os);
    const TraceSplit s = split_trace(os.str());
    ASSERT_TRUE(s.balanced) << s.error;
    EXPECT_EQ(s.overlaps, 0);
    EXPECT_EQ(s.spans.at("sim.measure").count, 18);
    double self = 0.0;
    for (const auto& [name, st] : s.spans) self += st.self_ms;
    EXPECT_NEAR(self, s.spans.at("bench.pass").total_ms, 1e-6);
}

// ------------------------------------------------------------- statistics

TEST(Statistics, TailHasTenSamplesBeyondIt) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    const Tail t = tail(v);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_LT(tail({1, 2, 3}).percentile, 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

}  // namespace
}  // namespace ledger
