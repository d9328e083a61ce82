// simulate_sweep: sim::Simulator replays a fixed sweep — injection scale
// {0.25, 0.5, 1.0} x traffic {uniform, bursty, hotspot} — on two designs
// synthesized in setup: D_26_media's best-power design under up-down
// (baked paths) and D_36_4's under odd-even (adaptive per-hop output
// selection). Both SimIndexes are built in setup. One item is one
// received flit.
#include <cstdio>
#include <stdexcept>

#include "inputs.h"
#include "ledger.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/sim/simulator.h"

namespace ledger {
namespace {

using namespace sunfloor;

/// Every field of a report, doubles as hexfloat: equal bytes mean
/// bit-identical statistics.
std::string sim_report_bytes(const sim::SimReport& r) {
    std::string out;
    char buf[64];
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%a,", v);
        out += buf;
    };
    const auto cnt = [&](long long v) {
        std::snprintf(buf, sizeof buf, "%lld,", v);
        out += buf;
    };
    cnt(r.injected_packets);
    cnt(r.received_packets);
    cnt(r.injected_flits);
    cnt(r.received_flits);
    num(r.avg_latency_cycles);
    num(r.p99_latency_cycles);
    num(r.max_latency_cycles);
    num(r.avg_head_latency_cycles);
    for (const double v : r.flow_avg_latency_cycles) num(v);
    num(r.offered_flits_per_cycle);
    num(r.accepted_flits_per_cycle);
    for (const double v : r.link_utilization) num(v);
    cnt(r.drained ? 1 : 0);
    cnt(r.cycles_run);
    cnt(r.in_flight_flits_at_end);
    return out + "\n";
}

struct SimDesign {
    DesignSpec spec;
    EvalParams eval;
    routing::RoutingPolicyId routing = routing::RoutingPolicyId::UpDown;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<sim::Simulator> sim;
};

SimDesign synthesize_best(const std::string& name,
                          routing::RoutingPolicyId policy) {
    SimDesign d;
    d.spec = annealed_benchmark(name);
    SynthesisConfig cfg;
    cfg.routing = policy;
    const SynthesisResult res = run_synthesis(d.spec, cfg);
    const int best = res.best_power_index();
    if (best < 0)
        throw std::runtime_error(name + ": no valid design to simulate");
    d.eval = cfg.eval;
    d.routing = policy;
    d.topo = std::make_unique<Topology>(
        res.points[static_cast<std::size_t>(best)].topo);
    return d;
}

class SimulateSweep : public Workload {
  public:
    explicit SimulateSweep(const WorkloadOptions& o) : opts_(o) {}

    void setup() override {
        designs_.clear();
        designs_.push_back(synthesize_best(
            "D_26_media", routing::RoutingPolicyId::UpDown));
        designs_.push_back(
            synthesize_best("D_36_4", routing::RoutingPolicyId::OddEven));
        const std::int64_t t0 = now_ns();
        for (SimDesign& d : designs_)
            d.sim = std::make_unique<sim::Simulator>(*d.topo, d.spec, d.eval,
                                                     d.routing);
        index_build_ms_ = ms_since(t0);
    }

    PassOutcome pass() override {
        PassOutcome out;
        std::string digest;
        std::uint64_t run = 0;
        for (SimDesign& d : designs_) {
            for (const sim::Traffic traffic :
                 {sim::Traffic::Uniform, sim::Traffic::Bursty,
                  sim::Traffic::Hotspot}) {
                for (const double scale : {0.25, 0.5, 1.0}) {
                    sim::SimParams p;
                    p.inject.traffic = traffic;
                    p.inject.injection_scale = scale;
                    p.routing = d.routing;
                    p.warmup_cycles = kWarmupCycles;
                    p.measure_cycles = kMeasureCycles;
                    p.seed = splitmix64(opts_.seed + 0x9e3779b97f4a7c15ULL *
                                                         ++run);
                    const std::int64_t t0 = now_ns();
                    const sim::SimReport rep = d.sim->run(d.spec, d.eval, p);
                    out.op_ms.push_back(ms_since(t0));
                    ++out.attempted;
                    out.items += rep.received_flits;
                    if (!rep.drained) {
                        ++out.failed;
                        out.error = "simulation did not drain";
                    }
                    digest = digest_hex(sim_report_bytes(rep), digest);
                }
            }
        }
        out.digest = digest;
        return out;
    }

    std::string pinned_digest() const override {
        return "4ccb5d4c0def7ca5";
    }

    std::map<std::string, double> probe_layers() override {
        return {{"sim.index_build_ms", index_build_ms_}};
    }

  private:
    static constexpr long long kWarmupCycles = 1000;
    static constexpr long long kMeasureCycles = 4000;

    WorkloadOptions opts_;
    std::vector<SimDesign> designs_;
    double index_build_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_simulate_sweep(const WorkloadOptions& opts) {
    return std::make_unique<SimulateSweep>(opts);
}

}  // namespace ledger
