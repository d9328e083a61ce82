#include <chrono>
#include <cstdio>

#include "inputs.h"
#include "ledger.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/spec/benchmarks.h"

namespace ledger {

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{
        "explore_grid", "simulate_sweep", "service_mixed", "dist_cas"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts) {
    if (name == "explore_grid") return make_explore_grid(opts);
    if (name == "simulate_sweep") return make_simulate_sweep(opts);
    if (name == "service_mixed") return make_service_mixed(opts);
    if (name == "dist_cas") return make_dist_cas(opts);
    return nullptr;
}

std::string digest_hex(const std::string& bytes, const std::string& prev) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    if (!prev.empty()) h = std::stoull(prev, nullptr, 16);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      sunfloor::cas::fnv1a64(bytes, h)));
    return buf;
}

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double ms_since(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

sunfloor::DesignSpec annealed_benchmark(const std::string& name) {
    // The CLI's input placement: the sequence-pair annealer over each
    // layer with the area + wire-length objective, seed 42.
    sunfloor::DesignSpec spec = sunfloor::make_benchmark(name);
    sunfloor::AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    sunfloor::Rng rng(42);
    sunfloor::floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
    return spec;
}

}  // namespace ledger
