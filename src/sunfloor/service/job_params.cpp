#include "sunfloor/service/job_params.h"

namespace sunfloor::service {

SynthSetup synth_setup(const JobParams& p) {
    SynthSetup s;
    s.cfg.eval.freq_hz =
        (p.freq_mhz.empty() ? 400.0 : p.freq_mhz.front()) * 1e6;
    if (!p.max_tsvs.empty()) s.cfg.max_ill = p.max_tsvs.front();
    if (!p.routings.empty()) s.cfg.routing = p.routings.front();
    s.cfg.alpha = p.alpha;
    s.cfg.seed = static_cast<std::uint64_t>(p.seed);
    s.cfg.run_floorplan = p.floorplan;
    if (!p.phases.empty()) s.phase = p.phases.front();
    return s;
}

ExploreSetup explore_setup(const JobParams& p) {
    ExploreSetup s;
    s.cfg.alpha = p.alpha;
    s.cfg.run_floorplan = p.floorplan;
    if (!p.freq_mhz.empty()) {
        std::vector<double> hz;
        hz.reserve(p.freq_mhz.size());
        for (const double mhz : p.freq_mhz) hz.push_back(mhz * 1e6);
        s.grid.set_axis(ParamAxis::frequencies_hz(hz));
    }
    if (!p.max_tsvs.empty())
        s.grid.set_axis(ParamAxis::max_tsvs(p.max_tsvs));
    if (!p.width_bits.empty())
        s.grid.set_axis(ParamAxis::link_widths_bits(p.width_bits));
    if (!p.phases.empty()) s.grid.set_axis(ParamAxis::phases(p.phases));
    if (!p.thetas.empty()) s.grid.set_axis(ParamAxis::thetas(p.thetas));
    if (!p.routings.empty())
        s.grid.set_axis(ParamAxis::routing_policies(p.routings));
    s.seed = static_cast<std::uint64_t>(p.seed);
    return s;
}

}  // namespace sunfloor::service
