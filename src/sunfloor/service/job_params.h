// The architectural knobs of one job, their domains, and what they mean
// to the pipeline.
//
// One-shot CLI runs and served jobs share all three: sunfloor_cli's synth,
// explore, simulate and submit flags fill a JobParams, the wire protocol's
// "config" object fills the same struct (protocol.h), both check every
// value against the ranges below, and both turn the struct into pipeline
// inputs through synth_setup() / explore_setup(). A knob value is
// therefore accepted, rejected and interpreted alike on either path.
#pragma once

#include <cstdint>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/param_grid.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/util/flags.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::service {

/// Architectural knobs of one job. Axis vectors left empty take the
/// defaults (one 400 MHz / 25 TSV / default-width / auto-phase /
/// theta-sweep / up-down point). Synth jobs carry at most one value per
/// axis and may not set the explore-only axes (theta, width_bits).
struct JobParams {
    std::vector<double> freq_mhz;
    std::vector<int> max_tsvs;
    std::vector<int> width_bits;
    std::vector<double> thetas;
    std::vector<SynthesisPhase> phases;
    std::vector<routing::RoutingPolicyId> routings;
    double alpha = 1.0;
    long long seed = static_cast<long long>(Rng::kDefaultSeed);
    bool floorplan = true;
};

/// Knob domains. `expected` is the phrase both error paths print:
///   CLI:  bad --alpha value '7' (expected a number in [0, 1])
///   wire: bad "config.alpha" value: expected a number in [0, 1]
namespace knob {

/// freq_mhz, theta.
inline constexpr flags::Range<double> kPositive{
    "a finite number > 0", [](double v) { return v > 0.0; }};
/// max_tsvs (the paper's max_ill), width_bits. The upper bound keeps the
/// value an int.
inline constexpr flags::Range<long long> kCount{
    "an integer >= 1", [](long long v) { return v >= 1 && v <= 1000000000; }};
/// alpha: outside [0, 1] the partition graph gets negative weights.
inline constexpr flags::Range<double> kAlpha{
    "a number in [0, 1]", [](double v) { return v >= 0.0 && v <= 1.0; }};
/// seed: [0, 2^63), so a served job's seed reproduces on the CLI.
inline constexpr flags::Range<long long> kSeed = flags::kNonNegative64;

}  // namespace knob

/// A synth job's one architectural point: the first value of each axis
/// (the defaults when unset), alpha, seed and floorplan.
struct SynthSetup {
    SynthesisConfig cfg;
    SynthesisPhase phase = SynthesisPhase::Auto;
};
SynthSetup synth_setup(const JobParams& p);

/// An explore job: a grid with one axis per set knob over a base config
/// that carries alpha and floorplan; `seed` is ExploreOptions::base_seed.
/// Throws std::invalid_argument (ParamGrid::set_axis) on an out-of-domain
/// axis value.
struct ExploreSetup {
    SynthesisConfig cfg;
    ParamGrid grid;
    std::uint64_t seed = Rng::kDefaultSeed;
};
ExploreSetup explore_setup(const JobParams& p);

}  // namespace sunfloor::service
