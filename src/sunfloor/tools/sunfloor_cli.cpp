// sunfloor_cli — command-line front end of the SunFloor 3D tool.
//
// Subcommands: synthesis (the default), explore, simulate, generate,
// submit / status / result (jobs on a running sunfloord) and cas
// stats|gc. Each subcommand's flags are one table built from shared row
// groups (util/flags.h); the usage text is generated from the tables and
// is the flag reference — a subcommand run without its required flags
// (`sunfloor_cli explore`) prints it. Exit codes: 0 success, 1 run or
// I/O failure, 2 usage error, 3 a retryable daemon rejection.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/explore/family_sweep.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/service/client.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/util/flags.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/strings.h"

using namespace sunfloor;

namespace {

using tools::ObsSinks;

// ------------------------------------------------------------ row groups

/// Where the design comes from: a Section IV file or a built-in benchmark.
struct Source {
    std::string design;
    std::string benchmark;

    bool one() const { return design.empty() != benchmark.empty(); }
};

flags::Flags source_flags(Source& s) {
    return {
        {"--design", "FILE", "Section IV design file", flags::text(s.design)},
        {"--benchmark", "NAME", "built-in benchmark (--list-benchmarks)",
         flags::text(s.benchmark)},
    };
}

/// How a subcommand spells the architectural knobs: one point (simulate),
/// one point over a frequency sweep (synthesis), or comma-list grid axes
/// with --max-tsvs and the explore-only --width/--theta (explore, submit).
enum class Knobs { Point, FreqSweep, Grid };

/// The synthesis knobs, filling the JobParams a served job carries; the
/// ranges are the wire protocol's (service/job_params.h).
flags::Flags knob_flags(service::JobParams& p, Knobs k) {
    namespace knob = service::knob;
    const bool grid = k == Knobs::Grid;
    const auto axis = [grid](auto& out, auto parse, std::string expected) {
        return grid ? flags::list(out, std::move(parse), std::move(expected))
                    : flags::single(out, std::move(parse), std::move(expected));
    };
    const auto number_axis = [grid](auto& out, auto range) {
        return grid ? flags::list(out, range) : flags::single(out, range);
    };
    const char* list = grid ? "[,...]" : "";
    flags::Flags f{
        {"--freq", k == Knobs::Point ? "MHZ" : "MHZ[,...]",
         k == Knobs::Point ? "operating frequency (default 400)"
                           : "frequencies to sweep (default 400)",
         k == Knobs::Point ? flags::single(p.freq_mhz, knob::kPositive)
                           : flags::list(p.freq_mhz, knob::kPositive)},
        {grid ? "--max-tsvs" : "--max-ill", std::string("N") + list,
         "inter-layer link budget, the paper's max_ill (default 25)",
         number_axis(p.max_tsvs, knob::kCount)},
    };
    if (grid)
        f.push_back({"--width", "BITS[,...]",
                     "link width (default 32)",
                     flags::list(p.width_bits, knob::kCount)});
    f.push_back({"--phase", std::string("auto|1|2") + list,
                 "synthesis phase (default auto)",
                 axis(p.phases, flags::in(phase_from_string),
                      phase_choices())});
    if (grid)
        f.push_back({"--theta", "V[,...]",
                     "fixed SPG theta (default: Algorithm 1 sweep)",
                     flags::list(p.thetas, knob::kPositive)});
    f.push_back({"--routing", std::string("POLICY") + list,
                 routing::routing_choices() + " (default up-down)",
                 axis(p.routings, flags::in(routing::routing_from_string),
                      routing::routing_choices())});
    return f + flags::Flags{
        {"--alpha", "A", "PG bandwidth/latency blend, 0..1 (default 1.0)",
         flags::one(p.alpha, knob::kAlpha)},
        {"--seed", "N", "RNG seed, 0..2^63-1 (default fixed)",
         flags::one(p.seed, knob::kSeed)},
        {"--no-floorplan", "", "skip NoC insertion legalization",
         flags::set_false(p.floorplan)},
    };
}

/// Traffic knobs of the flit simulator; `rate` is the subcommand's
/// injection-scale row (one value, or simulate's sweep).
flags::Flags traffic_flags(sim::SimParams& sp, flags::Flag rate) {
    return {
        std::move(rate),
        {"--traffic", "KIND", sim::traffic_choices() + " (default uniform)",
         flags::one(sp.inject.traffic, flags::in(sim::traffic_from_string),
                    sim::traffic_choices())},
        {"--packet-len", "FLITS", "flits per packet (default 4)",
         flags::one(sp.inject.packet_length_flits, flags::kPositiveInt)},
    };
}

/// Spec-generator knobs of `generate` and `explore --family`. Only the
/// parse can fail here; GenParams::validate() owns the ranges.
flags::Flags gen_flags(specgen::GenParams& gp) {
    return {
        {"--family", "F", specgen::family_choices(),
         flags::one(gp.family, flags::in(specgen::family_from_string),
                    specgen::family_choices())},
        {"--cores", "N", "total cores (default 24)",
         flags::one(gp.num_cores, flags::kAnyInt)},
        {"--layers", "N", "3-D layers (default 3)",
         flags::one(gp.num_layers, flags::kAnyInt)},
        {"--peak-bw", "MBPS", "most-loaded core aggregate (default 900)",
         flags::one(gp.peak_core_bw_mbps, flags::kAnyNumber)},
        {"--skew", "S", "bandwidth skew 0..4 (default 0)",
         flags::one(gp.bw_skew, flags::kAnyNumber)},
        {"--lat-slack", "S", "latency constraint scale (default 1.5)",
         flags::one(gp.latency_slack, flags::kAnyNumber)},
        {"--resp", "F", "response pairing fraction (default 0.5)",
         flags::one(gp.response_fraction, flags::kAnyNumber)},
        {"--hubs", "K", "hub family: hot cores (default 2)",
         flags::one(gp.num_hubs, flags::kAnyInt)},
        {"--hotspot", "F", "hub family: hub bw share (default 0.75)",
         flags::one(gp.hotspot_fraction, flags::kAnyNumber)},
        {"--stages", "N", "dag family: stage count (default 6)",
         flags::one(gp.stages, flags::kAnyInt)},
        {"--fanout", "N", "dag family: max fan-in (default 3)",
         flags::one(gp.max_fanout, flags::kAnyInt)},
    };
}

/// Distributed exploration (results are byte-identical to the
/// single-process run of the same grid).
struct ShardArgs {
    int shards = 0;  ///< 0 = single-process explore
    std::string transport = "inproc";
    std::vector<std::string> addrs;
    std::string cas_dir;
    long long cas_max_bytes = 0;
};

flags::Flags shard_flags(ShardArgs& d) {
    const flags::Parser<std::string> transport =
        [](const std::string& s, std::string& out) {
            out = s;
            return s == "inproc" || s == "socket";
        };
    const flags::Parser<std::string> address =
        [](const std::string& s, std::string& out) {
            out = s;
            return !s.empty();
        };
    return {
        {"--shards", "N", "split the grid into N contiguous shard jobs",
         flags::one(d.shards, flags::kPositiveInt)},
        {"--shard-transport", "inproc|socket",
         "socket ships shard jobs to sunfloord workers (default inproc)",
         flags::one(d.transport, transport, "inproc|socket")},
        {"--shard-addrs", "ADDR[,...]",
         "socket workers; the socket transport unless one is named",
         flags::list(d.addrs, address, "a worker address")},
        {"--cas", "DIR", "content-addressed artifact store for all shards",
         flags::text(d.cas_dir)},
        {"--cas-max-bytes", "N", "size bound handed to the shards' stores",
         flags::one(d.cas_max_bytes, flags::kNonNegative64)},
    };
}

flags::Flag connect_flag(std::string& connect) {
    return {"--connect", "ADDR", "sunfloord unix socket path or host:port",
            flags::text(connect)};
}

/// Load a design file, or a benchmark with the annealed placement the
/// benches use. Returns false (with a message on stderr) on failure.
bool load_spec(const Source& src, DesignSpec& spec) {
    if (!src.design.empty()) {
        const ParseResult parsed = parse_design_file(src.design);
        if (!parsed.ok) {
            std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
            return false;
        }
        spec = parsed.spec;
        return true;
    }
    try {
        spec = make_benchmark(src.benchmark);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(42);
    floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
    return true;
}

// ----------------------------------------------------------- subcommands

int run_generate(int argc, char** argv) {
    specgen::GenParams gp;
    long long seed = 1;
    std::string out_path;
    const flags::Command cmd{
        "sunfloor_cli generate --family F [options]",
        gen_flags(gp) +
            flags::Flags{
                {"--seed", "N", "generator seed (default 1)",
                 flags::one(seed, flags::kNonNegative64)},
                {"--out", "FILE", "write the spec file (default: stdout)",
                 flags::text(out_path)},
            }};
    const flags::Parsed args = flags::parse(cmd, argc, argv, 2);
    if (!args.ok) return flags::kUsageExit;
    if (!args.has("--family"))
        return flags::usage_error(
            cmd, "generate requires --family (expected " +
                     specgen::family_choices() + ")");

    DesignSpec spec;
    try {
        spec = specgen::generate(gp, static_cast<std::uint64_t>(seed));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    std::ostringstream os;
    write_design(os, spec);
    const std::string text = os.str();

    // Enforce the round-trip guarantee at run time: the emitted file must
    // parse back and re-serialize to exactly these bytes.
    std::istringstream is(text);
    const ParseResult rt = parse_design(is, spec.name);
    std::ostringstream os2;
    if (rt.ok) write_design(os2, rt.spec);
    if (!rt.ok || os2.str() != text) {
        std::fprintf(stderr,
                     "internal error: generated spec does not round-trip "
                     "(%s)\n",
                     rt.ok ? "reserialization differs" : rt.error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream f(out_path);
        if (!f || !(f << text) || !f.flush()) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::printf("wrote %s: %s, %d cores, %d layers, %d flows\n",
                    out_path.c_str(), spec.name.c_str(),
                    spec.cores.num_cores(), spec.cores.num_layers(),
                    spec.comm.num_flows());
    }
    return 0;
}

/// explore --family: the same architectural grid swept over every
/// generated member of a spec family (explore/family_sweep.h).
int run_explore_family(const specgen::GenParams& gp, int instances,
                       long long gen_seed, const SynthesisConfig& cfg,
                       const ParamGrid& grid, const ExploreOptions& opts,
                       const std::string& out_prefix) {
    std::printf("family %s: %d member(s), seeds %lld..%lld, %d cores, "
                "%d layers, skew %g\n",
                specgen::family_to_string(gp.family), instances, gen_seed,
                gen_seed + (instances - 1), gp.num_cores, gp.num_layers,
                gp.bw_skew);
    std::printf("grid: %zu architectural points per member\n",
                grid.cartesian_size());

    FamilySweepResult fam;
    try {
        fam = explore_generated_family(
            gp,
            family_seeds(static_cast<std::uint64_t>(gen_seed), instances),
            cfg, grid, opts);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    Table t({"seed", "spec", "cores", "flows", "valid", "pareto",
             "best_power_mw", "best_latency_cycles"});
    for (const auto& m : fam.members) {
        const ParetoEntry bp = m.result.best_power();
        double mw = -1.0;
        double lat = -1.0;
        if (bp.point_index >= 0) {
            const DesignPoint& dp = m.result.design(bp);
            mw = dp.report.power.total_mw();
            lat = dp.report.avg_latency_cycles;
        }
        t.add_row({static_cast<long long>(m.spec_seed), m.spec_name,
                   static_cast<long long>(m.num_cores),
                   static_cast<long long>(m.num_flows),
                   static_cast<long long>(m.result.stats.valid_designs),
                   static_cast<long long>(m.result.stats.pareto_size), mw,
                   lat});
    }
    std::printf("\n");
    t.write_pretty(std::cout);
    std::printf("\n%d/%zu member(s) feasible, %d valid designs, "
                "%d Pareto designs in %.0f ms\n",
                fam.feasible_members, fam.members.size(),
                fam.total_valid_designs, fam.total_pareto_designs,
                fam.elapsed_ms);

    if (!out_prefix.empty()) {
        if (!t.save_csv(out_prefix + "_family.csv")) {
            std::fprintf(stderr, "failed to write %s_family.csv\n",
                         out_prefix.c_str());
            return 1;
        }
        std::printf("wrote %s_family.csv\n", out_prefix.c_str());
    }
    if (fam.total_valid_designs == 0) {
        std::fprintf(stderr, "\nno valid design in any family member\n");
        return 1;
    }
    return 0;
}

int run_explore(int argc, char** argv) {
    Source src;
    service::JobParams p;
    ExploreOptions opts;
    opts.num_threads = 0;  // all cores
    specgen::GenParams gp;
    int instances = 4;
    long long gen_seed = 1;
    ShardArgs shard;
    std::string out_prefix;
    ObsSinks sinks;
    const flags::Flags sim_rows = traffic_flags(
        opts.sim,
        {"--rate", "S", "sim backend: injection scale (default 1.0)",
         flags::one(opts.sim.inject.injection_scale,
                    flags::kNonNegativeNumber)});
    const flags::Flags family_rows =
        gen_flags(gp) +
        flags::Flags{
            {"--instances", "N", "family members to generate (default 4)",
             flags::one(instances, flags::kPositiveInt)},
            {"--gen-seed", "N", "first member seed (default 1)",
             flags::one(gen_seed, flags::kNonNegative64)},
        };
    const flags::Command cmd{
        "sunfloor_cli explore (--design FILE | --benchmark NAME | "
        "--family F) [options]",
        source_flags(src) + knob_flags(p, Knobs::Grid) +
            flags::Flags{
                {"--threads", "N", "worker threads; 0 = all cores (default 0)",
                 flags::one(opts.num_threads, flags::kAnyInt)},
                {"--no-cache", "", "disable the evaluation cache",
                 flags::set_false(opts.use_cache)},
                {"--no-stage-reuse", "",
                 "recompute every pipeline stage per point",
                 flags::set_false(opts.reuse_stages)},
                {"--backend", "analytic|sim",
                 "Pareto ranking backend (default analytic)",
                 flags::one(opts.backend, flags::in(backend_from_string),
                            backend_choices())},
            } +
            sim_rows + shard_flags(shard) + family_rows +
            flags::Flags{{"--out", "PREFIX",
                          "write PREFIX_explore.csv, PREFIX_explore.json "
                          "(PREFIX_family.csv with --family)",
                          flags::text(out_prefix)}} +
            sinks.flags()};
    const flags::Parsed args = flags::parse(cmd, argc, argv, 2);
    if (!args.ok) return flags::kUsageExit;
    const auto first_seen = [&](const flags::Flags& rows) -> std::string {
        for (const flags::Flag& f : rows)
            if (f.name != "--family" && args.has(f.name)) return f.name;
        return "";
    };
    const bool family = args.has("--family");
    if (family ? !(src.design.empty() && src.benchmark.empty()) : !src.one())
        return flags::usage_error(
            cmd, "give exactly one of --design, --benchmark, --family");
    if (const std::string f = first_seen(sim_rows);
        !f.empty() && opts.backend != EvalBackend::Simulated) {
        std::fprintf(stderr,
                     "%s only affects the simulated backend; add "
                     "--backend sim\n",
                     f.c_str());
        return 2;
    }
    if (const std::string f = first_seen(family_rows);
        !f.empty() && !family) {
        std::fprintf(stderr,
                     "%s only affects generated families; add --family\n",
                     f.c_str());
        return 2;
    }
    // Member seeds are gen_seed .. gen_seed + instances - 1, all < 2^63.
    if (gen_seed > std::numeric_limits<long long>::max() - (instances - 1)) {
        std::fprintf(stderr,
                     "bad --gen-seed value '%lld' (expected at most "
                     "2^63 - %d with --instances %d)\n",
                     gen_seed, instances, instances);
        return 2;
    }
    if (shard.shards == 0 && !shard.addrs.empty())
        shard.shards = static_cast<int>(shard.addrs.size());
    if (shard.shards == 0 && args.has("--shard-transport")) {
        std::fprintf(stderr,
                     "--shard-transport only affects distributed runs; add "
                     "--shards\n");
        return 2;
    }
    if (family && (shard.shards > 0 || !shard.cas_dir.empty())) {
        std::fprintf(stderr,
                     "--shards/--cas do not apply to generated families\n");
        return 2;
    }
    // --shard-addrs picks the socket transport unless one is named.
    const bool shard_socket =
        shard.transport == "socket" ||
        (!args.has("--shard-transport") && !shard.addrs.empty());
    if (shard_socket && shard.addrs.empty()) {
        std::fprintf(stderr,
                     "--shard-transport socket requires --shard-addrs\n");
        return 2;
    }

    const service::ExploreSetup setup = service::explore_setup(p);
    opts.base_seed = setup.seed;
    if (!sinks.open()) return 1;

    if (family) {
        const int rc = run_explore_family(gp, instances, gen_seed, setup.cfg,
                                          setup.grid, opts, out_prefix);
        if (!sinks.finish() && rc == 0) return 1;
        return rc;
    }

    DesignSpec spec;
    if (!load_spec(src, spec)) return 1;
    std::printf("design '%s': %d cores, %d layers, %d flows\n",
                spec.name.c_str(), spec.cores.num_cores(),
                spec.cores.num_layers(), spec.comm.num_flows());
    std::printf("grid: %zu architectural points\n",
                setup.grid.cartesian_size());

    ExploreResult res;
    if (shard.shards > 0) {
        std::vector<std::shared_ptr<dist::ShardTransport>> workers;
        if (shard_socket) {
            for (const std::string& a : shard.addrs)
                workers.push_back(std::make_shared<dist::SocketTransport>(a));
        } else {
            for (int s = 0; s < shard.shards; ++s)
                workers.push_back(std::make_shared<dist::InprocTransport>());
        }
        dist::DistOptions dopts;
        dopts.shards = shard.shards;
        dopts.cas_dir = shard.cas_dir;
        dopts.cas_max_bytes =
            static_cast<std::uint64_t>(shard.cas_max_bytes);
        std::printf("distributing %d shard job(s) over %zu %s worker(s)\n",
                    shard.shards, workers.size(),
                    shard_socket ? "socket" : "inproc");
        try {
            res = dist::distribute_explore(spec, setup.cfg, opts,
                                           setup.grid.enumerate(), workers,
                                           dopts);
        } catch (const dist::DistError& e) {
            std::fprintf(stderr, "distributed explore failed (%s): %s\n",
                         dist::dist_error_kind_to_string(e.kind()),
                         e.what());
            return 1;
        }
    } else if (!shard.cas_dir.empty()) {
        pipeline::SessionOptions sopts;
        try {
            sopts.cas = std::make_shared<cas::Store>(cas::StoreOptions{
                shard.cas_dir,
                static_cast<std::uint64_t>(shard.cas_max_bytes), 60.0});
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        auto session = std::make_shared<pipeline::SynthesisSession>(
            spec, std::move(sopts));
        const Explorer explorer(std::move(session), setup.cfg, opts);
        res = explorer.run(setup.grid);
    } else {
        const Explorer explorer(spec, setup.cfg, opts);
        res = explorer.run(setup.grid);
    }
    if (!sinks.finish()) return 1;

    const auto& st = res.stats;
    std::printf(
        "\nexplored %d points on %d thread(s) in %.0f ms "
        "(%d evaluated, %d cache hits)\n",
        st.total_points, st.num_threads, st.elapsed_ms, st.evaluated_points,
        st.cache_hits);
    std::printf("%d/%d valid designs, global Pareto front: %d points\n",
                st.valid_designs, st.total_designs, st.pareto_size);
    const auto& sg = st.stage;
    if (sg.partition.calls() + sg.routing.calls() > 0)
        std::printf(
            "stage reuse: partition %lld/%lld hits (%.0f ms computing), "
            "routing %lld/%lld (%.0f ms), placement %lld/%lld (%.0f ms, "
            "LP %lld/%lld, %.0f ms), evaluation %lld/%lld (%.0f ms)\n",
            sg.partition.hits, sg.partition.calls(),
            sg.partition.compute_ms, sg.routing.hits, sg.routing.calls(),
            sg.routing.compute_ms, sg.placement.hits, sg.placement.calls(),
            sg.placement.compute_ms, sg.position_lp.hits,
            sg.position_lp.calls(), sg.position_lp.compute_ms,
            sg.evaluation.hits, sg.evaluation.calls(),
            sg.evaluation.compute_ms);
    const bool simulated = st.backend == EvalBackend::Simulated;
    if (simulated)
        std::printf("simulated %d designs (%s traffic, rate %.2f, "
                    "%d-flit packets); front ranked by measured latency\n",
                    st.simulated_designs,
                    sim::traffic_to_string(opts.sim.inject.traffic),
                    opts.sim.inject.injection_scale,
                    opts.sim.inject.packet_length_flits);

    std::vector<std::string> cols{"label", "switches", "power_mw",
                                  "latency_cycles", "area_mm2"};
    if (simulated) cols.insert(cols.begin() + 4, "sim_latency_cycles");
    Table front(cols);
    for (const auto& e : res.pareto) {
        const auto& pr = res.points[static_cast<std::size_t>(e.point_index)];
        const DesignPoint& dp = res.design(e);
        std::vector<Cell> row{pr.point.label(),
                              static_cast<long long>(dp.switch_count),
                              dp.report.power.total_mw(),
                              dp.report.avg_latency_cycles,
                              dp.report.noc_area_mm2()};
        if (simulated) {
            const sim::SimReport* sr = pr.sim_report(e.design_index);
            row.insert(row.begin() + 4,
                       sr ? sr->avg_latency_cycles : -1.0);
        }
        front.add_row(std::move(row));
    }
    std::printf("\n");
    front.write_pretty(std::cout);

    // Export before the validity check: the fail_reason column is most
    // useful exactly when nothing in the grid was feasible.
    if (!out_prefix.empty()) {
        if (!save_explore_csv(out_prefix + "_explore.csv", res) ||
            !save_explore_json(out_prefix + "_explore.json", res,
                               spec.name)) {
            std::fprintf(stderr, "failed to write %s_explore.{csv,json}\n",
                         out_prefix.c_str());
            return 1;
        }
        std::printf("wrote %s_explore.csv, %s_explore.json\n",
                    out_prefix.c_str(), out_prefix.c_str());
    }

    const ParetoEntry bp = res.best_power();
    if (bp.point_index < 0) {
        std::fprintf(stderr, "\nno valid design point anywhere in the grid\n");
        return 1;
    }
    const auto& bpr =
        res.points[static_cast<std::size_t>(bp.point_index)];
    const DesignPoint& bdp = res.design(bp);
    std::printf("\noverall best: %s, %d switches, %.2f mW NoC power, "
                "%.2f cycles\n",
                bpr.point.label().c_str(), bdp.switch_count,
                bdp.report.power.noc_mw(), bdp.report.avg_latency_cycles);
    return 0;
}

int run_simulate(int argc, char** argv) {
    Source src;
    service::JobParams p;
    sim::SimParams sp;
    std::vector<double> rates{0.25, 0.5, 0.75, 1.0};
    std::string out_prefix;
    ObsSinks sinks;
    const flags::Command cmd{
        "sunfloor_cli simulate (--design FILE | --benchmark NAME) [options]",
        source_flags(src) + knob_flags(p, Knobs::Point) +
            traffic_flags(sp, {"--rate", "S[,...]",
                               "injection-scale sweep (default "
                               "0.25,0.5,0.75,1.0)",
                               flags::list(rates, flags::kNonNegativeNumber)}) +
            flags::Flags{
                {"--buffers", "FLITS", "per-link FIFO depth (default 4)",
                 flags::one(sp.buffer_depth_flits, flags::kPositiveInt)},
                {"--warmup", "CYCLES", "warmup phase (default "
                                       "2000)",
                 flags::one(sp.warmup_cycles, flags::kNonNegative64)},
                {"--measure", "CYCLES",
                 "measurement window (default 10000)",
                 flags::one(sp.measure_cycles, flags::kPositive64)},
                {"--out", "PREFIX", "write PREFIX_sim.csv",
                 flags::text(out_prefix)},
            } +
            sinks.flags()};
    const flags::Parsed args = flags::parse(cmd, argc, argv, 2);
    if (!args.ok) return flags::kUsageExit;
    if (!src.one())
        return flags::usage_error(cmd,
                                  "give exactly one of --design, --benchmark");
    if (!sinks.open()) return 1;

    DesignSpec spec;
    if (!load_spec(src, spec)) return 1;
    const service::SynthSetup setup = service::synth_setup(p);
    const SynthesisConfig& cfg = setup.cfg;
    sp.seed = cfg.seed;
    sp.routing = cfg.routing;  // measure under the synthesis discipline
    std::printf("design '%s': %d cores, %d layers, %d flows\n",
                spec.name.c_str(), spec.cores.num_cores(),
                spec.cores.num_layers(), spec.comm.num_flows());

    const SynthesisResult res = run_synthesis(spec, cfg, setup.phase);
    const int best = res.best_power_index();
    if (best < 0) {
        std::fprintf(stderr, "no valid design point to simulate\n");
        return 1;
    }
    const DesignPoint& dp = res.points[static_cast<std::size_t>(best)];
    std::printf("simulating best design: %d switches, %.2f mW total, "
                "zero-load %.2f cycles, at %.0f MHz\n",
                dp.switch_count, dp.report.power.total_mw(),
                dp.report.avg_latency_cycles, cfg.eval.freq_hz / 1e6);
    std::printf("traffic %s, routing %s, %d-flit packets, %d-flit buffers, "
                "%lld warmup + %lld measured cycles\n\n",
                sim::traffic_to_string(sp.inject.traffic),
                routing::routing_to_string(sp.routing),
                sp.inject.packet_length_flits, sp.buffer_depth_flits,
                sp.warmup_cycles, sp.measure_cycles);

    Table t({"rate", "offered_fpc", "accepted_fpc", "avg_latency",
             "p99_latency", "max_latency", "packets", "drained"});
    // One simulator for the whole sweep: the rate only changes SimParams,
    // so every point replays against the same immutable SimIndex and the
    // warmed engine's arenas instead of rebuilding both per rate.
    sim::Simulator simulator(dp.topo, spec, cfg.eval, sp.routing);
    for (double r : rates) {
        sim::SimParams at = sp;
        at.inject.injection_scale = r;
        const sim::SimReport rep = simulator.run(spec, cfg.eval, at);
        t.add_row({r, rep.offered_flits_per_cycle,
                   rep.accepted_flits_per_cycle, rep.avg_latency_cycles,
                   rep.p99_latency_cycles, rep.max_latency_cycles,
                   static_cast<long long>(rep.received_packets),
                   static_cast<long long>(rep.drained ? 1 : 0)});
    }
    if (!sinks.finish()) return 1;
    t.write_pretty(std::cout);

    if (!out_prefix.empty()) {
        if (!t.save_csv(out_prefix + "_sim.csv")) {
            std::fprintf(stderr, "failed to write %s_sim.csv\n",
                         out_prefix.c_str());
            return 1;
        }
        std::printf("\nwrote %s_sim.csv\n", out_prefix.c_str());
    }
    return 0;
}

int run_synthesize(int argc, char** argv) {
    Source src;
    service::JobParams p;
    std::string out_prefix;
    bool list_benchmarks = false;
    ObsSinks sinks;
    const flags::Command cmd{
        "sunfloor_cli (--design FILE | --benchmark NAME) [options]\n"
        "       sunfloor_cli explore|simulate|generate|submit|status|result|"
        "cas ...\n"
        "       (each subcommand prints its own options)",
        source_flags(src) + knob_flags(p, Knobs::FreqSweep) +
            flags::Flags{
                {"--out", "PREFIX",
                 "write PREFIX_topology.dot, PREFIX_layer<k>.svg, "
                 "PREFIX_points.csv",
                 flags::text(out_prefix)},
                {"--list-benchmarks", "",
                 "print the built-in benchmark names and exit",
                 flags::set_true(list_benchmarks)},
            } +
            sinks.flags()};
    const flags::Parsed args = flags::parse(cmd, argc, argv, 1);
    if (!args.ok) return flags::kUsageExit;
    if (list_benchmarks) {
        for (const auto& n : benchmark_names()) std::puts(n.c_str());
        return 0;
    }
    if (!src.one())
        return flags::usage_error(cmd,
                                  "give exactly one of --design, --benchmark");
    if (!sinks.open()) return 1;

    DesignSpec spec;
    if (!load_spec(src, spec)) return 1;
    const service::SynthSetup setup = service::synth_setup(p);
    std::vector<double> freqs_hz;
    for (const double mhz : p.freq_mhz) freqs_hz.push_back(mhz * 1e6);
    if (freqs_hz.empty()) freqs_hz.push_back(setup.cfg.eval.freq_hz);
    std::printf("design '%s': %d cores, %d layers, %d flows\n",
                spec.name.c_str(), spec.cores.num_cores(),
                spec.cores.num_layers(), spec.comm.num_flows());

    Synthesizer synth(spec, setup.cfg);
    const auto sweep = synth.run_frequency_sweep(freqs_hz, setup.phase);
    if (!sinks.finish()) return 1;
    for (const auto& fp : sweep) {
        std::printf("\n=== %.0f MHz ===\n", fp.freq_hz / 1e6);
        write_synthesis_report(std::cout, fp.result);
    }
    const auto [fi, pi] = best_power_over_sweep(sweep);
    if (fi < 0) {
        std::fprintf(stderr, "no valid design point at any frequency\n");
        return 1;
    }
    const auto& bp = sweep[static_cast<std::size_t>(fi)]
                         .result.points[static_cast<std::size_t>(pi)];
    std::printf(
        "\noverall best: %.0f MHz, %d switches, %.2f mW NoC power, "
        "%.2f cycles\n",
        sweep[static_cast<std::size_t>(fi)].freq_hz / 1e6, bp.switch_count,
        bp.report.power.noc_mw(), bp.report.avg_latency_cycles);

    if (!out_prefix.empty()) {
        save_topology_dot(out_prefix + "_topology.dot", bp.topo, spec);
        for (int ly = 0; ly < spec.cores.num_layers(); ++ly)
            save_layer_svg(out_prefix + "_layer" + std::to_string(ly) + ".svg",
                           bp.topo, spec, ly);
        design_points_table(sweep[static_cast<std::size_t>(fi)].result.points)
            .save_csv(out_prefix + "_points.csv");
        std::printf("wrote %s_topology.dot, %s_layer*.svg, %s_points.csv\n",
                    out_prefix.c_str(), out_prefix.c_str(),
                    out_prefix.c_str());
    }
    return 0;
}

/// One request/response round trip to a sunfloord. False (message
/// printed) on connect/transport failure.
bool service_call(const std::string& connect, const std::string& frame,
                  JsonValue& resp) {
    service::Client client;
    std::string err;
    if (!client.connect(connect, err)) {
        std::fprintf(stderr, "cannot connect to %s: %s\n", connect.c_str(),
                     err.c_str());
        return false;
    }
    if (!client.call(frame, resp, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    return true;
}

/// Print a server-side error/rejection. Returns the exit code: 3 for a
/// typed admission rejection (retryable), 1 otherwise.
int report_server_error(const JsonValue& resp) {
    const JsonValue* rej = resp.find("rejected");
    const JsonValue* err = resp.find("error");
    const std::string msg =
        err && err->is_string() ? err->as_string() : "unknown error";
    if (rej && rej->is_string()) {
        std::fprintf(stderr, "rejected (%s): %s\n",
                     rej->as_string().c_str(), msg.c_str());
        return 3;
    }
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    return 1;
}

/// Print a terminal job's result payload: the CSV (byte-identical to the
/// one-shot CLI's table) on stdout, or the failure on stderr.
int print_result_payload(const JsonValue& resp) {
    const JsonValue* status = resp.find("status");
    const JsonValue* result = resp.find("result");
    if (status && status->is_string() &&
        status->as_string() == "failed") {
        const JsonValue* e = result ? result->find("error") : nullptr;
        std::fprintf(stderr, "job failed: %s\n",
                     e && e->is_string() ? e->as_string().c_str()
                                         : "unknown error");
        return 1;
    }
    const JsonValue* csv = result ? result->find("csv") : nullptr;
    if (!csv || !csv->is_string()) {
        std::fprintf(stderr, "malformed response: no result csv\n");
        return 1;
    }
    std::fputs(csv->as_string().c_str(), stdout);
    return 0;
}

int run_submit(int argc, char** argv) {
    std::string connect;
    Source src;
    service::SubmitRequest sr;
    bool explore = false;
    const flags::Command cmd{
        "sunfloor_cli submit --connect ADDR (--design FILE | --benchmark "
        "NAME) [options]",
        flags::Flags{connect_flag(connect)} + source_flags(src) +
            flags::Flags{
                {"--client", "NAME", "client name for quota accounting",
                 flags::text(sr.client)},
                {"--explore", "",
                 "submit an explore job (axes take comma lists)",
                 flags::set_true(explore)},
            } +
            knob_flags(sr.params, Knobs::Grid) +
            flags::Flags{{"--wait", "",
                          "block until done; the result CSV goes to stdout",
                          flags::set_true(sr.wait)}}};
    const flags::Parsed args = flags::parse(cmd, argc, argv, 2);
    if (!args.ok) return flags::kUsageExit;
    if (connect.empty())
        return flags::usage_error(cmd, "submit requires --connect");
    if (!src.one())
        return flags::usage_error(cmd,
                                  "give exactly one of --design, --benchmark");
    sr.kind = explore ? service::JobKind::Explore : service::JobKind::Synth;

    DesignSpec spec;
    if (!load_spec(src, spec)) return 1;
    std::ostringstream os;
    write_design(os, spec);
    sr.spec_text = os.str();
    sr.spec_name = spec.name;

    JsonValue resp;
    if (!service_call(connect, service::make_submit_frame(sr), resp))
        return 1;
    const JsonValue* ok = resp.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool())
        return report_server_error(resp);
    if (!sr.wait) {
        const JsonValue* id = resp.find("id");
        std::printf("%lld\n",
                    id && id->is_integer() ? id->as_int64() : -1LL);
        return 0;
    }
    return print_result_payload(resp);
}

/// status and result share the flag surface; `result_op` selects the op
/// and the output (human status line vs the raw result CSV).
int run_job_query(int argc, char** argv, bool result_op) {
    std::string connect;
    long long id = -1;
    bool wait = false;
    flags::Command cmd{
        std::string("sunfloor_cli ") + (result_op ? "result" : "status") +
            " --connect ADDR --id N" + (result_op ? " [--wait]" : ""),
        {connect_flag(connect),
         {"--id", "N", "job id", flags::one(id, flags::kNonNegative64)}}};
    if (result_op)
        cmd.flags.push_back({"--wait", "", "block until the job is done",
                             flags::set_true(wait)});
    const flags::Parsed args = flags::parse(cmd, argc, argv, 2);
    if (!args.ok) return flags::kUsageExit;
    if (connect.empty() || id < 0)
        return flags::usage_error(
            cmd, std::string(result_op ? "result" : "status") +
                     " requires --connect and --id");
    const std::string frame =
        result_op
            ? service::make_result_frame(static_cast<std::uint64_t>(id),
                                         wait)
            : service::make_status_frame(static_cast<std::uint64_t>(id));
    JsonValue resp;
    if (!service_call(connect, frame, resp)) return 1;
    const JsonValue* ok = resp.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool())
        return report_server_error(resp);
    if (result_op) return print_result_payload(resp);

    const JsonValue* status = resp.find("status");
    const JsonValue* kind = resp.find("kind");
    const JsonValue* wait_ms = resp.find("wait_ms");
    const JsonValue* run_ms = resp.find("run_ms");
    std::printf("job %lld: %s (%s, wait %.1f ms, run %.1f ms)\n", id,
                status && status->is_string() ? status->as_string().c_str()
                                              : "?",
                kind && kind->is_string() ? kind->as_string().c_str()
                                          : "?",
                wait_ms && wait_ms->is_number() ? wait_ms->as_double()
                                                : 0.0,
                run_ms && run_ms->is_number() ? run_ms->as_double() : 0.0);
    return 0;
}

/// `cas stats` / `cas gc`: operator surface of the content-addressed
/// artifact store (see cas/store.h). stats scans the packs; gc removes
/// old-layout debris and evicts LRU packs down to --max-bytes. Neither
/// creates a store: a DIR that is not an existing directory is an error.
int run_cas(int argc, char** argv) {
    std::string dir;
    long long max_bytes = 0;
    const flags::Command cmd{
        "sunfloor_cli cas (stats | gc) --cas DIR [--max-bytes N]",
        {{"--cas", "DIR", "the store directory", flags::text(dir)},
         {"--max-bytes", "N", "gc: evict LRU packs down to this bound",
          flags::one(max_bytes, flags::kNonNegative64)}}};
    const std::string op = argc > 2 ? argv[2] : "";
    if (op != "stats" && op != "gc")
        return flags::usage_error(
            cmd, "unknown cas operation '" + op + "' (expected stats|gc)");
    if (!flags::parse(cmd, argc, argv, 3).ok) return flags::kUsageExit;
    if (dir.empty())
        return flags::usage_error(cmd, "cas " + op + " requires --cas DIR");
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
        std::fprintf(stderr, "no store at %s\n", dir.c_str());
        return 1;
    }
    try {
        cas::Store store(cas::StoreOptions{
            dir, static_cast<std::uint64_t>(max_bytes), 60.0});
        if (op == "gc") {
            const cas::GcResult g = store.gc();
            std::printf("gc %s: evicted %llu pack(s) (%.2f MB), "
                        "removed %llu debris file(s)\n",
                        dir.c_str(),
                        static_cast<unsigned long long>(g.evicted_packs),
                        static_cast<double>(g.evicted_bytes) / 1e6,
                        static_cast<unsigned long long>(g.removed_debris));
        }
        const cas::StoreStats s = store.stats();
        std::printf("%s: %llu object(s), %.2f MB",
                    dir.c_str(),
                    static_cast<unsigned long long>(s.objects),
                    static_cast<double>(s.object_bytes) / 1e6);
        if (s.packs > 0)
            std::printf(" in %llu pack(s) of %.2f MB",
                        static_cast<unsigned long long>(s.packs),
                        static_cast<double>(s.pack_bytes) / 1e6);
        if (s.debris_files > 0)
            std::printf("; %llu debris file(s), %.2f MB",
                        static_cast<unsigned long long>(s.debris_files),
                        static_cast<double>(s.debris_bytes) / 1e6);
        if (max_bytes > 0)
            std::printf("; bound %.2f MB",
                        static_cast<double>(max_bytes) / 1e6);
        std::printf("\n");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]) == "cas")
        return run_cas(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "explore")
        return run_explore(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "simulate")
        return run_simulate(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "generate")
        return run_generate(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "submit")
        return run_submit(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "status")
        return run_job_query(argc, argv, /*result_op=*/false);
    if (argc > 1 && std::string(argv[1]) == "result")
        return run_job_query(argc, argv, /*result_op=*/true);
    return run_synthesize(argc, argv);
}
