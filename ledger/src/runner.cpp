#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "split.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/json.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_COMPILER
#define LEDGER_COMPILER "unknown"
#endif
#ifndef LEDGER_GIT_SHA
#define LEDGER_GIT_SHA "none"
#endif

namespace ledger {
namespace {

using sunfloor::json_quote;

/// Set-ups per run. One comes first; more follow passes, one after a
/// pass, while set-up time stays under kSetupShare of the run so far —
/// so the samples spread over the same stretch of host time as the
/// passes. At least kMinSetups; setup_s is their median.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;
/// Passes every run makes at least, however long they take.
constexpr int kMinPasses = 3;

/// Registry state after a pass: every counter (the determinism guard's
/// input) and every histogram's sum.
struct RegistrySnapshot {
    Counts counters;
    std::map<std::string, double> histogram_sums;
};

RegistrySnapshot snapshot_registry() {
    RegistrySnapshot snap;
    const sunfloor::JsonParseResult doc = sunfloor::parse_json(
        sunfloor::obs::Registry::global().to_json());
    if (!doc.ok) throw std::runtime_error("registry snapshot: " + doc.error);
    if (const sunfloor::JsonValue* c = doc.value.find("counters"))
        for (const auto& [name, v] : c->members())
            snap.counters[name] = v.as_int64();
    if (const sunfloor::JsonValue* h = doc.value.find("histograms"))
        for (const auto& [name, v] : h->members())
            if (const sunfloor::JsonValue* sum = v.find("sum"))
                snap.histogram_sums[name] = sum->as_double();
    return snap;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One measured pass and the registry state it left.
struct PassRecord {
    PassOutcome out;
    double wall_ms = 0.0;
    Counts counts;
    RegistrySnapshot registry;
};

PassRecord run_pass(Workload& wl) {
    wl.prepare_pass();
    sunfloor::obs::Registry::global().reset();
    PassRecord rec;
    const std::int64_t t0 = now_ns();
    {
        sunfloor::obs::ScopedSpan span("bench.pass");
        rec.out = wl.pass();
    }
    rec.wall_ms = ms_since(t0);
    rec.registry = snapshot_registry();
    rec.counts = rec.registry.counters;
    for (const auto& [name, n] : rec.out.counts) rec.counts[name] = n;
    return rec;
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_array(const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + fmt(v[i]);
    return s + "]";
}

double ratio(long long num, long long den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
}

/// Span names whose self time the split reports, as "<name>.self_ms".
/// What the pass spends outside them is the remainder.
const char* const kSelfSpans[] = {
    "pipeline.partition",   "pipeline.assignment", "pipeline.routing",
    "pipeline.placement",   "pipeline.position_lp", "lp.solve",
    "pipeline.floorplan",   "pipeline.evaluation", "explore.point",
    "explore.pareto",       "sim.warmup",          "sim.measure",
    "sim.drain",            "service.request",     "service.job",
    "dist.explore",         "dist.shard",
};

const char* const kStages[] = {"partition", "routing", "placement",
                               "position_lp", "evaluation"};

/// The per-layer metrics of a traced pass.
std::vector<Metric> layer_metrics(const PassRecord& traced,
                                  const TraceSplit& split,
                                  double traced_pass_ms,
                                  double untraced_pass_ms,
                                  const std::map<std::string, double>& probes,
                                  const std::vector<PassRecord>& passes) {
    std::vector<Metric> m;
    const auto span = [&](const char* name) {
        const auto it = split.spans.find(name);
        return it == split.spans.end() ? SpanStat() : it->second;
    };
    const auto count = [&](const std::string& name) {
        const auto it = traced.counts.find(name);
        return it == traced.counts.end() ? 0LL : it->second;
    };
    const auto layer = [&](const std::string& name) {
        const auto it = traced.out.layer_ms.find(name);
        if (it != traced.out.layer_ms.end()) return it->second;
        const auto pt = probes.find(name);
        return pt == probes.end() ? 0.0 : pt->second;
    };

    m.push_back({"pass_ms", traced.wall_ms, "ms"});
    double listed = 0.0;
    for (const char* name : kSelfSpans) {
        const double self = span(name).self_ms;
        listed += self;
        m.push_back({std::string(name) + ".self_ms", self, "ms"});
    }
    m.push_back({"remainder_ms", traced.wall_ms - listed, "ms"});
    m.push_back({"obs.trace_overhead_pct",
                 100.0 * (traced_pass_ms - untraced_pass_ms) /
                     untraced_pass_ms,
                 "%"});

    for (const char* stage : kStages) {
        const std::string p = std::string("pipeline.") + stage;
        const long long hits = count(p + ".hits");
        const long long misses = count(p + ".misses");
        m.push_back({p + ".hits", static_cast<double>(hits), "count"});
        m.push_back({p + ".misses", static_cast<double>(misses), "count"});
        m.push_back({p + ".hit_ratio", ratio(hits, hits + misses), "ratio"});
    }
    m.push_back({"lp.solves", static_cast<double>(count("lp.solves")),
                 "count"});
    m.push_back({"lp.iterations",
                 static_cast<double>(count("lp.iterations")), "count"});

    const long long flits = count("sim.received_flits");
    const double sim_ms = span("sim.warmup").total_ms +
                          span("sim.measure").total_ms +
                          span("sim.drain").total_ms;
    m.push_back({"sim.cycles", static_cast<double>(count("sim.cycles")),
                 "count"});
    m.push_back({"sim.flits", static_cast<double>(flits), "count"});
    m.push_back({"sim.ns_per_flit",
                 flits > 0 ? sim_ms * 1e6 / static_cast<double>(flits) : 0.0,
                 "ns"});
    m.push_back({"sim.index_build_ms", layer("sim.index_build_ms"), "ms"});

    const auto hist = [&](const char* name) {
        const auto it = traced.registry.histogram_sums.find(name);
        return it == traced.registry.histogram_sums.end() ? 0.0 : it->second;
    };
    m.push_back({"service.job.ms", span("service.job").total_ms, "ms"});
    m.push_back({"service.wait_ms", hist("service.job.wait_ms"), "ms"});
    m.push_back({"service.transport_ms",
                 span("bench.call").total_ms -
                     span("service.request").total_ms,
                 "ms"});
    m.push_back({"service.protocol_ms", layer("service.protocol_ms"), "ms"});
    m.push_back({"service.rejected",
                 static_cast<double>(count("service.rejected.queue_full") +
                                     count("service.rejected.quota") +
                                     count("service.rejected.shutdown")),
                 "count"});
    m.push_back({"service.coalesced",
                 static_cast<double>(count("service.coalesced.total")),
                 "count"});
    // Request-class latencies come from the untraced passes.
    std::map<std::string, std::vector<double>> classes;
    std::vector<double> calls;
    for (const PassRecord& p : passes)
        for (const auto& [cls, v] : p.out.class_ms) {
            classes[cls].insert(classes[cls].end(), v.begin(), v.end());
            calls.insert(calls.end(), v.begin(), v.end());
        }
    for (const char* cls : {"warm", "near", "cold"}) {
        const auto it = classes.find(cls);
        m.push_back({std::string("service.") + cls + "_p50_ms",
                     it == classes.end() ? 0.0 : median(it->second), "ms"});
    }
    m.push_back({"service.tail_ms", tail(calls).value, "ms"});

    m.push_back({"dist.cold_pass_ms", layer("dist.cold_pass_ms"), "ms"});
    m.push_back({"dist.warm_pass_ms", layer("dist.warm_pass_ms"), "ms"});
    m.push_back({"dist.rpc_ms", layer("dist.rpc_ms"), "ms"});
    m.push_back({"dist.codec_ms", layer("dist.codec_ms"), "ms"});

    for (const char* c : {"cas.hits", "cas.misses", "cas.stores",
                          "cas.corrupt", "cas.object_bytes"})
        m.push_back({c, static_cast<double>(count(c)),
                     std::string(c) == "cas.object_bytes" ? "bytes"
                                                          : "count"});
    m.push_back({"cas.warm_hit_ratio",
                 ratio(count("cas.warm_hits"),
                       count("cas.warm_hits") + count("cas.warm_misses")),
                 "ratio"});
    return m;
}

/// The context stamp: build type, compiler and version, source revision,
/// CPU count.
std::string context_json() {
    return std::string("{\"build_type\":") + json_quote(LEDGER_BUILD_TYPE) +
           ",\"compiler\":" + json_quote(LEDGER_COMPILER) +
           ",\"git_sha\":" + json_quote(LEDGER_GIT_SHA) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

}  // namespace

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    if (v.size() <= beyond) {
        t.value = v.back();
        return t;
    }
    const std::size_t k = v.size() - beyond - 1;
    t.value = v[k];
    t.percentile =
        100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size());
    return t;
}

std::vector<std::string> count_differences(const Counts& want,
                                           const Counts& got) {
    std::vector<std::string> diff;
    for (const auto& [name, n] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second != n) diff.push_back(name);
    }
    for (const auto& [name, n] : got)
        if (!want.count(name)) diff.push_back(name);
    return diff;
}

RunResult run_ledger(const RunConfig& cfg) {
    WorkloadOptions wopts;
    wopts.seed = cfg.seed;
    wopts.work_dir = cfg.work_dir;
    std::unique_ptr<Workload> wl = make_workload(cfg.workload, wopts);
    if (!wl) throw std::invalid_argument("unknown workload " + cfg.workload);
    return run_workload(*wl, cfg);
}

RunResult run_workload(Workload& wl, const RunConfig& cfg) {
    RunResult res;
    std::vector<std::string> problems;

    std::vector<double> setups;
    const auto timed_setup = [&] {
        const std::int64_t t0 = now_ns();
        wl.setup();
        setups.push_back(ms_since(t0) / 1e3);
    };
    timed_setup();
    wl.prepare_references();

    // Every pass is checked against the first: same layer counts, same
    // output bytes; the default seed's bytes are also pinned.
    std::vector<PassRecord> passes;
    const std::string pinned =
        cfg.seed == kDefaultSeed ? wl.pinned_digest() : std::string();
    const auto check = [&](PassRecord& rec) {
        const PassRecord& first = passes.empty() ? rec : passes.front();
        for (const std::string& name :
             count_differences(first.counts, rec.counts))
            problems.push_back("count " + name + " changed between passes");
        const std::string& want = pinned.empty() ? first.out.digest : pinned;
        if (rec.out.digest != want) {
            rec.out.failed = rec.out.attempted;
            problems.push_back("output digest " + rec.out.digest +
                               " != " + want);
        }
        if (!rec.out.error.empty()) problems.push_back(rec.out.error);
        res.attempted += rec.out.attempted;
        res.failed += rec.out.failed;
    };

    // With tracing, untraced and traced passes alternate, so the traced
    // ones see the same host conditions as their untraced neighbours.
    struct TracedPass {
        PassRecord rec;
        TraceSplit split;
    };
    std::vector<TracedPass> traced;
    const std::int64_t start = now_ns();
    double setup_ms = 0.0;  // set-up time spent since `start`
    while (static_cast<int>(passes.size()) < kMinPasses ||
           ms_since(start) < cfg.seconds * 1e3) {
        if (setup_ms < kSetupShare * ms_since(start)) {
            timed_setup();
            setup_ms += setups.back() * 1e3;
        }
        PassRecord rec = run_pass(wl);
        check(rec);
        passes.push_back(std::move(rec));
        if (!cfg.trace) continue;
        sunfloor::obs::start_tracing();
        TracedPass tp{run_pass(wl), {}};
        std::ostringstream trace;
        sunfloor::obs::stop_tracing(trace);
        check(tp.rec);
        tp.split = split_trace(trace.str());
        if (!tp.split.balanced)
            problems.push_back("unbalanced trace: " + tp.split.error);
        traced.push_back(std::move(tp));
    }

    while (setups.size() < kMinSetups) timed_setup();

    std::vector<double> pass_ms, rates, ops;
    for (const PassRecord& p : passes) {
        pass_ms.push_back(p.wall_ms);
        rates.push_back(static_cast<double>(p.out.items) /
                        (p.wall_ms / 1e3));
        ops.insert(ops.end(), p.out.op_ms.begin(), p.out.op_ms.end());
    }

    std::string split_json;
    if (!cfg.trace) {
        res.metrics = {
            {"items_per_s", median(rates), "1/s"},
            {"op_p50_ms", median(ops), "ms"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        // The split of the median-time traced pass; the overhead compares
        // the traced and untraced medians.
        std::vector<double> traced_ms;
        for (const TracedPass& tp : traced) traced_ms.push_back(tp.rec.wall_ms);
        std::sort(traced.begin(), traced.end(),
                  [](const TracedPass& a, const TracedPass& b) {
                      return a.rec.wall_ms < b.rec.wall_ms;
                  });
        const TracedPass& mid = traced[(traced.size() - 1) / 2];
        res.metrics = layer_metrics(mid.rec, mid.split, median(traced_ms),
                                    median(pass_ms), wl.probe_layers(),
                                    passes);
        split_json = ",\"traced_pass_ms\":" + json_array(traced_ms) +
                     ",\"trace_overlaps\":" +
                     std::to_string(mid.split.overlaps);
    }
    wl.teardown();

    res.correct = problems.empty() && res.failed == 0;
    const Tail t = tail(ops);
    std::string report = "{\"workload\":" + json_quote(cfg.workload) +
                         ",\"seed\":" + std::to_string(cfg.seed) +
                         ",\"trace\":" + (cfg.trace ? "true" : "false") +
                         ",\"context\":" + context_json() +
                         ",\"setup_s\":" + json_array(setups) +
                         ",\"pass_ms\":" + json_array(pass_ms) +
                         ",\"op_count\":" + std::to_string(ops.size()) +
                         ",\"op_tail_ms\":" + fmt(t.value) +
                         ",\"op_tail_percentile\":" + fmt(t.percentile) +
                         ",\"op_tail_samples_beyond\":10" + split_json +
                         ",\"counts\":{";
    bool first = true;
    for (const auto& [name, n] : passes.front().counts) {
        report += (first ? "" : ",") + json_quote(name) + ":" +
                  std::to_string(n);
        first = false;
    }
    report += "},\"problems\":[";
    for (std::size_t i = 0; i < problems.size() && i < 20; ++i)
        report += (i ? "," : "") + json_quote(problems[i]);
    res.report = report + "]}";
    return res;
}

void write_result_line(std::ostream& os, const RunResult& r) {
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        os << (i ? ", " : "") << json_quote(m.name) << ": {\"value\": "
           << fmt(m.value) << ", \"unit\": " << json_quote(m.unit) << "}";
    }
    os << "}}\n";
}

}  // namespace ledger
