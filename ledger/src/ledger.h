// The performance ledger: fixed-work, seed-determined workloads over the
// public sunfloor API, each driven from one thread.
//
// A run sets its workload up, prepares the references its outputs are
// checked against, then repeats identical passes for the requested
// seconds, setting up again between some of them (the median set-up is
// setup_s). Every pass must do exactly
// the same work: its layer counts (registry counters plus the counts a
// workload observes itself) are compared with the first pass's, and any
// difference fails the run. End-to-end metrics come from untraced
// passes; one extra traced pass gives the per-layer split.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ledger {

/// Counts that must repeat exactly from pass to pass (the determinism
/// guard's input), by name.
using Counts = std::map<std::string, long long>;

/// What one pass did and measured. Times are wall clock, taken by the
/// workload around the public calls it makes.
struct PassOutcome {
    long long items = 0;      ///< points, flits or requests served
    long long attempted = 0;  ///< operations issued
    long long failed = 0;     ///< operations whose output was wrong
    /// Latency of each user-visible operation in the pass, ms.
    std::vector<double> op_ms;
    /// Operation latencies by class (service_mixed: warm/near/cold).
    std::map<std::string, std::vector<double>> class_ms;
    /// Counts the workload observed itself (per-class request counts,
    /// store object bytes, ...); merged with the registry counters.
    Counts counts;
    /// Benchmark-side layer timings of this pass (ms), reported in the
    /// per-layer split (dist.rpc_ms, service.protocol_ms, ...).
    std::map<std::string, double> layer_ms;
    /// Digest of every output byte of the pass (16 hex digits).
    std::string digest;
    /// Human-readable note on the first failure, empty when none.
    std::string error;
};

class Workload {
  public:
    virtual ~Workload() = default;

    /// Build the workload's inputs from scratch (spec generation,
    /// placement annealing, design synthesis, simulator index). Called
    /// several times per run, between passes too, so every call must
    /// rebuild the same state.
    virtual void setup() = 0;

    /// Compute the references outputs are checked against. Not timed
    /// and not part of setup_s: it is the benchmark's check, not the
    /// program's set-up.
    virtual void prepare_references() {}

    /// Untimed per-pass preparation (fresh temp directories).
    virtual void prepare_pass() {}

    /// One fixed-work pass. Timed by the caller.
    virtual PassOutcome pass() = 0;

    /// Digest the default seed's passes must produce; empty to skip.
    virtual std::string pinned_digest() const = 0;

    /// Benchmark-side layer timings taken outside the timed passes
    /// (sim.index_build_ms from setup, service.protocol_ms and
    /// dist.codec_ms re-timed on a pass's own frames). Called after the
    /// traced pass.
    virtual std::map<std::string, double> probe_layers() { return {}; }

    /// Remove whatever the workload left on disk.
    virtual void teardown() {}
};

/// The seed every pinned digest was recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct WorkloadOptions {
    std::uint64_t seed = kDefaultSeed;
    /// Scratch directory for sockets and stores (created by the caller).
    std::string work_dir;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload by name; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts);

std::unique_ptr<Workload> make_explore_grid(const WorkloadOptions& opts);
std::unique_ptr<Workload> make_simulate_sweep(const WorkloadOptions& opts);
std::unique_ptr<Workload> make_service_mixed(const WorkloadOptions& opts);
std::unique_ptr<Workload> make_dist_cas(const WorkloadOptions& opts);

/// FNV-1a digest of `bytes`, continuing `prev` (16 hex digits).
std::string digest_hex(const std::string& bytes,
                       const std::string& prev = std::string());

/// Steady-clock nanoseconds, and milliseconds elapsed since a now_ns().
std::int64_t now_ns();
double ms_since(std::int64_t t0_ns);

}  // namespace ledger
