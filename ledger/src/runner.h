// One ledger run: set-up, references, the timed passes with their
// checks, and the metrics the run reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ledger.h"

namespace ledger {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<Metric> metrics;
    /// One-line JSON report: context stamp, per-pass figures, latency
    /// classes and every check's outcome.
    std::string report;
};

/// Execute one run. Throws std::invalid_argument for an unknown workload.
RunResult run_ledger(const RunConfig& cfg);

/// Execute one run of an already built workload (cfg.workload only
/// labels the report).
RunResult run_workload(Workload& wl, const RunConfig& cfg);

/// Print the contract's result line: {"correct", "attempted", "failed",
/// "metrics"} with every value at full precision.
void write_result_line(std::ostream& os, const RunResult& r);

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/// The highest percentile of `v` with at least `beyond` samples above
/// it: value, percentile (0-100) and sample count. percentile is -1 when
/// `v` holds `beyond` samples or fewer.
struct Tail {
    double value = 0.0;
    double percentile = -1.0;
    std::size_t samples = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Names of the counts in `got` that differ from `want` (missing on
/// either side included), empty when they agree exactly.
std::vector<std::string> count_differences(const Counts& want,
                                           const Counts& got);

}  // namespace ledger
