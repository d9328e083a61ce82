// Per-layer split of a traced pass: self time per span name.
//
// Spans are first matched begin-to-end per thread (a pass whose spans do
// not balance on some thread is reported, never guessed at). The
// ledger's workloads are driven by one thread and every hand-off to
// another thread — the server's handler, the job engine's worker, the
// shard coordinator's transport thread — blocks the caller, so the spans
// of all threads nest by time. A span's self time is its duration minus
// the part of it that its child spans (on any thread) cover.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace ledger {

struct SpanStat {
    long long count = 0;
    double total_ms = 0.0;  ///< summed durations
    double self_ms = 0.0;   ///< summed durations minus child coverage
};

struct TraceSplit {
    /// Every thread's begin/end events matched up.
    bool balanced = true;
    std::string error;  ///< first balance or parse problem
    /// Spans that began inside another but ended after it (not nested;
    /// their coverage of the earlier span is clipped).
    long long overlaps = 0;
    std::map<std::string, SpanStat> spans;
};

/// Split the Trace Event JSON that obs::stop_tracing() writes.
TraceSplit split_trace(std::string_view trace_json);

}  // namespace ledger
