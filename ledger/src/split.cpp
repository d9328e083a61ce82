#include "split.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sunfloor/util/json.h"

namespace ledger {
namespace {

struct Span {
    std::string name;
    long long begin_ns = 0;
    long long end_ns = 0;
    long long tid = 0;
    long long child_ns = 0;  ///< covered by child spans
};

}  // namespace

TraceSplit split_trace(std::string_view trace_json) {
    TraceSplit out;
    const sunfloor::JsonParseResult doc = sunfloor::parse_json(trace_json);
    const sunfloor::JsonValue* events =
        doc.ok ? doc.value.find("traceEvents") : nullptr;
    if (!events || !events->is_array()) {
        out.balanced = false;
        out.error = doc.ok ? "no traceEvents array" : doc.error;
        return out;
    }

    // Match begins to ends per thread.
    std::vector<Span> spans;
    std::unordered_map<long long, std::vector<Span>> open;
    for (const sunfloor::JsonValue& ev : events->items()) {
        const sunfloor::JsonValue* name = ev.find("name");
        const sunfloor::JsonValue* ph = ev.find("ph");
        const sunfloor::JsonValue* ts = ev.find("ts");
        const sunfloor::JsonValue* tid = ev.find("tid");
        if (!name || !ph || !ts || !tid || !name->is_string() ||
            !ph->is_string() || !ts->is_number() || !tid->is_number()) {
            out.balanced = false;
            out.error = "malformed trace event";
            return out;
        }
        const long long t = std::llround(ts->as_double() * 1000.0);
        std::vector<Span>& stack = open[tid->as_int64()];
        if (ph->as_string() == "B") {
            stack.push_back({name->as_string(), t, t, tid->as_int64(), 0});
        } else if (ph->as_string() == "E") {
            if (stack.empty() || stack.back().name != name->as_string()) {
                out.balanced = false;
                if (out.error.empty())
                    out.error = "unmatched end of '" + name->as_string() +
                                "' on thread " +
                                std::to_string(tid->as_int64());
                continue;
            }
            Span s = std::move(stack.back());
            stack.pop_back();
            s.end_ns = t;
            spans.push_back(std::move(s));
        }
    }
    for (const auto& [tid, stack] : open) {
        if (!stack.empty()) {
            out.balanced = false;
            if (out.error.empty())
                out.error = "'" + stack.back().name +
                            "' never ended on thread " + std::to_string(tid);
        }
    }

    // Nest by time across threads: outer spans first, then by thread.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return std::tie(a.begin_ns, b.end_ns, a.tid) <
               std::tie(b.begin_ns, a.end_ns, b.tid);
    });
    std::vector<Span*> stack;
    for (Span& s : spans) {
        while (!stack.empty() && stack.back()->end_ns <= s.begin_ns)
            stack.pop_back();
        if (!stack.empty()) {
            Span& parent = *stack.back();
            if (s.end_ns > parent.end_ns) ++out.overlaps;
            parent.child_ns += std::min(s.end_ns, parent.end_ns) - s.begin_ns;
        }
        stack.push_back(&s);
    }
    for (const Span& s : spans) {
        SpanStat& st = out.spans[s.name];
        ++st.count;
        st.total_ms += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
        st.self_ms +=
            static_cast<double>(s.end_ns - s.begin_ns - s.child_ns) / 1e6;
    }
    return out;
}

}  // namespace ledger
