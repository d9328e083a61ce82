// Wire protocol of the synthesis service: line-delimited JSON frames.
//
// One request per line, one JSON object per request; responses are one
// JSON object per line as well. The design-spec payload rides inside the
// frame as a string in the existing Section IV text format, so the spec
// writer/parser (and their round-trip and input-validation guarantees)
// are the payload codec — the protocol adds no second spec grammar.
//
// Requests (the "op" field selects the operation):
//
//   {"op":"submit","client":"ci","kind":"synth","spec":"<spec text>",
//    "config":{"freq_mhz":400,"max_tsvs":25,"alpha":1.0,"phase":"auto",
//              "routing":"up-down","seed":1,"floorplan":false},
//    "wait":true}
//   {"op":"status","id":7}
//   {"op":"result","id":7,"wait":true}
//   {"op":"stats"}
//   {"op":"shutdown"}
//   {"op":"shard_run","payload":"<hex>"}
//
// "kind":"explore" turns the config's axis knobs (freq_mhz, max_tsvs,
// width_bits, theta, phase, routing — scalar or array each) into a
// ParamGrid; synth jobs require single values and reject the
// explore-only axes. Validation is strict: oversized frames, malformed
// JSON, unknown fields, and non-finite or out-of-domain numeric knobs are
// all rejected with an error naming the offending field (pinned by
// tests/service_proto_test.cpp). The knob domains are the CLI flags'
// (job_params.h).
//
// "shard_run" carries one distributed-exploration slice: the payload is
// the hex of a dist::encode_shard_request blob (dist/protocol.h), decoded
// here, so a bad payload is a named protocol error like any other. The
// server runs it synchronously (dist::run_shard_frame) and answers with
// the dist response frame, {"ok":true,"payload":"<hex>"}.
//
// Responses:
//   accepted   {"ok":true,"id":7,"status":"queued"}
//   rejected   {"ok":false,"rejected":"queue-full","error":"..."}
//   status     {"ok":true,"id":7,"status":"running"}
//   result     {"ok":true,"id":7,"status":"done","result":{...,"csv":"..."}}
//   shard_run  {"ok":true,"payload":"<hex>"}
//   error      {"ok":false,"error":"..."}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/dist/protocol.h"
#include "sunfloor/service/job_params.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::service {

/// What a job computes: one synthesis run, or a grid exploration.
enum class JobKind { Synth, Explore };

/// "synth" or "explore" — the single source for wire parsing and the
/// status/result payloads.
const char* kind_to_string(JobKind k);
bool kind_from_string(const std::string& s, JobKind& out);
std::string kind_choices();

/// Deserialized "submit" payload, before the spec text is parsed.
struct SubmitRequest {
    std::string client = "anonymous";
    JobKind kind = JobKind::Synth;
    std::string spec_name;  ///< optional design-name override
    std::string spec_text;  ///< Section IV text, parsed server-side
    JobParams params;
    bool wait = false;  ///< block the response until the job is terminal
};

/// A validated submit: spec text parsed into a DesignSpec. The canonical
/// `spec_text` doubles as the warm-session cache key.
struct JobRequest {
    JobKind kind = JobKind::Synth;
    std::string client;
    DesignSpec spec;
    std::string spec_text;
    JobParams params;
};

struct Request {
    enum class Op { Submit, Status, Result, Stats, Shutdown, ShardRun };
    Op op = Op::Stats;
    SubmitRequest submit;   ///< Op::Submit only
    std::uint64_t id = 0;   ///< Op::Status / Op::Result
    bool wait = false;      ///< Op::Result: block until terminal
    dist::ShardRequest shard;  ///< Op::ShardRun: the decoded payload
};

/// Parse and validate one request frame. False on any violation, with
/// `error` naming the offending field or byte ("unknown field
/// \"config.frobnicate\"", "bad \"config.freq_mhz\" value ...", "frame of
/// N bytes exceeds the M byte limit"). `max_frame_bytes` <= 0 disables
/// the size check.
bool parse_request(std::string_view frame, long long max_frame_bytes,
                   Request& out, std::string& error);

/// Parse the submit payload's spec text (named errors pass through from
/// the spec parser, prefixed "spec: ") and assemble the job request.
bool build_job_request(const SubmitRequest& submit, JobRequest& out,
                       std::string& error);

// ------------------------------------------------- client frame builders

std::string make_submit_frame(const SubmitRequest& submit);
std::string make_status_frame(std::uint64_t id);
std::string make_result_frame(std::uint64_t id, bool wait);
std::string make_stats_frame();
std::string make_shutdown_frame();

}  // namespace sunfloor::service
