// Shard execution: the one code path every transport funnels into.
//
// run_shard() is what a worker does with a decoded ShardRequest — rebuild
// the spec, open the shared CAS store when one is configured, run the
// explorer over the slice and render the complete results back into a
// ShardResponse. Socket workers are sunfloord processes: the daemon's
// server answers a shard_run frame (service/protocol.h) with
// run_shard_frame(). The in-process transport parses the same frame with
// the same service::parse_request and answers it the same way, so both
// transports exercise identical parse and codec paths.
#pragma once

#include <string>

#include "sunfloor/dist/protocol.h"

namespace sunfloor::dist {

/// Run one shard job. Throws on an unusable request (std::runtime_error:
/// unparseable spec, unopenable CAS directory; std::invalid_argument: an
/// out-of-domain config such as alpha outside [0, 1]) — the serving layer
/// turns that into an {"ok":false} frame.
ShardResponse run_shard(const ShardRequest& req);

/// run_shard() rendered as its response frame: make_ok_frame() of the
/// result, or make_error_frame() naming what the job threw. The job runs
/// synchronously on the caller's thread — on sunfloord that is the
/// connection's handler thread, which is the back-pressure: a worker busy
/// with a slice makes the coordinator's call wait, it never queues slices
/// invisibly. `ok`, when given, tells which of the two frames it is.
std::string run_shard_frame(const ShardRequest& req, bool* ok = nullptr);

}  // namespace sunfloor::dist
