#include "sunfloor/dist/shard.h"

#include <exception>
#include <memory>
#include <utility>

#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/obs/trace.h"

namespace sunfloor::dist {

ShardResponse run_shard(const ShardRequest& req) {
    obs::ScopedSpan span("dist.shard", "points",
                         static_cast<long long>(req.points.size()));
    pipeline::SessionOptions sopts;
    if (!req.cas_dir.empty()) {
        cas::StoreOptions copts;
        copts.dir = req.cas_dir;
        copts.max_bytes = req.cas_max_bytes;
        // Throws std::runtime_error on an unusable directory; the serving
        // layer reports it instead of computing without the shared store
        // (a silent fallback would hide misconfiguration, not results —
        // the store is bit-transparent — but the operator asked for it).
        sopts.cas = std::make_shared<cas::Store>(copts);
    }
    auto session =
        std::make_shared<pipeline::SynthesisSession>(req.spec, sopts);
    const Explorer explorer(session, req.base_cfg, req.opts);
    ExploreResult res = explorer.run(req.points);

    ShardResponse resp;
    resp.points.reserve(res.points.size());
    for (ExplorePointResult& pr : res.points) {
        ShardPointResult out;
        out.phase_used = pr.result.phase_used;
        out.designs.reserve(pr.result.points.size());
        for (const DesignPoint& dp : pr.result.points)
            out.designs.push_back(
                cas::encode_evaluation(pipeline::EvaluatedDesign(dp)));
        out.sim_reports = std::move(pr.sim_reports);
        resp.points.push_back(std::move(out));
    }
    resp.pareto = res.pareto;
    resp.stage = res.stats.stage;
    obs::Registry::global().counter("dist.shards.run").add();
    return resp;
}

std::string run_shard_frame(const ShardRequest& req, bool* ok) {
    if (ok) *ok = false;
    try {
        std::string frame = make_ok_frame(run_shard(req));
        if (ok) *ok = true;
        return frame;
    } catch (const std::exception& e) {
        return make_error_frame(e.what());
    }
}

}  // namespace sunfloor::dist
