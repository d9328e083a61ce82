// dist_cas: dist::distribute_explore over D_26_media, grid freq
// {300,400,500,600} MHz x TSV {15,25}, 4 shards over one
// InprocTransport (full codec round trip) sharing a content-addressed
// store. A pass is a cold run on an empty store (CAS writes), then a
// warm rerun with a fresh transport on the same store (CAS reads). One
// item is one grid point served.
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "inputs.h"
#include "ledger.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"

namespace ledger {
namespace {

using namespace sunfloor;
namespace fs = std::filesystem;

/// The shard jobs of one pass, kept for re-timing the codec afterwards.
struct ShardJobs {
    std::vector<dist::ShardRequest> requests;
    std::vector<dist::ShardResponse> responses;
    double rpc_ms = 0.0;
};

/// Decorates InprocTransport: times run() (the remote call as the
/// coordinator sees it) and records each job. The coordinator gives a
/// transport one thread and reads nothing of ours, and the pass reads
/// `jobs` only after distribute_explore joined that thread.
class TimedTransport : public dist::ShardTransport {
  public:
    explicit TimedTransport(ShardJobs& jobs) : jobs_(jobs) {}

    dist::ShardResponse run(const dist::ShardRequest& req) override {
        obs::ScopedSpan span("bench.rpc");
        const std::int64_t t0 = now_ns();
        dist::ShardResponse resp = inner_.run(req);
        jobs_.rpc_ms += ms_since(t0);
        jobs_.requests.push_back(req);
        jobs_.responses.push_back(resp);
        return resp;
    }
    std::string describe() const override { return "timed-inproc"; }

  private:
    dist::InprocTransport inner_;
    ShardJobs& jobs_;
};

class DistCas : public Workload {
  public:
    explicit DistCas(const WorkloadOptions& o)
        : opts_(o), store_dir_(o.work_dir + "/cas") {}

    void setup() override {
        spec_ = annealed_benchmark("D_26_media");
        ParamGrid grid;
        grid.set_axis(
            ParamAxis::frequencies_hz({300e6, 400e6, 500e6, 600e6}));
        grid.set_axis(ParamAxis::max_tsvs({15, 25}));
        points_ = grid.enumerate();
        xopts_ = ExploreOptions();
        xopts_.num_threads = 1;
        xopts_.base_seed = opts_.seed;
    }

    void prepare_references() override {
        // The single-process explorer's bytes, which every merged
        // distributed result must equal.
        const Explorer explorer(spec_, SynthesisConfig(), xopts_);
        expected_ = csv_of(explorer.run(points_));
    }

    void prepare_pass() override {
        fs::remove_all(store_dir_);
        fs::create_directories(store_dir_);
        jobs_ = ShardJobs();
    }

    PassOutcome pass() override {
        PassOutcome out;
        std::string digest;
        obs::Counter& hits = obs::Registry::global().counter("cas.hits");
        obs::Counter& misses = obs::Registry::global().counter("cas.misses");
        long long hits0 = 0;
        long long misses0 = 0;
        for (const char* phase : {"cold", "warm"}) {
            hits0 = hits.value();
            misses0 = misses.value();
            auto transport = std::make_shared<TimedTransport>(jobs_);
            dist::DistOptions dopts;
            dopts.shards = 4;
            dopts.cas_dir = store_dir_;
            const std::int64_t t0 = now_ns();
            const ExploreResult res = dist::distribute_explore(
                spec_, SynthesisConfig(), xopts_, points_, {transport},
                dopts);
            const double ms = ms_since(t0);
            out.layer_ms[std::string("dist.") + phase + "_pass_ms"] = ms;
            const std::string csv = csv_of(res);
            out.attempted += static_cast<long long>(points_.size());
            if (csv != expected_) {
                out.failed += static_cast<long long>(points_.size());
                out.error = std::string(phase) +
                            " merged result differs from Explorer::run";
            } else {
                out.items += static_cast<long long>(res.points.size());
            }
            digest = digest_hex(csv, digest);
        }
        out.counts["cas.warm_hits"] = hits.value() - hits0;
        out.counts["cas.warm_misses"] = misses.value() - misses0;
        out.layer_ms["dist.rpc_ms"] = jobs_.rpc_ms;
        out.op_ms.push_back(out.layer_ms["dist.cold_pass_ms"] +
                            out.layer_ms["dist.warm_pass_ms"]);
        const cas::StoreStats st =
            cas::Store(cas::StoreOptions{store_dir_, 0, 60.0}).stats();
        out.counts["cas.objects"] = static_cast<long long>(st.objects);
        out.counts["cas.object_bytes"] =
            static_cast<long long>(st.object_bytes);
        out.digest = digest;
        return out;
    }

    std::string pinned_digest() const override {
        return "317717069be60ad3";
    }

    /// Re-time the shard codec on the last pass's jobs: encode and
    /// decode of every request and every response.
    std::map<std::string, double> probe_layers() override {
        const std::int64_t t0 = now_ns();
        std::string err;
        for (const dist::ShardRequest& r : jobs_.requests) {
            dist::ShardRequest back;
            if (!dist::decode_shard_request(dist::encode_shard_request(r),
                                            back, err))
                throw std::runtime_error("codec probe: " + err);
        }
        for (const dist::ShardResponse& r : jobs_.responses) {
            dist::ShardResponse back;
            if (!dist::decode_shard_response(dist::encode_shard_response(r),
                                             back, err))
                throw std::runtime_error("codec probe: " + err);
        }
        return {{"dist.codec_ms", ms_since(t0)}};
    }

    void teardown() override { fs::remove_all(store_dir_); }

  private:
    static std::string csv_of(const ExploreResult& res) {
        std::ostringstream os;
        explore_table(res).write_csv(os);
        return os.str();
    }

    WorkloadOptions opts_;
    std::string store_dir_;
    DesignSpec spec_;
    std::vector<GridPoint> points_;
    ExploreOptions xopts_;
    std::string expected_;
    ShardJobs jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_dist_cas(const WorkloadOptions& opts) {
    return std::make_unique<DistCas>(opts);
}

}  // namespace ledger
