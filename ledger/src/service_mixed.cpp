// service_mixed: an in-process service::Server on a unix socket
// (engine workers = 1, conn_threads = 1, fresh sessions every pass)
// serving a fixed closed-loop sequence of submit-and-wait synth frames
// from one Client connection. One item is one request.
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ledger.h"
#include "service_plan.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/service/client.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/service/server.h"

namespace ledger {

using namespace sunfloor;

const char* class_name(RequestClass c) {
    switch (c) {
        case RequestClass::Cold: return "cold";
        case RequestClass::Near: return "near";
        case RequestClass::Warm: return "warm";
    }
    return "?";
}

ServicePlan plan_service(std::uint64_t seed) {
    // What the server computes is fixed: four specgen instances, each
    // with its cold request and then its near requests in a fixed order.
    // The seed draws how the specs' requests interleave and which earlier
    // requests the warm ones repeat. Drawing the specs or the (freq, TSV)
    // points per seed made a pass's work swing by +-30% from seed to
    // seed, which no run length averages out.
    struct SpecRequests {
        specgen::GenFamily family;
        int cores;
        std::vector<std::pair<double, int>> points;  ///< cold, then near
    };
    static const SpecRequests kSpecs[kColdRequests] = {
        {specgen::GenFamily::Pipeline, 16, {{400, 25}, {500, 25}, {400, 20}}},
        {specgen::GenFamily::HubAndSpoke, 20,
         {{450, 25}, {350, 25}, {550, 20}}},
        {specgen::GenFamily::LayeredDag, 24,
         {{400, 20}, {500, 20}, {450, 25}}},
        {specgen::GenFamily::Pipeline, 20, {{500, 25}, {400, 15}}},
    };
    ServicePlan plan;
    std::vector<int> order;  // spec of each cold/near request, in order
    for (int s = 0; s < kColdRequests; ++s) {
        specgen::GenParams gp;
        gp.family = kSpecs[s].family;
        gp.num_cores = kSpecs[s].cores;
        gp.num_layers = 3;
        plan.gens.push_back(gp);
        plan.gen_seeds.push_back(static_cast<std::uint64_t>(s + 1));
        order.insert(order.end(), kSpecs[s].points.size(), s);
    }
    Rng rng(splitmix64(seed ^ 0x5e41ce5eedULL));
    rng.shuffle(order);
    // Warm requests go anywhere after the first request.
    std::vector<char> warm(order.size() - 1 + kWarmRequests, 0);
    std::fill(warm.begin(), warm.begin() + kWarmRequests, 1);
    rng.shuffle(warm);
    warm.insert(warm.begin(), 0);

    std::vector<PlannedRequest> issued;
    std::vector<std::size_t> next(kColdRequests, 0);
    std::size_t o = 0;
    for (const char w : warm) {
        PlannedRequest r;
        if (w) {
            r = issued[rng.next_below(issued.size())];
            r.cls = RequestClass::Warm;
        } else {
            const int s = order[o++];
            const auto k = next[static_cast<std::size_t>(s)]++;
            r.spec = s;
            r.freq_mhz = kSpecs[s].points[k].first;
            r.max_tsvs = kSpecs[s].points[k].second;
            r.cls = k == 0 ? RequestClass::Cold : RequestClass::Near;
            issued.push_back(r);
        }
        plan.requests.push_back(r);
    }
    return plan;
}

namespace {

/// The stage-miss counters that classify a request.
struct StageProbe {
    obs::Counter* partition_misses;
    obs::Counter* misses[5];

    StageProbe() {
        auto& reg = obs::Registry::global();
        static const char* stages[5] = {"partition", "routing", "placement",
                                        "position_lp", "evaluation"};
        for (int i = 0; i < 5; ++i)
            misses[i] = &reg.counter(
                std::string("pipeline.") + stages[i] + ".misses");
        partition_misses = misses[0];
    }
    long long total() const {
        long long n = 0;
        for (const obs::Counter* c : misses) n += c->value();
        return n;
    }
};

class ServiceMixed : public Workload {
  public:
    explicit ServiceMixed(const WorkloadOptions& o) : opts_(o) {}

    void setup() override {
        plan_ = plan_service(opts_.seed);
        texts_.clear();
        frames_.clear();
        for (std::size_t s = 0; s < plan_.gens.size(); ++s) {
            std::ostringstream os;
            write_design(os, specgen::generate(plan_.gens[s],
                                               plan_.gen_seeds[s]));
            texts_.push_back(os.str());
        }
        for (const PlannedRequest& r : plan_.requests)
            frames_.push_back(service::make_submit_frame(submit_for(r)));
    }

    void prepare_references() override {
        // The one-shot CLI bytes for every request, from the same parsed
        // spec the server builds.
        expected_.clear();
        std::map<std::string, std::string> computed;
        for (const PlannedRequest& r : plan_.requests) {
            const std::string key = std::to_string(r.spec) + "|" +
                                    std::to_string(r.freq_mhz) + "|" +
                                    std::to_string(r.max_tsvs);
            auto it = computed.find(key);
            if (it != computed.end()) {
                expected_.push_back(it->second);
                continue;
            }
            service::JobRequest jr;
            std::string err;
            if (!service::build_job_request(submit_for(r), jr, err))
                throw std::runtime_error("service reference: " + err);
            SynthesisConfig cfg;
            cfg.eval.freq_hz = r.freq_mhz * 1e6;
            cfg.max_ill = r.max_tsvs;
            cfg.seed = static_cast<std::uint64_t>(jr.params.seed);
            cfg.run_floorplan = jr.params.floorplan;
            std::ostringstream os;
            design_points_table(run_synthesis(jr.spec, cfg).points)
                .write_csv(os);
            computed.emplace(key, os.str());
            expected_.push_back(os.str());
        }
    }

    PassOutcome pass() override {
        PassOutcome out;
        service::ServerOptions sopts;
        sopts.listen = opts_.work_dir + "/svc-" +
                       std::to_string(static_cast<long long>(getpid())) +
                       ".sock";
        sopts.conn_threads = 1;
        sopts.engine.workers = 1;
        service::Server server(sopts);
        std::string err;
        if (!server.start(err)) throw std::runtime_error("server: " + err);
        service::Client client;
        if (!client.connect(sopts.listen, err))
            throw std::runtime_error("client: " + err);

        const StageProbe probe;
        std::string digest;
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            const PlannedRequest& r = plan_.requests[i];
            const long long part0 = probe.partition_misses->value();
            const long long miss0 = probe.total();
            JsonValue resp;
            const std::int64_t t0 = now_ns();
            bool ok = false;
            {
                obs::ScopedSpan span("bench.call");
                ok = client.call(frames_[i], resp, err);
            }
            const double ms = ms_since(t0);
            ++out.attempted;
            out.op_ms.push_back(ms);
            out.class_ms[class_name(r.cls)].push_back(ms);
            const std::string* csv = reply_csv(ok, resp);
            if (!csv || *csv != expected_[i]) {
                ++out.failed;
                if (out.error.empty())
                    out.error = ok ? "reply " + std::to_string(i) +
                                         " differs from run_synthesis"
                                   : err;
            } else {
                ++out.items;
                digest = digest_hex(*csv, digest);
            }
            // A warm request recomputes no stage; a cold one misses the
            // partition stage; a near one recomputes something but keeps
            // the spec's resident partitions for most switch counts.
            const long long parts = probe.partition_misses->value() - part0;
            const long long misses = probe.total() - miss0;
            const bool as_planned = r.cls == RequestClass::Warm ? misses == 0
                                    : r.cls == RequestClass::Cold
                                        ? parts > 0
                                        : misses > 0;
            ++out.counts[std::string("service.requests.") +
                         class_name(r.cls)];
            if (!as_planned) {
                ++out.counts["service.requests.misclassified"];
                out.error = std::string(class_name(r.cls)) + " request " +
                            std::to_string(i) + " did not behave as one";
            }
        }
        client.close();
        server.request_shutdown();
        server.wait();
        out.digest = digest;
        return out;
    }

    std::string pinned_digest() const override {
        return "6baa3af85e935aac";
    }

    /// Time the protocol layer alone: parse_request + build_job_request
    /// over the pass's frames.
    std::map<std::string, double> probe_layers() override {
        const std::int64_t t0 = now_ns();
        for (const std::string& f : frames_) {
            service::Request req;
            service::JobRequest jr;
            std::string err;
            if (!service::parse_request(f, 1 << 20, req, err) ||
                !service::build_job_request(req.submit, jr, err))
                throw std::runtime_error("protocol probe: " + err);
        }
        return {{"service.protocol_ms", ms_since(t0)}};
    }

  private:
    service::SubmitRequest submit_for(const PlannedRequest& r) const {
        service::SubmitRequest s;
        s.client = "ledger";
        s.kind = service::JobKind::Synth;
        s.spec_text = texts_[static_cast<std::size_t>(r.spec)];
        s.params.freq_mhz = {r.freq_mhz};
        s.params.max_tsvs = {r.max_tsvs};
        s.params.floorplan = false;
        s.wait = true;
        return s;
    }

    static const std::string* reply_csv(bool ok, const JsonValue& resp) {
        if (!ok) return nullptr;
        const JsonValue* okv = resp.find("ok");
        const JsonValue* status = resp.find("status");
        const JsonValue* result = resp.find("result");
        if (!okv || !okv->is_bool() || !okv->as_bool() || !status ||
            !status->is_string() || status->as_string() != "done" ||
            !result)
            return nullptr;
        const JsonValue* csv = result->find("csv");
        return csv && csv->is_string() ? &csv->as_string() : nullptr;
    }

    WorkloadOptions opts_;
    ServicePlan plan_;
    std::vector<std::string> texts_;
    std::vector<std::string> frames_;
    std::vector<std::string> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mixed(const WorkloadOptions& opts) {
    return std::make_unique<ServiceMixed>(opts);
}

}  // namespace ledger
