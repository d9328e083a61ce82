// explore_grid: a fresh Explorer (cold session) over the ROADMAP's
// reference grid of D_36_4 — freq {350,450,550} MHz x TSV {15,25}, one
// thread, analytic backend, floorplan on (the CLI default). One item is
// one grid point.
#include <sstream>

#include "inputs.h"
#include "ledger.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"

namespace ledger {
namespace {

using namespace sunfloor;

class ExploreGrid : public Workload {
  public:
    explicit ExploreGrid(const WorkloadOptions& o) : opts_(o) {}

    void setup() override {
        spec_ = annealed_benchmark("D_36_4");
        grid_ = ParamGrid();
        grid_.set_axis(ParamAxis::frequencies_hz({350e6, 450e6, 550e6}));
        grid_.set_axis(ParamAxis::max_tsvs({15, 25}));
        xopts_ = ExploreOptions();
        xopts_.num_threads = 1;
        xopts_.base_seed = opts_.seed;
    }

    PassOutcome pass() override {
        PassOutcome out;
        const std::int64_t t0 = now_ns();
        const Explorer explorer(spec_, SynthesisConfig(), xopts_);
        const ExploreResult res = explorer.run(grid_);
        out.op_ms.push_back(ms_since(t0));
        std::ostringstream csv;
        explore_table(res).write_csv(csv);
        out.digest = digest_hex(csv.str());
        out.items = static_cast<long long>(res.points.size());
        out.attempted = out.items;
        return out;
    }

    std::string pinned_digest() const override {
        return "22244a5c9de04103";
    }

  private:
    WorkloadOptions opts_;
    DesignSpec spec_;
    ParamGrid grid_;
    ExploreOptions xopts_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_grid(const WorkloadOptions& opts) {
    return std::make_unique<ExploreGrid>(opts);
}

}  // namespace ledger
