// sunfloor_cli flag parsing, driven through the real binary: --seed on
// the synth, explore and simulate subcommands takes the same range as
// submit and sunfloord, [0, 2^63). Rng::kDefaultSeed itself is a legal
// value and reproduces the default run byte for byte; negative and
// out-of-range values are usage errors (exit 2), never a silent wrap.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sunfloor/util/rng.h"

namespace {

struct TempDir {
    std::string path;
    TempDir() {
        char buf[] = "/tmp/sunfloor_cli_flags_XXXXXX";
        const char* p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        if (p) path = p;
    }
    ~TempDir() {
        if (!path.empty()) std::system(("rm -rf " + path).c_str());
    }
};

int run_cli(const std::string& args) {
    const std::string cmd =
        std::string(SUNFLOOR_CLI_BIN) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class CliSeed : public ::testing::Test {
  protected:
    void SetUp() override {
        design_ = dir_.path + "/tiny.txt";
        std::ofstream(design_) << "core a 1 1 0 0 0\n"
                                  "core b 1 1 1.2 0 1\n"
                                  "flow a b 200 10 req\n"
                                  "flow b a 100 10 rsp\n";
    }

    /// Runs `<sub> --design tiny <extra> --out <dir>/<tag>` and returns the
    /// exit code.
    int run(const std::string& sub, const std::string& extra,
            const std::string& tag) {
        return run_cli(sub + " --design " + design_ + " --no-floorplan " +
                       extra + " --out " + dir_.path + "/" + tag);
    }

    std::string out(const std::string& file) {
        return slurp(dir_.path + "/" + file);
    }

    TempDir dir_;
    std::string design_;
};

const std::string kDefaultSeed =
    std::to_string(sunfloor::Rng::kDefaultSeed);
const char kSimKnobs[] = "--rate 0.5 --warmup 100 --measure 500";

TEST_F(CliSeed, DefaultSeedValueIsAcceptedAndReproducesTheDefaultRun) {
    ASSERT_EQ(run("", "", "synth_def"), 0);
    ASSERT_EQ(run("", "--seed " + kDefaultSeed, "synth_seed"), 0);
    EXPECT_FALSE(out("synth_def_points.csv").empty());
    EXPECT_EQ(out("synth_seed_points.csv"), out("synth_def_points.csv"));

    ASSERT_EQ(run("explore", "--threads 1", "exp_def"), 0);
    ASSERT_EQ(run("explore", "--threads 1 --seed " + kDefaultSeed,
                  "exp_seed"),
              0);
    EXPECT_FALSE(out("exp_def_explore.csv").empty());
    EXPECT_EQ(out("exp_seed_explore.csv"), out("exp_def_explore.csv"));

    ASSERT_EQ(run("simulate", kSimKnobs, "sim_def"), 0);
    ASSERT_EQ(run("simulate",
                  std::string(kSimKnobs) + " --seed " + kDefaultSeed,
                  "sim_seed"),
              0);
    EXPECT_FALSE(out("sim_def_sim.csv").empty());
    EXPECT_EQ(out("sim_seed_sim.csv"), out("sim_def_sim.csv"));
}

TEST_F(CliSeed, OutOfRangeSeedIsAUsageError) {
    for (const char* seed : {"-1", "9223372036854775808"}) {  // -1, 2^63
        const std::string flag = std::string("--seed ") + seed;
        EXPECT_EQ(run("", flag, "bad"), 2) << seed;
        EXPECT_EQ(run("explore", flag, "bad"), 2) << seed;
        EXPECT_EQ(run("simulate", std::string(kSimKnobs) + " " + flag, "bad"),
                  2)
            << seed;
    }
}

}  // namespace
