// Flag parsing of sunfloor_cli, sunfloord and sunfloor_lint, driven
// through the real binaries.
//
// --seed on the synth, explore and simulate subcommands takes the same
// range as submit and sunfloord, [0, 2^63). Rng::kDefaultSeed itself is a
// legal value and reproduces the default run byte for byte; negative and
// out-of-range values are usage errors (exit 2), never a silent wrap.
// Every subcommand accepts exactly its pinned flag set, a repeated flag
// means its last occurrence, and each synthesis knob accepts and rejects
// the same values as a served job's config (service::parse_request).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sunfloor/service/protocol.h"
#include "sunfloor/service/server.h"
#include "sunfloor/util/rng.h"
#include "sunfloor/util/strings.h"

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

int exit_code(int rc) { return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1; }

int run_cli(const std::string& args) {
    const std::string cmd =
        std::string(SUNFLOOR_CLI_BIN) + " " + args + " >/dev/null 2>&1";
    return exit_code(std::system(cmd.c_str()));
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

struct Outcome {
    int rc = -1;
    std::string out;
    std::string err;
};

/// Runs `bin args` with stdout and stderr captured under `dir`.
Outcome run_captured(const std::string& bin, const std::string& args,
                 const std::string& dir) {
    const std::string out = dir + "/stdout.txt";
    const std::string err = dir + "/stderr.txt";
    Outcome r;
    r.rc = exit_code(std::system(
        (bin + " " + args + " >" + out + " 2>" + err).c_str()));
    r.out = slurp(out);
    r.err = slurp(err);
    return r;
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
    // A generated family's member seeds gen_seed .. gen_seed + instances
    // - 1 must all stay below 2^63: the last seed alone is fine, one more
    // member would wrap.
    const std::string family =
        "explore --family pipeline --cores 8 --no-floorplan "
        "--gen-seed 9223372036854775807 ";
    EXPECT_EQ(run_cli(family + "--instances 1"), 0);
    EXPECT_EQ(run_cli(family + "--instances 2"), 2);
}

/// The same tiny-design fixture, for the other synthesis knobs.
class CliKnobs : public CliSeed {};

// alpha outside [0, 1] gives the partition graph negative weights (and
// used to corrupt the heap in the partitioner): a usage error on every
// subcommand that takes it.
TEST_F(CliKnobs, OutOfRangeAlphaIsAUsageError) {
    for (const char* alpha : {"7", "-2"}) {
        const std::string flag = std::string("--alpha ") + alpha;
        EXPECT_EQ(run("", flag, "bad"), 2) << alpha;
        EXPECT_EQ(run("explore", flag, "bad"), 2) << alpha;
        EXPECT_EQ(run("simulate", std::string(kSimKnobs) + " " + flag, "bad"),
                  2)
            << alpha;
    }
    const Outcome r = run_captured(SUNFLOOR_CLI_BIN,
                               "explore --design " + design_ + " --alpha 7",
                               dir_.path);
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("bad --alpha value '7' (expected a number in "
                         "[0, 1])"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(run("", "--alpha 0", "alpha0"), 0);
    EXPECT_EQ(run("", "--alpha 1", "alpha1"), 0);
}

// ----------------------------------------------------------- flag tables

/// The flags a usage text lists: the first word of each option line.
std::set<std::string> listed_flags(const std::string& usage) {
    std::set<std::string> out;
    std::istringstream is(usage);
    std::string line;
    while (std::getline(is, line))
        if (sunfloor::starts_with(line, "  --"))
            out.insert(line.substr(2, line.find(' ', 2) - 2));
    return out;
}

struct Surface {
    std::string bin;
    std::string sub;  ///< subcommand words before the flags
    std::set<std::string> flags;
};

/// The flag set of every subcommand, as the hand-written argv loops
/// accepted it before the table-driven parser replaced them.
std::vector<Surface> surfaces() {
    const std::string cli = SUNFLOOR_CLI_BIN;
    const std::set<std::string> gen = {
        "--family", "--cores", "--layers", "--peak-bw", "--skew", "--lat-slack",
        "--resp",   "--hubs",  "--hotspot", "--stages", "--fanout"};
    std::set<std::string> explore = {
        "--design", "--benchmark", "--freq", "--max-tsvs", "--width",
        "--phase", "--theta", "--routing", "--alpha", "--threads", "--seed",
        "--no-floorplan", "--no-cache", "--no-stage-reuse", "--backend",
        "--rate", "--traffic", "--packet-len", "--shards",
        "--shard-transport", "--shard-addrs", "--cas", "--cas-max-bytes",
        "--out", "--instances", "--gen-seed", "--trace", "--metrics"};
    explore.insert(gen.begin(), gen.end());
    std::set<std::string> generate = {"--seed", "--out"};
    generate.insert(gen.begin(), gen.end());
    return {
        {cli, "",
         {"--design", "--benchmark", "--freq", "--max-ill", "--alpha",
          "--phase", "--routing", "--seed", "--no-floorplan", "--out",
          "--list-benchmarks", "--trace", "--metrics"}},
        {cli, "explore", explore},
        {cli, "simulate",
         {"--design", "--benchmark", "--freq", "--max-ill", "--alpha",
          "--phase", "--routing", "--seed", "--no-floorplan", "--rate",
          "--traffic", "--packet-len", "--buffers", "--warmup", "--measure",
          "--out", "--trace", "--metrics"}},
        {cli, "generate", generate},
        {cli, "submit",
         {"--connect", "--design", "--benchmark", "--client", "--explore",
          "--freq", "--max-tsvs", "--width", "--theta", "--phase",
          "--routing", "--alpha", "--seed", "--no-floorplan", "--wait"}},
        {cli, "status", {"--connect", "--id"}},
        {cli, "result", {"--connect", "--id", "--wait"}},
        {cli, "cas stats", {"--cas", "--max-bytes"}},
        {cli, "cas gc", {"--cas", "--max-bytes"}},
        {SUNFLOORD_BIN, "",
         {"--listen", "--workers", "--queue-depth", "--quota", "--sessions",
          "--explore-threads", "--conn-threads", "--max-frame-bytes",
          "--trace", "--metrics"}},
        {SUNFLOOR_LINT_BIN, "",
         {"--format", "--error-on-findings", "--list-rules"}},
    };
}

TEST(CliFlags, EachSubcommandAcceptsExactlyItsFlagSet) {
    TempDir dir;
    for (const Surface& s : surfaces()) {
        const std::string where = s.bin + " " + s.sub;
        // An unknown flag prints the usage text, generated from the table
        // the parser runs on.
        const Outcome bad =
            run_captured(s.bin, s.sub + " --frobnicate", dir.path);
        EXPECT_EQ(bad.rc, 2) << where;
        EXPECT_NE(bad.err.find("unknown option '--frobnicate'"),
                  std::string::npos)
            << where << ": " << bad.err;
        EXPECT_EQ(listed_flags(bad.err), s.flags) << where;
        // And each listed flag is known to the parser: given last, with no
        // value after it, it is never an unknown option.
        for (const std::string& f : s.flags) {
            const Outcome r = run_captured(s.bin, s.sub + " " + f, dir.path);
            EXPECT_EQ(r.err.find("unknown option"), std::string::npos)
                << where << " " << f << ": " << r.err;
        }
    }
}

TEST(CliFlags, UsageErrorsNameTheFlag) {
    TempDir dir;
    const Outcome missing =
        run_captured(SUNFLOOR_CLI_BIN, "explore --freq", dir.path);
    EXPECT_EQ(missing.rc, 2);
    EXPECT_EQ(missing.err.rfind("missing value for --freq\n", 0), 0u)
        << missing.err;
    const Outcome bad =
        run_captured(SUNFLOOR_CLI_BIN, "explore --freq 400,0", dir.path);
    EXPECT_EQ(bad.rc, 2);
    EXPECT_EQ(bad.err,
              "bad --freq value '0' (expected a finite number > 0)\n");
    const Outcome phase =
        run_captured(SUNFLOOR_CLI_BIN, "simulate --phase 3", dir.path);
    EXPECT_EQ(phase.rc, 2);
    EXPECT_EQ(phase.err, "bad --phase value '3' (expected auto|1|2)\n");
    const Outcome lint = run_captured(SUNFLOOR_LINT_BIN, "--format yaml .",
                                  dir.path);
    EXPECT_EQ(lint.rc, 2);
    EXPECT_EQ(lint.err, "bad --format value 'yaml' (expected text|json)\n");
    const Outcome daemon =
        run_captured(SUNFLOORD_BIN, "--listen x.sock --workers -1", dir.path);
    EXPECT_EQ(daemon.rc, 2);
    EXPECT_EQ(daemon.err, "bad --workers value '-1' (expected a "
                          "non-negative integer)\n");
}

TEST(CliCas, StatsAndGcRefuseAMissingStoreAndCreateNothing) {
    TempDir dir;
    const std::string missing = dir.path + "/no_such_store";
    const std::string file = dir.path + "/plain_file";
    std::ofstream(file) << "not a store\n";
    for (const std::string op : {"stats", "gc"}) {
        for (const std::string& path : {missing, file}) {
            const Outcome r = run_captured(
                SUNFLOOR_CLI_BIN, "cas " + op + " --cas " + path, dir.path);
            EXPECT_EQ(r.rc, 1) << op << " " << path;
            EXPECT_EQ(r.err, "no store at " + path + "\n");
            EXPECT_EQ(r.out, "");
        }
        EXPECT_FALSE(std::filesystem::exists(missing)) << op;
        EXPECT_TRUE(std::filesystem::is_regular_file(file)) << op;
    }
    // An existing directory still reads as a store.
    const std::string store = dir.path + "/store";
    std::filesystem::create_directory(store);
    const Outcome ok =
        run_captured(SUNFLOOR_CLI_BIN, "cas stats --cas " + store, dir.path);
    EXPECT_EQ(ok.rc, 0) << ok.err;
    EXPECT_EQ(ok.out, store + ": 0 object(s), 0.00 MB\n");
}

// ------------------------------------------------- repeated flags, served

/// A tiny design plus a live in-process sunfloord on a unix socket.
class CliServed : public CliSeed {
  protected:
    void SetUp() override {
        CliSeed::SetUp();
        socket_ = sunfloor::format("/tmp/sunfloor_cli_flags_%d.sock",
                                   static_cast<int>(::getpid()));
        sunfloor::service::ServerOptions opts;
        opts.listen = socket_;
        opts.engine.workers = 1;
        server_ = std::make_unique<sunfloor::service::Server>(opts);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }
    void TearDown() override {
        server_.reset();
        std::remove(socket_.c_str());
    }

    /// `submit --explore ... --wait` stdout, the served _explore.csv.
    std::string submit_explore(const std::string& extra) {
        const Outcome r = run_captured(
            SUNFLOOR_CLI_BIN,
            "submit --connect " + socket_ + " --design " + design_ +
                " --no-floorplan --explore --wait " + extra,
            dir_.path);
        EXPECT_EQ(r.rc, 0) << extra << ": " << r.err;
        return r.out;
    }

    std::string socket_;
    std::unique_ptr<sunfloor::service::Server> server_;
};

TEST_F(CliServed, RepeatedFlagLastOccurrenceWins) {
    // One-shot explore.
    ASSERT_EQ(run("explore", "--threads 1 --phase 1 --phase 2", "twice"), 0);
    ASSERT_EQ(run("explore", "--threads 1 --phase 2", "once"), 0);
    ASSERT_EQ(run("explore", "--threads 1 --phase 1", "first"), 0);
    EXPECT_EQ(out("twice_explore.csv"), out("once_explore.csv"));
    EXPECT_NE(out("twice_explore.csv"), out("first_explore.csv"));

    // A served explore job: the axis is replaced, not appended to.
    const std::string twice = submit_explore("--phase 1 --phase 2");
    EXPECT_FALSE(twice.empty());
    EXPECT_EQ(twice, submit_explore("--phase 2"));
    EXPECT_NE(twice, submit_explore("--phase 1"));
    // And it is the one-shot run's bytes.
    EXPECT_EQ(twice, out("once_explore.csv"));
}

// ------------------------------------------------ one-shot / served parity

/// `config` field, CLI flag and values at, inside and outside its domain.
struct KnobCase {
    const char* field;
    const char* flag;
    std::vector<const char*> values;
};

TEST_F(CliKnobs, KnobDomainsMatchTheWireProtocol) {
    const std::vector<KnobCase> knobs = {
        {"freq_mhz", "--freq", {"400", "0.5", "0", "-5"}},
        {"max_tsvs", "--max-tsvs",
         {"1", "25", "0", "-1", "1000000000", "1000000001"}},
        {"width_bits", "--width", {"1", "64", "0", "-3"}},
        {"theta", "--theta", {"4", "0.5", "0", "-1"}},
        {"alpha", "--alpha", {"0", "1", "0.5", "1.0000001", "7", "-2"}},
        {"seed", "--seed",
         {"0", "9223372036854775807", "9223372036854775808", "-1"}},
    };
    // Nothing listens here: submit exits 1 at connect once its flags are
    // accepted, 2 when a flag is refused.
    const std::string nowhere = dir_.path + "/nobody.sock";
    for (const KnobCase& k : knobs) {
        for (const char* v : k.values) {
            const std::string frame = sunfloor::format(
                "{\"op\":\"submit\",\"kind\":\"explore\",\"spec\":\"x\","
                "\"config\":{\"%s\":%s}}",
                k.field, v);
            sunfloor::service::Request req;
            std::string error;
            const bool served =
                sunfloor::service::parse_request(frame, 0, req, error);
            const std::string flag = std::string(k.flag) + " " + v;
            EXPECT_EQ(run_cli("submit --connect " + nowhere + " --design " +
                              design_ + " --explore " + flag),
                      served ? 1 : 2)
                << flag << ": " << error;
            const int one_shot = run("explore", flag, "parity");
            EXPECT_EQ(one_shot == 2, !served) << flag << " -> " << one_shot;
        }
    }
    // The single-point spelling of the TSV budget on synth and simulate.
    for (const char* v : {"0", "1000000001"}) {
        EXPECT_EQ(run("", std::string("--max-ill ") + v, "bad"), 2) << v;
        EXPECT_EQ(run("simulate",
                      std::string(kSimKnobs) + " --max-ill " + v, "bad"),
                  2)
            << v;
    }
}

}  // namespace
