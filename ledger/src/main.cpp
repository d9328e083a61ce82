// ledger_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>]
//
// Runs one ledger workload and prints a JSON report line (context stamp,
// per-pass figures, checks), then the result line as the last line of
// standard output.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "runner.h"

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR]\nworkloads:",
                 argv0);
    for (const std::string& w : ledger::workload_names())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    ledger::RunConfig cfg;
    cfg.work_dir = ".bench_build/ledger/work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(argv[0]);
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1") return usage(argv[0]);
            cfg.trace = val == "1";
        } else if (arg == "--work-dir") {
            cfg.work_dir = val;
        } else {
            return usage(argv[0]);
        }
        if (end && *end != '\0') return usage(argv[0]);
    }
    if (cfg.workload.empty()) return usage(argv[0]);

    try {
        std::filesystem::create_directories(cfg.work_dir);
        const ledger::RunResult r = ledger::run_ledger(cfg);
        std::cout << r.report << "\n";
        ledger::write_result_line(std::cout, r);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage(argv[0]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger run failed: %s\n", e.what());
        return 1;
    }
    return 0;
}
