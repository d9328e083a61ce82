// sunfloor_lint — project-invariant checker (see sunfloor/lint/lint.h
// for the rule catalogue and suppression syntax).
//
// Usage: sunfloor_lint [options] <file-or-dir>... The flag table in
// main() is the reference; a bad flag or no input prints it.
//
// Directories are walked recursively for *.h / *.cpp; directories named
// "fixtures", ".git" or starting with "build" are skipped (the lint
// test's bad fixtures are intentionally full of violations).
//
// Exit codes: 0 clean (or findings without --error-on-findings),
//             1 findings with --error-on-findings,
//             2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sunfloor/lint/lint.h"
#include "sunfloor/util/flags.h"
#include "sunfloor/util/strings.h"

namespace fs = std::filesystem;
using sunfloor::lint::SourceFile;

namespace {

bool skip_dir(const fs::path& p) {
    const std::string name = p.filename().string();
    return name == "fixtures" || name == ".git" ||
           sunfloor::starts_with(name, "build");
}

bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cpp";
}

bool load_file(const fs::path& p, std::vector<SourceFile>& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        std::cerr << "sunfloor_lint: cannot read " << p.generic_string()
                  << "\n";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out.push_back({p.generic_string(), ss.str()});
    return true;
}

bool collect(const fs::path& root, std::vector<SourceFile>& out) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
        fs::recursive_directory_iterator it(root, ec), end;
        if (ec) {
            std::cerr << "sunfloor_lint: cannot walk "
                      << root.generic_string() << ": " << ec.message()
                      << "\n";
            return false;
        }
        for (; it != end; it.increment(ec)) {
            if (ec) {
                std::cerr << "sunfloor_lint: walk error under "
                          << root.generic_string() << ": " << ec.message()
                          << "\n";
                return false;
            }
            if (it->is_directory()) {
                if (skip_dir(it->path())) it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable(it->path()) &&
                !load_file(it->path(), out))
                return false;
        }
        return true;
    }
    if (fs::is_regular_file(root, ec)) return load_file(root, out);
    std::cerr << "sunfloor_lint: no such file or directory: "
              << root.generic_string() << "\n";
    return false;
}

}  // namespace

int main(int argc, char** argv) {
    std::string fmt = "text";
    bool error_on_findings = false;

    bool list_rules = false;
    const sunfloor::flags::Parser<std::string> format =
        [](const std::string& v, std::string& out) {
            out = v;
            return v == "text" || v == "json";
        };
    const sunfloor::flags::Command cmd{
        "sunfloor_lint [options] <file-or-dir>...",
        {{"--format", "text|json", "report format (default text)",
          sunfloor::flags::one(fmt, format, "text|json")},
         {"--error-on-findings", "",
          "exit 1 when findings remain (CI mode); otherwise findings are "
          "reported and the exit code stays 0",
          sunfloor::flags::set_true(error_on_findings)},
         {"--list-rules", "", "print every rule id and exit",
          sunfloor::flags::set_true(list_rules)}},
        "<file-or-dir>"};
    const sunfloor::flags::Parsed args =
        sunfloor::flags::parse(cmd, argc, argv, 1);
    if (!args.ok) return sunfloor::flags::kUsageExit;
    if (list_rules) {
        for (const char* id : sunfloor::lint::rule_ids())
            std::cout << id << "\n";
        return 0;
    }
    if (args.operands.empty())
        return sunfloor::flags::usage_error(cmd, "no input files");

    std::vector<SourceFile> files;
    for (const std::string& root : args.operands)
        if (!collect(root, files)) return 2;

    // Deterministic report order whatever the directory walk produced.
    std::sort(files.begin(), files.end(),
              [](const SourceFile& a, const SourceFile& b) {
                  return a.path < b.path;
              });

    const auto findings = sunfloor::lint::run_lint(files);
    if (fmt == "json")
        std::cout << sunfloor::lint::to_json(findings);
    else
        sunfloor::lint::write_text(std::cout, findings);
    if (!findings.empty() && fmt == "text")
        std::cerr << "sunfloor_lint: " << findings.size() << " finding"
                  << (findings.size() == 1 ? "" : "s") << " in "
                  << files.size() << " files\n";
    return (!findings.empty() && error_on_findings) ? 1 : 0;
}
