#include "sunfloor/util/flags.h"

#include <algorithm>
#include <cstdio>

namespace sunfloor::flags {

Flags operator+(Flags a, const Flags& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

namespace {

const Flag* find(const Command& cmd, const std::string& name) {
    for (const Flag& f : cmd.flags)
        if (f.name == name) return &f;
    return nullptr;
}

Parsed fail(const Command& cmd, const std::string& message, bool usage_too) {
    if (usage_too)
        usage_error(cmd, message);
    else
        std::fprintf(stderr, "%s\n", message.c_str());
    return Parsed{};
}

}  // namespace

Parsed parse(const Command& cmd, int argc, char** argv, int first) {
    Parsed out;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const Flag* f = find(cmd, arg);
        if (!f) {
            if (!cmd.operands.empty() && !starts_with(arg, "-")) {
                out.operands.push_back(arg);
                continue;
            }
            return fail(cmd, "unknown option '" + arg + "'", true);
        }
        std::string value;
        if (!f->metavar.empty()) {
            if (i + 1 >= argc)
                return fail(cmd, "missing value for " + arg, true);
            value = argv[++i];
        }
        if (const auto bad = f->set(value))
            return fail(cmd,
                        format("bad %s value '%s' (expected %s)", arg.c_str(),
                               bad->token.c_str(), bad->expected.c_str()),
                        false);
        out.seen.insert(arg);
    }
    out.ok = true;
    return out;
}

std::string usage(const Command& cmd) {
    std::size_t width = 0;
    for (const Flag& f : cmd.flags)
        width = std::max(width, f.name.size() + 1 + f.metavar.size());
    std::string out = "usage: " + cmd.usage + "\n";
    if (!cmd.flags.empty()) out += "\noptions:\n";
    for (const Flag& f : cmd.flags) {
        std::string lhs = f.name;
        if (!f.metavar.empty()) lhs += " " + f.metavar;
        lhs.resize(width, ' ');
        out += "  " + lhs + "  " + f.help + "\n";
    }
    return out;
}

int usage_error(const Command& cmd, const std::string& message) {
    std::fprintf(stderr, "%s\n%s", message.c_str(), usage(cmd).c_str());
    return kUsageExit;
}

Setter set_true(bool& out) {
    return [&out](const std::string&) -> std::optional<Refusal> {
        out = true;
        return std::nullopt;
    };
}

Setter set_false(bool& out) {
    return [&out](const std::string&) -> std::optional<Refusal> {
        out = false;
        return std::nullopt;
    };
}

Setter text(std::string& out) {
    return [&out](const std::string& v) -> std::optional<Refusal> {
        out = v;
        return std::nullopt;
    };
}

}  // namespace sunfloor::flags
