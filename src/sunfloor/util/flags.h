// Table-driven command-line flags: the one argv loop of every tool.
//
// A command is a table of rows. Each row is a flag name, the metavar of
// its value (none for a switch), one line of help, and a setter that
// parses the value and applies its domain check. parse() walks argv once
// against the table: an unknown flag, a missing value and a refused value
// are usage errors with one message shape each —
//   unknown option '--frob'
//   missing value for --freq
//   bad --alpha value '7' (expected a number in [0, 1])
// — and the usage text is generated from the same rows, so the table is
// the flag reference. A repeated flag overwrites: the last occurrence
// wins, lists included.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sunfloor/util/strings.h"

namespace sunfloor::flags {

/// Exit code of every usage error (unknown flag, missing or bad value,
/// missing operand).
inline constexpr int kUsageExit = 2;

/// The accepted values of a numeric setting and the phrase an error
/// prints after "expected". The wire protocol checks job knobs against
/// the same ranges (service/job_params.h).
template <typename T>
struct Range {
    const char* expected;
    bool (*accepts)(T);
};

/// Common ranges of tool settings.
inline constexpr Range<int> kAnyInt{"an integer", [](int) { return true; }};
inline constexpr Range<double> kAnyNumber{"a number",
                                          [](double) { return true; }};
inline constexpr Range<double> kNonNegativeNumber{
    "a number >= 0", [](double v) { return v >= 0.0; }};
inline constexpr Range<int> kNonNegativeInt{"a non-negative integer",
                                            [](int v) { return v >= 0; }};
inline constexpr Range<int> kPositiveInt{"an integer >= 1",
                                         [](int v) { return v >= 1; }};
inline constexpr Range<long long> kNonNegative64{
    "a non-negative integer", [](long long v) { return v >= 0; }};
inline constexpr Range<long long> kPositive64{
    "an integer >= 1", [](long long v) { return v >= 1; }};

/// A refused value: the offending token (one element of a list) and the
/// expected domain.
struct Refusal {
    std::string token;
    std::string expected;
};

/// Applies one occurrence of a flag; nullopt when the value was taken.
/// Switches are called with an empty value.
using Setter =
    std::function<std::optional<Refusal>(const std::string& value)>;

struct Flag {
    std::string name;     ///< "--freq"
    std::string metavar;  ///< "MHZ[,...]"; empty for a switch
    std::string help;     ///< one line of the usage text
    Setter set;
};

using Flags = std::vector<Flag>;

/// Row groups compose by concatenation.
Flags operator+(Flags a, const Flags& b);

struct Command {
    std::string usage;  ///< synopsis after "usage: ", may span lines
    Flags flags;
    /// Metavar of positional operands; empty = a bare word is an unknown
    /// option.
    std::string operands = {};
};

struct Parsed {
    bool ok = false;
    std::set<std::string> seen;  ///< flags given at least once
    std::vector<std::string> operands;

    bool has(const std::string& name) const { return seen.contains(name); }
};

/// Parse argv[first, argc) against `cmd`'s rows. On a usage error the
/// message (plus the usage text for an unknown flag or a missing value)
/// goes to stderr and ok is false; the caller exits kUsageExit.
Parsed parse(const Command& cmd, int argc, char** argv, int first);

/// The usage text: the synopsis, then one aligned line per row.
std::string usage(const Command& cmd);

/// Print `message` and the usage text to stderr; returns kUsageExit.
int usage_error(const Command& cmd, const std::string& message);

// ------------------------------------------------------------ setters

/// Switches.
Setter set_true(bool& out);
Setter set_false(bool& out);

/// Any string value.
Setter text(std::string& out);

/// One token -> one value, false when the token is outside the domain.
template <typename T>
using Parser = std::function<bool(const std::string& token, T& out)>;

template <typename R>
bool parse_number(const std::string& s, R& out) {
    if constexpr (std::is_same_v<R, int>) {
        return parse_int(s, out);
    } else if constexpr (std::is_same_v<R, long long>) {
        return parse_int64(s, out);
    } else {
        static_assert(std::is_same_v<R, double>);
        return parse_double(s, out);
    }
}

/// A number parsed as R, checked against `r`, stored as T.
template <typename T, typename R>
Parser<T> in(Range<R> r) {
    return [r](const std::string& s, T& out) {
        R v{};
        if (!parse_number(s, v) || !r.accepts(v)) return false;
        out = static_cast<T>(v);
        return true;
    };
}

/// An enum through its name table's from_string (util/enum_names.h);
/// pair it with the table's choices() phrase as the expected domain.
template <typename E>
Parser<E> in(bool (*from_string)(const std::string&, E&)) {
    return [from_string](const std::string& s, E& out) {
        return from_string(s, out);
    };
}

/// One value.
template <typename T>
Setter one(T& out, Parser<T> parse, std::string expected) {
    return [&out, parse = std::move(parse),
            expected = std::move(expected)](
               const std::string& v) -> std::optional<Refusal> {
        T x{};
        if (!parse(v, x)) return Refusal{v, expected};
        out = x;
        return std::nullopt;
    };
}

/// One value stored as a one-element vector (a single-valued spelling of
/// a list knob).
template <typename T>
Setter single(std::vector<T>& out, Parser<T> parse, std::string expected) {
    return [&out, parse = std::move(parse),
            expected = std::move(expected)](
               const std::string& v) -> std::optional<Refusal> {
        T x{};
        if (!parse(v, x)) return Refusal{v, expected};
        out = {x};
        return std::nullopt;
    };
}

/// A comma list; the first refused element is reported.
template <typename T>
Setter list(std::vector<T>& out, Parser<T> parse, std::string expected) {
    return [&out, parse = std::move(parse),
            expected = std::move(expected)](
               const std::string& v) -> std::optional<Refusal> {
        std::vector<T> xs;
        for (const std::string& part : split(v, ',')) {
            T x{};
            if (!parse(part, x)) return Refusal{part, expected};
            xs.push_back(x);
        }
        out = std::move(xs);
        return std::nullopt;
    };
}

template <typename T, typename R>
Setter one(T& out, Range<R> r) {
    return one(out, in<T>(r), r.expected);
}

template <typename T, typename R>
Setter single(std::vector<T>& out, Range<R> r) {
    return single(out, in<T>(r), r.expected);
}

template <typename T, typename R>
Setter list(std::vector<T>& out, Range<R> r) {
    return list(out, in<T>(r), r.expected);
}

}  // namespace sunfloor::flags
