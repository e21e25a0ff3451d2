/**
 * @file
 * The awbsim command layer: one declarative flag table per command.
 *
 * Each entry of a command's table binds one flag (names, metavar, help)
 * to a field of the command's options struct, with the flag's parsing
 * and validation. `CommandLine::bind` walks argv against the table and
 * also renders the command's block of `awbsim --help`, reading each
 * default from the bound field — so the help cannot drift from what the
 * command does (DESIGN.md §13).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "driver/json.hpp"

namespace awb::driver {

/** fatal()-on-malformed-input number parsing: no sign on an unsigned
 *  value, no NaN or infinity, nothing left over. */
std::uint64_t parseUint(const std::string &flag, const std::string &v);
int parseInt(const std::string &flag, const std::string &v);
double parseDouble(const std::string &flag, const std::string &v);

/** Split a comma-separated CLI value; empty segments are dropped. */
std::vector<std::string> splitCsv(const std::string &s);

/** A double as flag text that reads back to the same value, in any
 *  locale. */
std::string formatNumber(double v);

/** One flag of a command, bound to a field of the command's options. */
struct Flag
{
    std::vector<std::string> names;  ///< primary name, then aliases
    std::string metavar;             ///< empty for a switch (no value)
    std::string help;
    std::function<void(const std::string &)> set;  ///< parse, check, store
    std::function<std::string()> show;  ///< the field as text ("" = none)
};

using Names = std::initializer_list<const char *>;
/** Reads one value (or list item) given to flag `flag`. */
template <typename T>
using Read = std::function<T(const std::string &flag, const std::string &)>;
template <typename T>
using Show = std::function<std::string(const T &)>;

/** Maps a name to the spelling stored, fatal() with a near-miss
 *  suggestion on an unknown one: canonical policy, platform and
 *  discipline names; a known dataset name as given. */
std::string resolvePolicy(const std::string &name);
std::string resolvePlatform(const std::string &name);
std::string resolveDiscipline(const std::string &name);
std::string checkDataset(const std::string &name);

/** A flag whose set() hands its primary name and the text to `set`. */
Flag makeFlag(Names names, const char *metavar, const char *help,
              Read<void> set, std::function<std::string()> show);

template <typename T>
std::string
showNumber(const T &v)
{
    if constexpr (std::is_floating_point_v<T>)
        return formatNumber(v);
    else
        return std::to_string(v);
}

/** int through parseInt, double through parseDouble, and the wider
 *  integers (every one a non-negative count) through parseUint; values
 *  below `min` are fatal. */
template <typename T>
Read<T>
readNumber(T min)
{
    return [min](const std::string &flag, const std::string &text) {
        T v;
        if constexpr (std::is_floating_point_v<T>) {
            v = parseDouble(flag, text);
        } else if constexpr (std::is_same_v<T, int>) {
            v = parseInt(flag, text);
        } else {
            const std::uint64_t u = parseUint(flag, text);
            if (u > static_cast<std::uint64_t>(
                        std::numeric_limits<T>::max()))
                fatal(flag + " is out of range: '" + text + "'");
            v = static_cast<T>(u);
        }
        if (v < min) fatal(flag + " must be >= " + showNumber(min));
        return v;
    };
}

template <typename T>
Flag
scalar(Names names, const char *metavar, T &field, const char *help,
       Read<T> read, Show<T> show)
{
    return makeFlag(
        names, metavar, help,
        [&field, read](const std::string &flag, const std::string &t) {
            field = read(flag, t);
        },
        [&field, show] { return show(field); });
}

template <typename T>
Flag
list(Names names, const char *metavar, std::vector<T> &field,
     const char *help, Read<T> read, Show<T> show)
{
    return makeFlag(
        names, metavar, help,
        [&field, read](const std::string &flag, const std::string &t) {
            const std::vector<std::string> items = splitCsv(t);
            if (items.empty()) fatal(flag + " must not be empty");
            field.clear();
            for (const auto &item : items) field.push_back(read(flag, item));
        },
        [&field, show] {
            std::string out;
            for (const T &v : field) out += (out.empty() ? "" : ",") + show(v);
            return out;
        });
}

/** A number (int, 64-bit count or double); values below `min` are
 *  fatal. */
template <typename T>
Flag
number(Names names, const char *metavar, T &field, const char *help,
       std::common_type_t<T> min = std::numeric_limits<T>::lowest())
{
    return scalar<T>(names, metavar, field, help, readNumber<T>(min),
                     showNumber<T>);
}

/** A comma-separated list of numbers. */
template <typename T>
Flag
numbers(Names names, const char *metavar, std::vector<T> &field,
        const char *help,
        std::common_type_t<T> min = std::numeric_limits<T>::lowest())
{
    return list<T>(names, metavar, field, help, readNumber<T>(min),
                   showNumber<T>);
}

/** An enumerated value (or a list of them), read by `parse` and shown
 *  by `name`. */
template <typename E>
Read<E>
readChoice(E (*parse)(const std::string &))
{
    return [parse](const std::string &, const std::string &t) {
        return parse(t);
    };
}

template <typename E>
Flag
choice(Names names, const char *metavar, E &field, const char *help,
       E (*parse)(const std::string &), std::string (*name)(E))
{
    return scalar<E>(names, metavar, field, help, readChoice(parse), name);
}

template <typename E>
Flag
choices(Names names, const char *metavar, std::vector<E> &field,
        const char *help, E (*parse)(const std::string &),
        std::string (*name)(E))
{
    return list<E>(names, metavar, field, help, readChoice(parse), name);
}

/** A string, or a comma-separated list of them, each passed through
 *  `resolve` when one is given. */
Flag text(Names names, const char *metavar, std::string &field,
          const char *help,
          std::string (*resolve)(const std::string &) = nullptr);
Flag texts(Names names, const char *metavar,
           std::vector<std::string> &field, const char *help,
           std::string (*resolve)(const std::string &) = nullptr);

/** A switch: takes no value and sets `field` to true. */
Flag toggle(Names names, bool &field, const char *help);

/** The flag lines of a usage block. */
std::string flagUsage(const std::vector<Flag> &flags);

/** Consume every occurrence of `flags` in `args`; returns the rest. */
std::vector<std::string> takeFlags(const std::vector<Flag> &flags,
                                   const std::vector<std::string> &args);

/** Non-flag tokens a command accepts (`awbsim run`'s scenario names). */
struct Positional
{
    std::string metavar;
    std::function<void(const std::string &)> take;
};

/** One command's arguments — or, for `awbsim --help` and the tests, a
 *  request to inspect the command's flag table instead of running. */
class CommandLine
{
  public:
    /** Receives the command's usage block and its flags, bound to
     *  default-constructed options. */
    using Inspect = std::function<void(const std::string &usage,
                                       const std::vector<Flag> &flags)>;

    CommandLine(std::string name, std::vector<std::string> args)
        : name_(std::move(name)), args_(std::move(args))
    {}
    CommandLine(std::string name, Inspect inspect)
        : name_(std::move(name)), inspect_(std::move(inspect))
    {}

    /** Parse mode: walk the arguments — fatal() on an unknown flag, an
     *  unexpected positional token or a missing value — and return
     *  true. Inspect mode: hand over the table and return false; the
     *  command then returns 0 without running. */
    bool bind(const std::string &summary, const std::vector<Flag> &flags,
              const Positional &positional = {});

  private:
    std::string name_;
    std::vector<std::string> args_;
    Inspect inspect_;
};

/** Write `doc` to `path` (stdout for "-") and say where it went. */
void writeDoc(const Json &doc, const std::string &path, const char *what);

/** A named pass/fail check a benchmark's exit code rides on. */
struct Gate
{
    const char *name;
    bool ok;
};

/** 0 when every gate passed; otherwise print the failed gates' names
 *  (and `detail`) to stderr and return 1. */
int gateExit(const char *cmd, std::initializer_list<Gate> gates,
             const std::string &detail = "");

} // namespace awb::driver
