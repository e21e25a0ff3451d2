#include "driver/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "accel/policy.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"
#include "serve/scheduler.hpp"

namespace awb::driver {

namespace {

constexpr std::size_t kHelpColumn = 30;  ///< where a flag's help starts
constexpr std::size_t kWidth = 78;       ///< usage text wraps here

std::vector<std::string>
words(const std::string &text)
{
    std::istringstream in(text);
    return {std::istream_iterator<std::string>(in), {}};
}

/** Append `ws` wrapped at kWidth, continuing the current line (now at
 *  `column`); later lines start `indent` spaces in. */
void
appendWrapped(std::string &out, const std::vector<std::string> &ws,
              std::size_t column, std::size_t indent)
{
    for (std::size_t i = 0; i < ws.size(); ++i) {
        if (i > 0 && column + 1 + ws[i].size() > kWidth) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        } else if (i > 0) {
            out += ' ';
            ++column;
        }
        out += ws[i];
        column += ws[i].size();
    }
    out += '\n';
}

/** Walk `args` against `flags`; tokens no flag claims go to `other`. */
void
walk(const std::vector<Flag> &flags, const std::vector<std::string> &args,
     const std::function<void(const std::string &)> &other)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const Flag *hit = nullptr;
        for (const Flag &f : flags)
            for (const auto &n : f.names)
                if (n == args[i]) hit = &f;
        if (hit == nullptr) {
            other(args[i]);
        } else if (hit->metavar.empty()) {
            hit->set("");
        } else {
            if (i + 1 >= args.size())
                fatal(hit->names.front() + " needs a value");
            hit->set(args[++i]);
        }
    }
}

} // namespace

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    try {
        // std::stoull negates a leading minus sign instead of refusing it.
        if (v.find('-') != std::string::npos)
            throw std::invalid_argument(v);
        std::size_t used = 0;
        std::uint64_t out = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs an unsigned integer, got '" + v + "'");
    }
}

int
parseInt(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        int out = std::stoi(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs an integer, got '" + v + "'");
    }
}

double
parseDouble(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        double out = std::stod(v, &used);
        if (used != v.size() || !std::isfinite(out))
            throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        fatal(flag + " needs a finite number, got '" + v + "'");
    }
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) comma = s.size();
        if (comma > start) out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::string
formatNumber(double v)
{
    // Whole numbers print whole: the shortest form of 100000 is 1e+05.
    if (v == std::trunc(v) && std::fabs(v) < 1e15)
        return std::to_string(static_cast<long long>(v));
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    if (res.ec != std::errc()) panic("formatNumber: to_chars failed");
    return std::string(buf, res.ptr);
}

std::string
resolvePolicy(const std::string &name)
{
    return PolicyRegistry::instance().get(name).name;
}

std::string
resolvePlatform(const std::string &name)
{
    return findPlatform(name).name;
}

std::string
resolveDiscipline(const std::string &name)
{
    return serve::DisciplineRegistry::instance().get(name).name;
}

std::string
checkDataset(const std::string &name)
{
    findDataset(name);
    return name;
}

Flag
makeFlag(Names names, const char *metavar, const char *help,
         Read<void> set, std::function<std::string()> show)
{
    Flag f{{names.begin(), names.end()}, metavar, help, {}, std::move(show)};
    f.set = [set, flag = f.names.front()](const std::string &t) {
        set(flag, t);
    };
    return f;
}

Flag
text(Names names, const char *metavar, std::string &field, const char *help,
     std::string (*resolve)(const std::string &))
{
    return scalar<std::string>(
        names, metavar, field, help,
        [resolve](const std::string &, const std::string &t) {
            return resolve ? resolve(t) : t;
        },
        [](const std::string &v) { return v; });
}

Flag
texts(Names names, const char *metavar, std::vector<std::string> &field,
      const char *help, std::string (*resolve)(const std::string &))
{
    return list<std::string>(
        names, metavar, field, help,
        [resolve](const std::string &, const std::string &t) {
            return resolve ? resolve(t) : t;
        },
        [](const std::string &v) { return v; });
}

Flag
toggle(Names names, bool &field, const char *help)
{
    return makeFlag(
        names, "", help,
        [&field](const std::string &, const std::string &) { field = true; },
        [] { return std::string(); });
}

std::string
flagUsage(const std::vector<Flag> &flags)
{
    std::string out;
    for (const Flag &f : flags) {
        std::string left = "      " + f.names.front();
        for (std::size_t i = 1; i < f.names.size(); ++i)
            left += ", " + f.names[i];
        if (!f.metavar.empty()) left += " " + f.metavar;
        out += left;
        if (left.size() + 2 > kHelpColumn)
            out += "\n" + std::string(kHelpColumn, ' ');
        else
            out += std::string(kHelpColumn - left.size(), ' ');
        std::vector<std::string> ws = words(f.help);
        const std::string shown = f.show();
        if (!shown.empty()) ws.push_back("(default " + shown + ")");
        appendWrapped(out, ws, kHelpColumn, kHelpColumn);
    }
    return out;
}

std::vector<std::string>
takeFlags(const std::vector<Flag> &flags,
          const std::vector<std::string> &args)
{
    std::vector<std::string> rest;
    walk(flags, args, [&rest](const std::string &a) { rest.push_back(a); });
    return rest;
}

bool
CommandLine::bind(const std::string &summary, const std::vector<Flag> &flags,
                  const Positional &positional)
{
    if (inspect_) {
        std::string usage = "  awbsim " + name_ + " " +
                            (positional.take ? positional.metavar + " " : "") +
                            "[options]\n    ";
        appendWrapped(usage, words(summary), 4, 4);
        inspect_(usage + flagUsage(flags), flags);
        return false;
    }
    const std::string cmd =
        name_.rfind("--", 0) == 0 ? name_.substr(2) : name_;
    walk(flags, args_, [&](const std::string &a) {
        if (!positional.take || (!a.empty() && a[0] == '-'))
            fatal("unknown " + cmd + " flag: " + a);
        positional.take(a);
    });
    return true;
}

void
writeDoc(const Json &doc, const std::string &path, const char *what)
{
    const std::string rendered = doc.dump(2);
    if (path == "-") {
        std::printf("%s", rendered.c_str());
        return;
    }
    std::ofstream f(path);
    if (!f) fatal("cannot write " + path);
    f << rendered;
    std::printf("%s JSON written to %s\n", what, path.c_str());
}

int
gateExit(const char *cmd, std::initializer_list<Gate> gates,
         const std::string &detail)
{
    std::string failed;
    for (const Gate &g : gates)
        if (!g.ok) failed += std::string(failed.empty() ? "" : ", ") + g.name;
    if (failed.empty()) return 0;
    std::fprintf(stderr, "%s: GATE FAILED — %s%s%s\n", cmd, failed.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
    return 1;
}

} // namespace awb::driver
