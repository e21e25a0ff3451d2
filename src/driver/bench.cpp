#include "driver/bench.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace awb::driver {

BenchDoc::BenchDoc(const char *cmd,
                   std::initializer_list<std::pair<std::string, Json>> header,
                   std::vector<std::string> columns)
    : cmd_(cmd), doc_(Json::object(header)), table_(std::move(columns))
{
    doc_.set("points", Json::array());
}

void
BenchDoc::point(Json entry, std::vector<std::string> row)
{
    doc_["points"].push(std::move(entry));
    table_.addRow(std::move(row));
}

void
BenchDoc::set(const std::string &key, Json value)
{
    doc_.set(key, std::move(value));
}

bool &
BenchDoc::gate(const char *name, bool ok)
{
    summary_.set(name, ok);
    gates_.emplace_back(name, ok);
    return gates_.back().second;
}

int
BenchDoc::finish(const std::string &path, const std::string &detail)
{
    if (path != "-") std::printf("%s", table_.render().c_str());
    std::string failed;
    for (const auto &[name, ok] : gates_) {
        summary_.set(name, ok);
        if (!ok) failed += std::string(failed.empty() ? "" : ", ") + name;
    }
    doc_.set("summary", std::move(summary_));
    writeDoc(doc_, path, cmd_);
    if (failed.empty()) return 0;
    std::fprintf(stderr, "%s: GATE FAILED — %s%s%s\n", cmd_, failed.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
    return 1;
}

std::vector<std::string>
withBaseline(std::vector<std::string> policies)
{
    if (std::find(policies.begin(), policies.end(), "baseline") ==
        policies.end())
        policies.insert(policies.begin(), "baseline");
    return policies;
}

exec::RunResult
benchRun(const char *cmd, const exec::RunRequest &req)
{
    exec::RunResult r = exec::run(req);
    if (!r.ok)
        fatal(std::string("--") + cmd + " " + req.dataset + "@" +
              std::to_string(req.pes) + " " + req.policy + ": " + r.error);
    return r;
}

} // namespace awb::driver
