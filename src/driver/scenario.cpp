#include "driver/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace awb::driver {

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(Scenario s)
{
    if (s.name.empty() || !s.run) fatal("scenario needs a name and a body");
    if (find(s.name)) fatal("duplicate scenario name: " + s.name);
    scenarios_.push_back(std::move(s));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &s : scenarios_)
        if (s.name == name) return &s;
    return nullptr;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    std::vector<const Scenario *> out;
    out.reserve(scenarios_.size());
    for (const auto &s : scenarios_) out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario *a, const Scenario *b) {
                  return a->name < b->name;
              });
    return out;
}

ScenarioRegistrar::ScenarioRegistrar(Scenario s)
{
    ScenarioRegistry::instance().add(std::move(s));
}

void
scenarioBanner(const Scenario &s)
{
    std::printf(
        "\n=============================================================="
        "\n%s — %s\n"
        "==============================================================\n",
        s.figure.c_str(), s.summary.c_str());
}

bool
bindScenarioCli(CommandLine &cl, ScenarioCli &cli)
{
    return cl.bind(
        "Run scenarios by name ('all' = every one); other positional "
        "arguments go to the selected scenarios.",
        {number({"--seed"}, "N", cli.ctx.seed, "base RNG seed"),
         number({"--scale"}, "S", cli.ctx.scale,
                "multiplies each scenario's dataset scale"),
         number({"--repeat"}, "N", cli.repeats,
                "run each scenario body N times"),
         text({"--json"}, "FILE", cli.jsonPath,
              "machine-readable scenario results ('-' = stdout)"),
         toggle({"--help", "-h"}, cli.help, "print the usage")},
        {"<scenario ...>", [&cli](const std::string &a) {
             if (a == "all") {
                 cli.runAll = true;
             } else if (ScenarioRegistry::instance().find(a)) {
                 cli.names.push_back(a);
             } else {
                 warn("'" + a + "' is not a scenario name; passing it "
                      "to the selected scenarios as an argument");
                 cli.ctx.args.push_back(a);
             }
         }});
}

int
runScenarioCli(ScenarioCli &cli)
{
    std::vector<const Scenario *> to_run;
    if (cli.runAll) {
        to_run = ScenarioRegistry::instance().all();
    } else {
        for (const auto &n : cli.names)
            to_run.push_back(ScenarioRegistry::instance().find(n));
    }
    if (to_run.empty())
        fatal("no scenario named; try 'awbsim --list-scenarios'");

    Json results = Json::object();
    for (const Scenario *s : to_run) {
        for (int r = 0; r < cli.repeats; ++r) {
            cli.ctx.repeat = r;
            cli.ctx.result = Json::object();
            scenarioBanner(*s);
            s->run(cli.ctx);
        }
        if (cli.ctx.result.size() > 0)
            results.set(s->name, std::move(cli.ctx.result));
    }
    if (!cli.jsonPath.empty()) {
        if (results.size() == 0)
            warn("--json given but no selected scenario produced "
                 "machine-readable results; not writing " + cli.jsonPath);
        else
            writeDoc(results, cli.jsonPath, "scenario");
    }
    return 0;
}

} // namespace awb::driver
