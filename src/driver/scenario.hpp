/**
 * @file
 * Scenario registry: every paper experiment (figure/table reproduction,
 * example walk-through) registers itself here as a named scenario and
 * is then runnable as `awbsim run <name>`.
 *
 * A scenario is a function taking a ScenarioContext — shared argument
 * parsing, seeding, scaling and repeat logic live in the driver, not in
 * each experiment. Registration happens from static initializers
 * (ScenarioRegistrar at namespace scope in the scenario's TU), so the set
 * of scenarios in a binary is exactly the set of scenario TUs linked in.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/json.hpp"

namespace awb::driver {

/** Everything the driver passes into a scenario run. */
struct ScenarioContext
{
    std::uint64_t seed = 1;   ///< base RNG seed (scenarios derive from it)
    double scale = 1.0;       ///< multiplies the scenario's intrinsic
                              ///< dataset scale (cycle-accurate scenarios
                              ///< pick small defaults; 1.0 = as published)
    int repeat = 0;           ///< which repetition this is (0 = first)
    std::vector<std::string> args;  ///< scenario-specific positional args
    Json result = Json::object();   ///< optional machine-readable output
};

/** A registered experiment. */
struct Scenario
{
    std::string name;     ///< CLI identifier, e.g. "fig14-overall"
    std::string figure;   ///< paper artifact reproduced, e.g. "Figure 14 A-E"
    std::string summary;  ///< one-line description for --list-scenarios
    std::function<void(ScenarioContext &)> run;
};

/** Process-wide scenario table. */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register one scenario; fatal() on duplicate names. */
    void add(Scenario s);

    /** Look up by name; nullptr if unknown. */
    const Scenario *find(const std::string &name) const;

    /** All scenarios, sorted by name. */
    std::vector<const Scenario *> all() const;

  private:
    std::vector<Scenario> scenarios_;
};

/** Registers a scenario from a static initializer. */
struct ScenarioRegistrar
{
    explicit ScenarioRegistrar(Scenario s);
};

/** Print the scenario banner the old bench mains printed. */
void scenarioBanner(const Scenario &s);

/** Parsed state of the scenario CLI (`awbsim run ...`). */
struct ScenarioCli
{
    ScenarioContext ctx;
    int repeats = 1;
    bool runAll = false;        ///< the literal token "all" was given
    bool help = false;
    std::string jsonPath;       ///< --json target for scenario results
    std::vector<std::string> names;
};

/**
 * Bind the scenario flags (--seed/--scale/--repeat/--json/--help) and
 * the positional tokens: scenario names, "all", and scenario-specific
 * args. A token that names no scenario goes to ctx.args with a warning
 * — a misspelled scenario name would otherwise vanish silently.
 * Returns false when `cl` only inspects the table.
 */
bool bindScenarioCli(CommandLine &cl, ScenarioCli &cli);

/**
 * Run the scenarios the CLI selected; fails when it named none (an
 * explicit name or "all" is required). Returns a process exit code.
 */
int runScenarioCli(ScenarioCli &cli);

} // namespace awb::driver
