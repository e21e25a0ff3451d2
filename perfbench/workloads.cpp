#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta_csr.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "exec/run.hpp"
#include "exec/workload_cache.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/spgemm.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"
#include "sparse/spmm.hpp"
#include "calib.hpp"
#include "trace.hpp"

namespace perfbench {

using awb::AccelConfig;
using awb::CscMatrix;
using awb::Dataset;
using awb::DenseMatrix;
using awb::EngineKind;
using awb::GcnModel;
using awb::Index;
using awb::driver::SweepOptions;
using awb::driver::SweepPoint;
using awb::exec::Mode;

namespace {

const std::vector<std::string> kPaperDesigns = {
    "baseline", "local-a", "local-b", "remote-c", "remote-d"};

bool
tracing()
{
    return tracer().enabled();
}

void
appendInt(std::string &s, const char *name, long long v)
{
    s += name;
    s += '=';
    s += std::to_string(v);
    s += ' ';
}

void
appendDouble(std::string &s, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%a ", name, v);
    s += buf;
}

/** Policy configuration of one request, as exec::run builds it. */
AccelConfig
configFor(const SweepPoint &p, EngineKind engine)
{
    const awb::DatasetSpec &spec = awb::findDataset(p.dataset);
    AccelConfig cfg = awb::configureForPolicy(
        awb::PolicyRegistry::instance().get(p.policy), p.pes,
        awb::hopBase(spec));
    cfg.engine = engine;
    cfg.platform = p.platform;
    cfg.chips = p.chips;
    std::string err = cfg.validate(p.mode != Mode::Model);
    if (!err.empty()) throw std::runtime_error(err);
    return cfg;
}

/**
 * One request under an `exec.run` span: `body` configures, executes
 * and folds into the outcome, returning the config finalize() needs.
 * This is exec::run's dispatch replayed through public functions, so
 * that on a traced pass each layer call gets its own child span.
 */
template <typename Body>
Outcome
request(const SweepPoint &p, Body &&body)
{
    Outcome out;
    out.point = p;
    Scope span("exec.run", static_cast<int>(p.index));
    try {
        AccelConfig cfg = body(out);
        awb::exec::finalize(out, cfg);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

/** One request through exec::run itself. */
Outcome
libraryRun(const SweepPoint &p, EngineKind engine, Index dense_cols = 0)
{
    awb::exec::RunRequest req;
    req.dataset = p.dataset;
    req.policy = p.policy;
    req.platform = p.platform;
    req.pes = p.pes;
    req.chips = p.chips;
    req.mode = p.mode;
    req.engine = engine;
    req.seed = p.seed;
    req.denseCols = dense_cols;
    Outcome out;
    out.point = p;
    static_cast<awb::exec::RunResult &>(out) = awb::exec::run(req);
    return out;
}

/** Tasks of the event-stepped rounds. Every round of a dense-operand
 *  SPMM streams the whole sparse operand, so tasks split evenly. */
double
steppedTasks(const awb::SpmmStats &s)
{
    return s.rounds > 0 ? static_cast<double>(s.tasks) *
                              static_cast<double>(s.roundsSimulated) /
                              static_cast<double>(s.rounds)
                        : 0.0;
}

/** Timing StatsSink: a node's span runs from the previous node's
 *  completion (or the run's start) to its own completion. */
class NodeTimer : public awb::sim::StatsSink
{
  public:
    NodeTimer(Counts &counts, int request)
        : counts_(counts), request_(request), last_(nowUs())
    {
    }

    void
    onNode(const awb::sim::WorkloadNode &node,
           const awb::SpmmStats &s) override
    {
        double now = nowUs();
        std::string label;
        for (char c : node.label)
            if (c != '(' && c != ')') label += c;
        tracer().add("sim." + label, last_, now, request_);
        counts_[node.tdq == awb::TdqKind::Tdq1DenseScan
                    ? "accel.tdq1_ms"
                    : "accel.tdq2_ms"] += (now - last_) / 1000.0;
        counts_["accel.stepped_tasks"] += steppedTasks(s);
        last_ = now;
    }

  private:
    Counts &counts_;
    int request_;
    double last_;
};

/** A cycle-mode 2-layer GCN through sim::Session with a timing
 *  StatsSink: runGcn's own path (buildGcn, then a Session run),
 *  decomposed for traced passes. */
Outcome
gcnRequest(const SweepPoint &p, const Dataset &ds, const GcnModel &model,
           EngineKind engine, Counts &counts)
{
    const int id = static_cast<int>(p.index);
    return request(p, [&](Outcome &out) {
        AccelConfig cfg = configFor(p, engine);
        awb::sim::WorkloadBundle bundle;
        std::unique_ptr<awb::sim::Session> session;
        {
            Scope span("sim.build", id);
            bundle = awb::sim::buildGcn(ds, model);
            session = std::make_unique<awb::sim::Session>(cfg);
            for (auto &[name, m] : bundle.sparse)
                session->bindSparse(name, std::move(m));
            for (auto &[name, m] : bundle.dense)
                session->bindDense(name, std::move(m));
        }
        awb::sim::SessionResult res;
        {
            Scope span("sim.run", id);
            NodeTimer sink(counts, id);
            res = session->run(bundle.graph, tracing() ? &sink : nullptr);
        }
        awb::exec::fold(out, res);
        return cfg;
    });
}

/** exec::run's Cycle path through awb::runGcn, on operands the
 *  benchmark holds (no workload cache). */
Outcome
gcnLibraryRequest(const SweepPoint &p, const Dataset &ds,
                  const GcnModel &model, EngineKind engine)
{
    return request(p, [&](Outcome &out) {
        AccelConfig cfg = configFor(p, engine);
        awb::GcnRunResult res = awb::runGcn(cfg, ds, model);
        for (const auto &layer : res.layers) {
            awb::exec::fold(out, layer.xw);
            awb::exec::fold(out, layer.ax);
            for (const auto &hop : layer.extraHops) awb::exec::fold(out, hop);
        }
        out.cycles = res.totalCycles;
        out.tasks = res.totalTasks;
        return cfg;
    });
}

/** A single TDQ-2 SPMM (exec::run's SpmmTdq2 path). */
Outcome
spmmRequest(const SweepPoint &p, const CscMatrix &a, const DenseMatrix &b,
            EngineKind engine, Counts &counts)
{
    const int id = static_cast<int>(p.index);
    return request(p, [&](Outcome &out) {
        AccelConfig cfg = configFor(p, engine);
        awb::RowPartition part;
        {
            Scope span("accel.partition", id);
            part = awb::makePartitionPolicy(cfg)->build(a.rows(),
                                                        a.rowNnz(), cfg);
        }
        awb::SpmmResult r;
        double t0 = nowUs();
        {
            Scope span("accel.tdq2", id);
            r = awb::SpmmEngine(cfg).execute(
                a, b, awb::TdqKind::Tdq2OmegaCsc, part);
        }
        if (tracing()) {
            counts["accel.tdq2_ms"] += (nowUs() - t0) / 1000.0;
            counts["accel.stepped_tasks"] += steppedTasks(r.stats);
        }
        awb::exec::fold(out, r.stats);
        return cfg;
    });
}

/** The reference functional GCN on one request's operands (the floor
 *  for computing values outside the timing loop). */
void
referenceGcn(const Dataset &ds, const GcnModel &model, int id)
{
    Scope span("sparse.spmm", id);
    DenseMatrix h;
    for (std::size_t l = 0; l < model.weights.size(); ++l) {
        DenseMatrix xw = l == 0
            ? awb::spmmCsr(ds.features, model.weights[l])
            : awb::spmmDenseStored(h, model.weights[l]);
        h = awb::spmmCsc(ds.adjacency, xw);
        if (l + 1 < model.weights.size()) h.relu();
    }
}

/** Render the outcomes as the sweep's JSON document (driver.json). */
void
renderJson(const SweepOptions &opts, const std::vector<Outcome> &outs)
{
    Scope span("driver.json");
    static std::size_t bytes = 0;
    bytes += awb::driver::sweepToJson(opts, outs).dump().size();
}

/** Simulated rounds of the cycle-engine requests of a pass. */
void
countRounds(const std::vector<Outcome> &outs, Counts &counts)
{
    for (const Outcome &o : outs) {
        if (o.point.mode == Mode::Model) continue;
        counts["accel.rounds"] += static_cast<double>(o.rounds);
        counts["accel.rounds_stepped"] +=
            static_cast<double>(o.roundsSimulated);
    }
}

/** `n` distinct members of `eligible`, chosen by the workload seed. */
std::vector<std::size_t>
sample(std::uint64_t seed, std::vector<std::size_t> eligible, std::size_t n)
{
    std::vector<std::size_t> out;
    std::uint64_t state = awb::splitmix64(seed ^ 0x5eedc0ffee123457ULL);
    while (out.size() < n && !eligible.empty()) {
        state = awb::splitmix64(state);
        std::size_t k = static_cast<std::size_t>(state % eligible.size());
        out.push_back(eligible[k]);
        eligible.erase(eligible.begin() + static_cast<std::ptrdiff_t>(k));
    }
    return out;
}

/** Indices of the points whose dataset is one of `datasets` (all when
 *  empty). */
std::vector<std::size_t>
indicesOf(const std::vector<SweepPoint> &points,
          const std::vector<std::string> &datasets = {})
{
    std::vector<std::size_t> out;
    for (const SweepPoint &p : points)
        if (datasets.empty() ||
            std::find(datasets.begin(), datasets.end(), p.dataset) !=
                datasets.end())
            out.push_back(p.index);
    return out;
}

/**
 * Run one request through exec::run itself with the given engine and
 * cache state (caches start empty), and compare every model field but
 * rounds_simulated with the benchmark's outcome.
 */
void
expectLibraryMatch(const Outcome &mine, EngineKind engine, bool caches,
                   Index dense_cols, const std::string &what,
                   CheckResult &check)
{
    const bool was = awb::exec::cachesEnabled();
    awb::exec::setCachesEnabled(caches);
    awb::exec::WorkloadCache::instance().clear();
    awb::RoundStateCache::instance().clear();
    Outcome ref = libraryRun(mine.point, engine, dense_cols);
    awb::exec::setCachesEnabled(was);
    ++check.attempted;
    if (!ref.ok || !mine.ok ||
        signature(ref, false) != signature(mine, false)) {
        ++check.failed;
        check.messages.push_back(what + " differs on " +
                                 requestKey(mine.point));
    }
}

/** Every point renumbered in order (several grids in one workload). */
std::vector<SweepPoint>
concat(std::vector<SweepPoint> a, const std::vector<SweepPoint> &b)
{
    for (SweepPoint p : b) {
        p.index = a.size();
        a.push_back(std::move(p));
    }
    return a;
}

SweepOptions
smallGrid(std::vector<std::string> datasets, std::vector<Mode> modes,
          EngineKind engine, std::uint64_t seed)
{
    SweepOptions o;
    o.datasets = std::move(datasets);
    o.designs = {"baseline", "remote-d"};
    o.peCounts = {64, 256};
    o.modes = std::move(modes);
    o.engine = engine;
    o.seed = seed;
    o.threads = 1;
    return o;
}

std::shared_ptr<const Dataset>
synthDataset(const SweepPoint &p)
{
    Scope span("graph.synth");
    return std::make_shared<const Dataset>(awb::loadSynthetic(
        awb::findDataset(p.dataset), p.seed, 1.0));
}

// ------------------------------------------------------------ event-step

/**
 * Cycle-mode GCN on cora and citeseer plus single TDQ-2 SPMMs on pubmed,
 * event engine, both process-wide caches off: every round is stepped.
 */
class EventStep : public Workload
{
  public:
    /** Dense-operand width of the pubmed SPMMs (exec::run's `k` axis):
     *  half the spec's f2, so the four SPMMs take about a third of a
     *  pass instead of half. */
    static constexpr Index kPubmedCols = 8;

    std::string
    cacheState() const override
    {
        return "workload and round-entry caches off for the whole run; "
               "setup synthesizes every operand, held by the benchmark";
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        awb::exec::setCachesEnabled(false);
        gcnOpts_ = smallGrid({"cora", "citeseer"}, {Mode::Cycle},
                             EngineKind::Event, seed);
        spmmOpts_ = smallGrid({"pubmed"}, {Mode::SpmmTdq2},
                              EngineKind::Event, seed);
        points_ = concat(awb::driver::expandGrid(gcnOpts_),
                         awb::driver::expandGrid(spmmOpts_));
        gcn_.clear();
        for (const SweepPoint &p : points_) {
            if (p.mode != Mode::Cycle || gcn_.count(p.dataset)) continue;
            GcnInput in;
            in.ds = synthDataset(p);
            in.model = awb::makeGcnModel(in.ds->spec.f1, in.ds->spec.f2,
                                         in.ds->spec.f3, p.seed);
            gcn_.emplace(p.dataset, std::move(in));
        }
        const SweepPoint &sp = points_.back();
        {
            Scope span("graph.synth");
            pubA_ = awb::loadSyntheticAdjacency(
                awb::findDataset(sp.dataset), sp.seed, 1.0);
        }
        awb::Rng rng(sp.seed, /*seq=*/2);
        pubB_ = DenseMatrix(pubA_.cols(), kPubmedCols);
        pubB_.fillUniform(rng, -1.0f, 1.0f);
    }

    std::vector<Outcome>
    pass() override
    {
        std::vector<Outcome> outs;
        for (const SweepPoint &p : points_) {
            if (p.mode == Mode::Cycle) {
                const GcnInput &in = gcn_.at(p.dataset);
                outs.push_back(
                    tracing() ? gcnRequest(p, *in.ds, in.model,
                                           EngineKind::Event, counts)
                              : gcnLibraryRequest(p, *in.ds, in.model,
                                                  EngineKind::Event));
            } else {
                outs.push_back(spmmRequest(p, pubA_, pubB_,
                                           EngineKind::Event, counts));
            }
            passClock().mark();
        }
        renderJson(gcnOpts_, outs);
        if (tracing()) countRounds(outs, counts);
        return outs;
    }

    void
    probe(const std::vector<Outcome> &, CheckResult &) override
    {
        for (const SweepPoint &p : points_) {
            if (p.mode == Mode::Cycle) {
                const GcnInput &in = gcn_.at(p.dataset);
                referenceGcn(*in.ds, in.model, static_cast<int>(p.index));
            } else {
                Scope span("sparse.spmm", static_cast<int>(p.index));
                awb::spmmCsc(pubA_, pubB_);
            }
        }
    }

    CheckResult
    check(const std::vector<Outcome> &outs) override
    {
        // event == batched and caches off == on, through exec::run.
        CheckResult c;
        std::vector<std::size_t> picks =
            sample(seed_, indicesOf(points_, {"cora", "citeseer"}), 2);
        for (std::size_t i : sample(seed_ + 1, indicesOf(points_, {"pubmed"}),
                                    1))
            picks.push_back(i);
        for (std::size_t i : picks)
            expectLibraryMatch(outs[i], EngineKind::Batched, true,
                               kPubmedCols, "batched+caches", c);
        return c;
    }

  private:
    struct GcnInput
    {
        std::shared_ptr<const Dataset> ds;
        GcnModel model;
    };

    SweepOptions gcnOpts_;
    SweepOptions spmmOpts_;
    std::vector<SweepPoint> points_;
    std::map<std::string, GcnInput> gcn_;
    CscMatrix pubA_;
    DenseMatrix pubB_;
};

// ----------------------------------------------------------- cycle-sweep

/** Round-entry cache activity of one timed pass, which starts with the
 *  cache empty. */
class RoundCachePass
{
  public:
    void
    start()
    {
        awb::RoundStateCache &rc = awb::RoundStateCache::instance();
        rc.clear();
        hits_ = rc.hits();
        misses_ = rc.misses();
    }

    void
    count(Counts &c) const
    {
        const awb::RoundStateCache &rc = awb::RoundStateCache::instance();
        c["accel.round_cache.hits"] += static_cast<double>(rc.hits() - hits_);
        c["accel.round_cache.misses"] +=
            static_cast<double>(rc.misses() - misses_);
        c["accel.round_cache.entries"] += static_cast<double>(rc.size());
    }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * `awbsim --sweep --modes cycle --engine batched` with both caches on
 * and one worker (with two, cache hits, stepped rounds and peak RSS
 * depend on the thread interleaving). A one-worker driver::runSweep is
 * runSweepPoint over the grid in order; the pass makes those calls
 * itself so the clock can mark request boundaries. Setup fills the
 * workload cache; the
 * round-entry cache is emptied before every pass.
 */
class CycleSweep : public Workload
{
  public:
    std::string
    cacheState() const override
    {
        return "workload cache filled during setup; round-entry cache "
               "empty at the start of every timed pass";
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        awb::exec::setCachesEnabled(true);
        awb::exec::WorkloadCache::instance().clear();
        awb::RoundStateCache::instance().clear();
        opts_ = smallGrid({"cora", "citeseer", "pubmed"}, {Mode::Cycle},
                          EngineKind::Batched, seed);
        points_ = awb::driver::expandGrid(opts_);
        for (const SweepPoint &p : points_) {
            if (p.index > 0 && points_[p.index - 1].dataset == p.dataset)
                continue;
            Scope span("graph.synth");
            awb::exec::cachedDataset(awb::findDataset(p.dataset), p.seed,
                                     1.0);
        }
    }

    void beforePass() override { roundCache_.start(); }

    std::vector<Outcome>
    pass() override
    {
        std::vector<Outcome> outs;
        for (const SweepPoint &p : points_) {
            outs.push_back(awb::driver::runSweepPoint(p, opts_));
            passClock().mark();
        }
        renderJson(opts_, outs);
        if (tracing()) {
            countRounds(outs, counts);
            roundCache_.count(counts);
        }
        return outs;
    }

    /** The grid again, one request at a time through the decomposed GCN
     *  path, for per-node spans; its outputs must match the sweep's. */
    void
    probe(const std::vector<Outcome> &outs, CheckResult &check) override
    {
        awb::RoundStateCache::instance().clear();
        std::map<std::string, GcnModel> models;
        for (const SweepPoint &p : points_) {
            auto ds = awb::exec::cachedDataset(awb::findDataset(p.dataset),
                                               p.seed, 1.0);
            auto it = models.find(p.dataset);
            if (it == models.end())
                it = models
                         .emplace(p.dataset,
                                  awb::makeGcnModel(ds->spec.f1,
                                                    ds->spec.f2,
                                                    ds->spec.f3, p.seed))
                         .first;
            Outcome o = gcnRequest(p, *ds, it->second, EngineKind::Batched,
                                   counts);
            ++check.attempted;
            if (signature(o, false) != signature(outs[p.index], false)) {
                ++check.failed;
                check.messages.push_back("layer pass differs on " +
                                         requestKey(p));
            }
            referenceGcn(*ds, it->second, static_cast<int>(p.index));
        }
    }

    CheckResult
    check(const std::vector<Outcome> &outs) override
    {
        // caches on == off (batched), and batched == event on a small
        // point, through exec::run.
        CheckResult c;
        for (std::size_t i : sample(seed_, indicesOf(points_), 2))
            expectLibraryMatch(outs[i], EngineKind::Batched, false, 0,
                               "caches-off", c);
        for (std::size_t i :
             sample(seed_ + 1, indicesOf(points_, {"cora", "citeseer"}), 1))
            expectLibraryMatch(outs[i], EngineKind::Event, false, 0,
                               "event engine", c);
        return c;
    }

  private:
    SweepOptions opts_;
    std::vector<SweepPoint> points_;
    RoundCachePass roundCache_;
};

// ----------------------------------------------------------- model-sweep

/** The round-level PerfModel at full scale (paper Figs. 14/15): five
 *  datasets × five designs × {512..4096} PEs, no cycle engine. */
class ModelSweep : public Workload
{
  public:
    std::string
    cacheState() const override
    {
        return "workload cache filled during setup with full-scale "
               "profiles; round-entry cache unused";
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        awb::exec::setCachesEnabled(true);
        awb::exec::WorkloadCache::instance().clear();
        opts_ = SweepOptions{};
        opts_.designs = kPaperDesigns;
        opts_.peCounts = {512, 1024, 2048, 4096};
        opts_.seed = seed;
        opts_.threads = 1;
        points_ = awb::driver::expandGrid(opts_);
        for (const SweepPoint &p : points_) {
            if (p.index > 0 && points_[p.index - 1].dataset == p.dataset)
                continue;
            Scope span("graph.synth");
            awb::exec::cachedProfile(awb::findDataset(p.dataset), p.seed,
                                     1.0);
        }
    }

    std::vector<Outcome>
    pass() override
    {
        std::vector<Outcome> outs;
        for (const SweepPoint &p : points_) {
            outs.push_back(tracing() ? layered(p)
                                     : libraryRun(p, EngineKind::Event));
            passClock().mark();
        }
        renderJson(opts_, outs);
        return outs;
    }

    CheckResult
    check(const std::vector<Outcome> &outs) override
    {
        // caches on == off, through exec::run.
        CheckResult c;
        for (std::size_t i : sample(seed_, indicesOf(points_), 3))
            expectLibraryMatch(outs[i], EngineKind::Event, false, 0,
                               "caches-off", c);
        return c;
    }

  private:
    /** exec::run's Model path, decomposed for traced passes. */
    static Outcome
    layered(const SweepPoint &p)
    {
        return request(p, [&](Outcome &out) {
            auto prof = awb::exec::cachedProfile(awb::findDataset(p.dataset),
                                                 p.seed, 1.0);
            AccelConfig cfg = configFor(p, EngineKind::Event);
            awb::PerfGcnResult res;
            {
                Scope span("accel.perf_model", static_cast<int>(p.index));
                res = awb::PerfModel(cfg).runGcn(*prof);
            }
            out.cycles = res.totalCycles;
            out.tasks = res.totalTasks;
            for (const auto &layer : res.layers) {
                awb::exec::fold(out, layer.xw);
                awb::exec::fold(out, layer.ax);
            }
            return cfg;
        });
    }

    SweepOptions opts_;
    std::vector<SweepPoint> points_;
};

// ---------------------------------------------------------------- stream

/** exec::run's churn parameters. */
awb::dynamic::ChurnParams
churnParams(std::uint64_t seed)
{
    awb::dynamic::ChurnParams churn;
    churn.seed = seed;
    return churn;
}

awb::dynamic::DynamicOptions
churnOptions(const CscMatrix &a, std::uint64_t seed)
{
    awb::dynamic::DynamicOptions d;
    d.fidelity = awb::dynamic::DynamicFidelity::Cycle;
    d.epochs = 6;
    d.eventsPerEpoch = std::max<awb::Count>(16, a.nnz() / 20);
    d.denseCols = 8;
    d.seed = seed;
    return d;
}

/**
 * Churn epochs, BFS and PageRank in cycle fidelity (batched engine,
 * caches on) on cora and citeseer: the graph is written beside
 * inference reads and task streams change every epoch or iteration.
 *
 * On graphs this small, iteration counts and hub placement swing the
 * simulated cycles by 10-20% from one synthesized instance to the
 * next, so each (policy, PEs) configuration gets its own instance: a
 * pass averages four draws per dataset instead of one.
 */
class Stream : public Workload
{
  public:
    static constexpr double kDamping = 0.85;
    static constexpr double kTol = 1e-6;
    static constexpr awb::Count kMaxIters = 200;

    std::string
    cacheState() const override
    {
        return "workload cache filled during setup with the adjacencies; "
               "round-entry cache empty at the start of every timed pass";
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        awb::exec::setCachesEnabled(true);
        awb::exec::WorkloadCache::instance().clear();
        awb::RoundStateCache::instance().clear();
        opts_ = smallGrid({"cora", "citeseer"},
                          {Mode::ChurnGcn, Mode::Bfs, Mode::Pagerank},
                          EngineKind::Batched, seed);
        points_ = awb::driver::expandGrid(opts_);
        adj_.clear();
        for (SweepPoint &p : points_) {
            p.seed = awb::driver::deriveWorkloadSeed(
                seed, p.dataset + "/" + p.policy + "/" +
                          std::to_string(p.pes));
            if (adj_.count(p.seed)) continue;
            Scope span("graph.synth");
            adj_[p.seed] = awb::exec::cachedAdjacency(
                awb::findDataset(p.dataset), p.seed, 1.0);
        }
    }

    void beforePass() override { roundCache_.start(); }

    std::vector<Outcome>
    pass() override
    {
        std::vector<Outcome> outs;
        for (const SweepPoint &p : points_) {
            outs.push_back(tracing() ? layered(p)
                                     : libraryRun(p, EngineKind::Batched));
            passClock().mark();
        }
        renderJson(opts_, outs);
        if (tracing()) {
            countRounds(outs, counts);
            roundCache_.count(counts);
        }
        return outs;
    }

    /** The functional SpGEMM the frontier kernels lean on, and each churn
     *  stream replayed through EdgeChurnStream and DeltaCsr::apply. */
    void
    probe(const std::vector<Outcome> &, CheckResult &check) override
    {
        for (const auto &[instance_seed, a] : adj_) {
            Scope span("kernels.spgemm");
            awb::kernels::spgemm(*a, *a);
        }
        for (const SweepPoint &p : points_) {
            if (p.mode != Mode::ChurnGcn) continue;
            const CscMatrix &a = *adj_.at(p.seed);
            awb::dynamic::DynamicOptions d = churnOptions(a, p.seed);
            awb::dynamic::EdgeChurnStream stream(a, churnParams(p.seed));
            awb::dynamic::DeltaCsr delta(a);
            for (awb::Count e = 0; e < d.epochs; ++e) {
                auto batch = stream.nextBatch(d.eventsPerEpoch);
                double t0 = nowUs();
                {
                    Scope span("dynamic.apply", static_cast<int>(p.index));
                    delta.apply(batch);
                }
                counts["dynamic.apply_us"] += nowUs() - t0;
                counts["dynamic.apply_events"] +=
                    static_cast<double>(batch.size());
            }
            // The replay must agree with the structure the run was
            // costed on: every churn event accepted, none rejected.
            ++check.attempted;
            if (delta.stats().rejected != 0) {
                ++check.failed;
                check.messages.push_back("churn replay rejected events on " +
                                         requestKey(p));
            }
        }
    }

    CheckResult
    check(const std::vector<Outcome> &outs) override
    {
        // BFS and PageRank on a seed-sampled subset, through the layered
        // path: outcome equal to the pass's, result equal to the scalar
        // reference.
        CheckResult c;
        std::vector<std::size_t> kernel_points;
        for (const SweepPoint &p : points_)
            if (p.mode == Mode::Bfs || p.mode == Mode::Pagerank)
                kernel_points.push_back(p.index);
        for (std::size_t i : sample(seed_ + 2, kernel_points, 4)) {
            const SweepPoint &p = points_[i];
            const CscMatrix &a = *adj_.at(p.seed);
            Outcome o = layered(p);
            bool ok = o.ok && signature(o, true) == signature(outs[i], true);
            if (p.mode == Mode::Bfs) {
                auto ref = awb::kernels::bfsReference(a, 0);
                ok = ok && ref.depth == bfs_.at(i).depth &&
                     ref.iterations == bfs_.at(i).iterations;
            } else {
                auto ref = awb::kernels::pagerankReference(a, kDamping, kTol,
                                                           kMaxIters);
                ok = ok && ref.scores == pagerank_.at(i).scores &&
                     ref.iterations == pagerank_.at(i).iterations;
            }
            ++c.attempted;
            if (!ok) {
                ++c.failed;
                c.messages.push_back("kernel differs from the pass or its "
                                     "reference on " + requestKey(p));
            }
        }
        // caches on == off, through exec::run.
        for (std::size_t i : sample(seed_, indicesOf(points_), 2))
            expectLibraryMatch(outs[i], EngineKind::Batched, false, 0,
                               "caches-off", c);
        return c;
    }

  private:
    /** exec::run's ChurnGcn, Bfs and Pagerank paths, decomposed for
     *  traced passes and the kernel checks; keeps the kernel results. */
    Outcome
    layered(const SweepPoint &p)
    {
        const int id = static_cast<int>(p.index);
        return request(p, [&](Outcome &out) {
            auto adj = awb::exec::cachedAdjacency(awb::findDataset(p.dataset),
                                                  p.seed, 1.0);
            const CscMatrix &a = *adj;
            AccelConfig cfg = configFor(p, EngineKind::Batched);
            if (p.mode == Mode::ChurnGcn) {
                awb::dynamic::DynamicRunStats s;
                {
                    Scope span("dynamic.churn", id);
                    s = awb::dynamic::runChurnGcn(cfg, a, churnParams(p.seed),
                                                  churnOptions(a, p.seed));
                }
                if (tracing())
                    counts["dynamic.epochs"] +=
                        static_cast<double>(s.epochs.size());
                awb::exec::fold(out, s);
            } else if (p.mode == Mode::Bfs) {
                awb::kernels::BfsRun r;
                {
                    Scope span("kernels.bfs", id);
                    r = awb::kernels::runBfs(cfg, a, /*source=*/0);
                }
                if (tracing())
                    counts["kernels.iterations"] +=
                        static_cast<double>(r.result.iterations);
                awb::exec::fold(out, r.stats);
                bfs_[p.index] = std::move(r.result);
            } else {
                awb::kernels::PagerankRun r;
                {
                    Scope span("kernels.pagerank", id);
                    r = awb::kernels::runPagerank(cfg, a, kDamping, kTol,
                                                  kMaxIters);
                }
                if (tracing())
                    counts["kernels.iterations"] +=
                        static_cast<double>(r.result.iterations);
                awb::exec::fold(out, r.stats);
                pagerank_[p.index] = std::move(r.result);
            }
            return cfg;
        });
    }

    SweepOptions opts_;
    std::vector<SweepPoint> points_;
    /** Adjacency instance per point seed. */
    std::map<std::uint64_t, std::shared_ptr<const CscMatrix>> adj_;
    /** Kernel results of the last layered request, per point. */
    std::map<std::size_t, awb::kernels::BfsResult> bfs_;
    std::map<std::size_t, awb::kernels::PagerankResult> pagerank_;
    RoundCachePass roundCache_;
};

} // namespace

std::string
signature(const Outcome &o, bool rounds_simulated)
{
    if (!o.ok) return "error: " + o.error;
    std::string s;
    appendInt(s, "cycles", static_cast<long long>(o.cycles));
    appendInt(s, "ideal", static_cast<long long>(o.idealCycles));
    appendInt(s, "sync", static_cast<long long>(o.syncCycles));
    appendInt(s, "tasks", static_cast<long long>(o.tasks));
    appendDouble(s, "util", o.utilization);
    appendInt(s, "tq", static_cast<long long>(o.peakTqDepth));
    appendInt(s, "switched", static_cast<long long>(o.rowsSwitched));
    appendInt(s, "converged", static_cast<long long>(o.convergedRound));
    appendInt(s, "rounds", static_cast<long long>(o.rounds));
    if (rounds_simulated)
        appendInt(s, "rounds_sim", static_cast<long long>(o.roundsSimulated));
    appendInt(s, "bytes", static_cast<long long>(o.bytesTotal));
    appendInt(s, "mem_cycles", static_cast<long long>(o.memoryCycles));
    appendInt(s, "bw_bound", static_cast<long long>(o.bwBoundRounds));
    appendInt(s, "halo_bytes", static_cast<long long>(o.haloBytes));
    appendInt(s, "halo_cycles", static_cast<long long>(o.haloCycles));
    appendInt(s, "half_life", static_cast<long long>(o.halfLifeEpochs));
    appendDouble(s, "chip_imb", o.chipImbalance);
    appendDouble(s, "latency", o.latencyMs);
    appendDouble(s, "inf_kj", o.inferencesPerKj);
    appendDouble(s, "area", o.areaTotalClb);
    appendDouble(s, "area_tq", o.areaTqClb);
    return s;
}

std::string
requestKey(const SweepPoint &p)
{
    return awb::exec::modeName(p.mode) + "/" + p.dataset + "/" + p.policy +
           "/" + std::to_string(p.pes);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "event-step") return std::make_unique<EventStep>();
    if (name == "cycle-sweep") return std::make_unique<CycleSweep>();
    if (name == "model-sweep") return std::make_unique<ModelSweep>();
    if (name == "stream") return std::make_unique<Stream>();
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "event-step", "cycle-sweep", "model-sweep", "stream"};
    return names;
}

} // namespace perfbench
