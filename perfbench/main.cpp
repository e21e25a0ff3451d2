/**
 * @file
 * perfbench: outside-in benchmark of the AWB-GCN simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--expected-dir DIR] [--commit SHA]
 *             [--source-digest HEX] [--write-expected]
 *
 * A run repeats timed passes over every request while another fits in
 * S seconds (run_s is the median pass); before each pass it sets the
 * workload up from cold, one or more times (setup_s is the median).
 * Both are scaled to the reference host speed by calibration loops
 * around every request and set-up (calib.hpp); the report also keeps
 * the raw wall times. With --trace 1 untraced and traced passes
 * alternate: the traced ones record spans around every layer call and
 * give the per-layer metrics; their outputs must equal the untraced
 * ones. The last stdout line is the JSON result.
 *
 * Outputs are checked for exact repeatability only: every pass against
 * the first, the first against the records in --expected-dir when the
 * seed has some, and a seed-sampled subset against exec::run under the
 * other engine or cache state. The model is unvalidated against
 * hardware, so no error figure is reported.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "calib.hpp"
#include "common/parallel.hpp"
#include "driver/json.hpp"
#include "exec/workload_cache.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using awb::driver::Json;
using namespace perfbench;

namespace {

/** Set-ups before each pass: more while they total under kSetupRoundS,
 *  so that cheap set-ups still give a steady median. */
constexpr int kMaxSetupsPerRound = 8;
constexpr double kSetupRoundS = 1.0;

/** Untraced passes a run makes even when they overrun --seconds: one
 *  pass of cycle-sweep takes about half the budget, and a single pass
 *  left its run_s spread at 12% over ten seeds. */
constexpr std::size_t kMinPasses = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/out";
    std::string expectedDir = "perfbench/expected";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    bool writeExpected = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--expected-dir DIR]\n"
                 "       [--commit SHA] [--source-digest HEX] "
                 "[--write-expected]\n"
                 "workloads:");
    for (const auto &n : workloadNames()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") o.workload = value();
            else if (a == "--seed") o.seed = std::stoull(value());
            else if (a == "--seconds") o.seconds = std::stod(value());
            else if (a == "--trace") o.trace = std::stoi(value()) != 0;
            else if (a == "--out-dir") o.outDir = value();
            else if (a == "--expected-dir") o.expectedDir = value();
            else if (a == "--commit") o.commit = value();
            else if (a == "--source-digest") o.sourceDigest = value();
            else if (a == "--write-expected") o.writeExpected = true;
            else usage("unknown argument '" + a + "'");
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str();
        auto b = s.find_first_not_of(' ');
        auto e = s.find_last_not_of(' ');
        if (b != std::string::npos) return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
fnvHex(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Host and state stamp. Numbers are comparable only between runs with
 *  the same fingerprint (CPU, nproc, compiler, build type). */
Json
hostStamp(const Options &o, const Workload &w)
{
    const std::string cpu = cpuModel();
    const unsigned nproc = std::thread::hardware_concurrency();
    Json host = Json::object();
    host.set("cpu", cpu);
    host.set("nproc", nproc);
    host.set("compiler", PERFBENCH_COMPILER);
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("fingerprint", fnvHex(cpu + "|" + std::to_string(nproc) + "|" +
                                   PERFBENCH_COMPILER + "|" +
                                   PERFBENCH_BUILD_TYPE));
    host.set("commit", o.commit);
    host.set("source_digest", o.sourceDigest);
    host.set("cache_state", w.cacheState());
    return host;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
expectedPath(const Options &o)
{
    return o.expectedDir + "/" + o.workload + ".seed" +
           std::to_string(o.seed) + ".tsv";
}

std::vector<std::string>
recordFields(const Outcome &r)
{
    return {std::to_string(r.cycles),       std::to_string(r.tasks),
            std::to_string(r.rounds),       std::to_string(r.roundsSimulated),
            std::to_string(r.rowsSwitched), std::to_string(r.convergedRound)};
}

/** Compare the first pass with the seed's records, if it has any. */
void
checkRecords(const Options &o, const std::vector<Outcome> &outs,
             CheckResult &c)
{
    std::ifstream in(expectedPath(o));
    if (!in) return;
    std::map<std::string, std::vector<std::string>> rec;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        std::string key, f;
        std::vector<std::string> fields;
        std::getline(ss, key, '\t');
        while (std::getline(ss, f, '\t')) fields.push_back(f);
        rec[key] = fields;
    }
    for (const Outcome &r : outs) {
        ++c.attempted;
        auto it = rec.find(requestKey(r.point));
        if (!r.ok || it == rec.end() || it->second != recordFields(r)) {
            ++c.failed;
            c.messages.push_back("record mismatch on " +
                                 requestKey(r.point));
        }
    }
}

void
writeExpected(const Options &o, const std::vector<Outcome> &outs)
{
    std::ofstream f(expectedPath(o));
    f << "# " << o.workload << " seed " << o.seed
      << ": request\tcycles\ttasks\trounds\trounds_simulated\t"
         "rows_switched\tconverged_round\n";
    for (const Outcome &r : outs) {
        f << requestKey(r.point);
        for (const auto &x : recordFields(r)) f << '\t' << x;
        f << '\n';
    }
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
}

Json
metric(double v, const char *unit)
{
    Json m = Json::object();
    m.set("value", v);
    m.set("unit", unit);
    return m;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
get(const Counts &c, const std::string &k)
{
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
}

/** Every per-layer metric (0 where the workload never calls the layer). */
Json
perLayerMetrics(const std::map<std::string, LayerTime> &setup,
                const std::map<std::string, LayerTime> &run,
                const Counts &c, double wc_hit_rate, double overhead_ms)
{
    auto ms = [&](const std::map<std::string, LayerTime> &m,
                  const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second.totalMs;
    };
    Json out = Json::object();
    auto put = [&](const char *name, double v, const char *unit) {
        out.set(name, metric(v, unit));
    };
    auto synth = setup.find("graph.synth");
    put("graph.synth_ms", ms(setup, "graph.synth"), "ms");
    put("graph.synth_calls",
        synth == setup.end() ? 0.0 : static_cast<double>(synth->second.calls),
        "count");
    auto exec = run.find("exec.run");
    put("exec.run_ms", ms(run, "exec.run"), "ms");
    put("exec.self_ms", exec == run.end() ? 0.0 : exec->second.selfMs, "ms");
    put("exec.workload_cache.hit_rate", wc_hit_rate, "ratio");
    put("driver.json_ms", ms(run, "driver.json"), "ms");
    double tdq1 = get(c, "accel.tdq1_ms");
    double tdq2 = get(c, "accel.tdq2_ms");
    put("accel.partition_ms", ms(run, "accel.partition"), "ms");
    put("accel.tdq1_ms", tdq1, "ms");
    put("accel.tdq2_ms", tdq2, "ms");
    put("accel.ns_per_stepped_task",
        ratio((tdq1 + tdq2) * 1e6, get(c, "accel.stepped_tasks")), "ns");
    double rounds = get(c, "accel.rounds");
    double stepped = get(c, "accel.rounds_stepped");
    put("accel.rounds", rounds, "count");
    put("accel.rounds_stepped", stepped, "count");
    put("accel.replay_frac", rounds > 0.0 ? 1.0 - stepped / rounds : 0.0,
        "ratio");
    double rh = get(c, "accel.round_cache.hits");
    double rm = get(c, "accel.round_cache.misses");
    put("accel.round_cache.hit_rate", ratio(rh, rh + rm), "ratio");
    put("accel.round_cache.entries", get(c, "accel.round_cache.entries"),
        "count");
    put("accel.perf_model_ms", ms(run, "accel.perf_model"), "ms");
    put("sim.build_ms", ms(run, "sim.build"), "ms");
    put("sim.L1.XW_ms", ms(run, "sim.L1.XW"), "ms");
    put("sim.L1.AXW_ms", ms(run, "sim.L1.AXW"), "ms");
    put("sim.L2.XW_ms", ms(run, "sim.L2.XW"), "ms");
    put("sim.L2.AXW_ms", ms(run, "sim.L2.AXW"), "ms");
    put("sparse.spmm_ms", ms(run, "sparse.spmm"), "ms");
    put("kernels.bfs_ms", ms(run, "kernels.bfs"), "ms");
    put("kernels.pagerank_ms", ms(run, "kernels.pagerank"), "ms");
    put("kernels.iterations", get(c, "kernels.iterations"), "count");
    put("kernels.spgemm_ms", ms(run, "kernels.spgemm"), "ms");
    put("dynamic.churn_ms", ms(run, "dynamic.churn"), "ms");
    put("dynamic.epochs", get(c, "dynamic.epochs"), "count");
    put("dynamic.apply_us_per_event",
        ratio(get(c, "dynamic.apply_us"), get(c, "dynamic.apply_events")),
        "us");
    put("trace.overhead_ms", overhead_ms, "ms");
    return out;
}

/** Per-pass average of the traced passes plus the probe's totals. */
std::map<std::string, LayerTime>
mergeLayers(std::map<std::string, LayerTime> passes, int n,
            const std::map<std::string, LayerTime> &probe)
{
    for (auto &[name, l] : passes) {
        l.calls /= static_cast<std::uint64_t>(std::max(n, 1));
        l.totalMs /= std::max(n, 1);
        l.selfMs /= std::max(n, 1);
    }
    for (const auto &[name, l] : probe) {
        LayerTime &t = passes[name];
        t.calls += l.calls;
        t.totalMs += l.totalMs;
        t.selfMs += l.selfMs;
    }
    return passes;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opt.workload);
    if (!w) usage("unknown workload '" + opt.workload + "'");
    awb::setIntraThreads(1);
    Tracer &tr = tracer();

    // ---- set-ups and timed passes. Every pass is preceded by a round of
    // cold set-ups, so set-up samples spread over the whole run like the
    // pass samples do. A set-up takes tens of milliseconds, too short to
    // outweigh one calibration loop's jitter, so each is scaled by the
    // median loop of its round. The first set-up of the process pays
    // for growing the heap; an untimed one absorbs it. With --trace 1
    // passes alternate untraced/traced; the last set-up before the first
    // traced pass is traced too.
    CheckResult checks;
    std::vector<Outcome> first;
    CalibratedClock &clock = passClock();
    // Scaled to the reference speed; *_wall are the raw wall times.
    std::vector<double> setup_s, plain_s, traced_s;
    std::vector<double> setup_wall, plain_wall, plain_loop;
    std::size_t setup_begin = 0, setup_end = 0;
    const double start = nowUs();
    w->setup(opt.seed);
    for (int i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        const double round_start = nowUs();
        clock.start();
        for (int n = 0;; ++n) {
            const bool last = n + 1 >= kMaxSetupsPerRound ||
                (n > 0 && clock.wallS() * (n + 1) / n >= kSetupRoundS);
            const bool trace_setup = traced && last && traced_s.empty();
            if (trace_setup) setup_begin = tr.size();
            tr.setEnabled(trace_setup);
            {
                Scope span("setup");
                w->setup(opt.seed);
            }
            tr.setEnabled(false);
            if (trace_setup) setup_end = tr.size();
            if (last) break;
            clock.split();
        }
        clock.stop();
        for (double s : clock.segmentsAtMedianS()) setup_s.push_back(s);
        for (double s : clock.segmentsS()) setup_wall.push_back(s);

        w->beforePass();
        tr.setEnabled(traced);
        clock.start();
        std::vector<Outcome> outs = w->pass();
        clock.stop();
        tr.setEnabled(false);
        (traced ? traced_s : plain_s).push_back(clock.scaledS());
        if (!traced) {
            plain_wall.push_back(clock.wallS());
            plain_loop.push_back(clock.medianLoopS());
        }
        for (std::size_t j = 0; j < outs.size(); ++j) {
            ++checks.attempted;
            bool bad = !outs[j].ok;
            if (!first.empty())
                bad = bad ||
                      signature(outs[j], true) != signature(first[j], true);
            if (bad) {
                ++checks.failed;
                checks.messages.push_back(
                    (outs[j].ok ? "pass " + std::to_string(i) +
                                      " differs from pass 0 on "
                                : "error '" + outs[j].error + "' on ") +
                    requestKey(outs[j].point));
            }
        }
        if (first.empty()) first = std::move(outs);
        // Stop once another round of set-ups and a pass would overrun
        // the budget (a traced run needs one pass of each kind).
        const double now = nowUs();
        const double next_s = (now - round_start) / 1e6;
        if ((now - start) / 1e6 + next_s > opt.seconds &&
            (opt.trace ? !traced_s.empty() : plain_s.size() >= kMinPasses))
            break;
    }
    const double rss_mb = peakRssMb();
    const std::size_t passes_end = tr.size();
    // Every set-up clears the counters: this is the last set-up's fill
    // plus the last pass.
    const auto &wc = awb::exec::WorkloadCache::instance();
    const double wc_hit_rate =
        ratio(static_cast<double>(wc.hits()),
              static_cast<double>(wc.hits() + wc.misses()));

    // ---- traced runs only: layer probes outside the timed passes.
    Counts pass_counts = w->counts;
    for (auto &[k, v] : pass_counts)
        v /= std::max<double>(1.0, static_cast<double>(traced_s.size()));
    w->counts.clear();
    if (opt.trace) {
        tr.setEnabled(true);
        w->probe(first, checks);
        tr.setEnabled(false);
    }
    for (const auto &[k, v] : w->counts) pass_counts[k] += v;

    // ---- output checks.
    if (opt.writeExpected) writeExpected(opt, first);
    checkRecords(opt, first, checks);
    CheckResult eq = w->check(first);
    checks.attempted += eq.attempted;
    checks.failed += eq.failed;
    for (auto &m : eq.messages) checks.messages.push_back(std::move(m));

    // ---- end-to-end metrics.
    double cycles = 0.0, tasks = 0.0, pe_cycles = 0.0;
    std::string outputs;
    for (const Outcome &r : first) {
        cycles += static_cast<double>(r.cycles);
        tasks += static_cast<double>(r.tasks);
        pe_cycles += static_cast<double>(r.point.pes) *
                     static_cast<double>(r.cycles);
        outputs += requestKey(r.point) + '\t' + signature(r, true) + '\n';
    }
    const double run_s = median(plain_s);
    const double fail_frac =
        ratio(static_cast<double>(checks.failed),
              static_cast<double>(checks.attempted));

    Json host = hostStamp(opt, *w);
    std::printf("perfbench %s seed=%llu trace=%d: %zu requests, %zu untraced "
                "+ %zu traced passes, %zu set-ups\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                first.size(), plain_s.size(), traced_s.size(),
                setup_s.size());
    std::printf("host %s\n", host.dump().c_str());
    std::printf("  %-12s %14.6f s    (median of %zu passes at reference "
                "speed; wall %.6f s)\n",
                "run_s", run_s, plain_s.size(), median(plain_wall));
    std::printf("  %-12s %14.6f s    (median of %zu set-ups at reference "
                "speed; wall %.6f s)\n",
                "setup_s", median(setup_s), setup_s.size(),
                median(setup_wall));
    std::printf("  %-12s %14.3f MB\n", "peak_rss_mb", rss_mb);
    std::printf("  %-12s %14.6f      (%llu failed of %llu attempted)\n",
                "fail_frac", fail_frac,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    std::printf("  %-12s %14.0f cycles (simulated)\n", "sim_cycles", cycles);
    std::printf("  %-12s %14.9f ratio  (simulated)\n", "sim_pe_util",
                ratio(tasks, pe_cycles));
    for (const auto &m : checks.messages)
        std::printf("  CHECK FAILED: %s\n", m.c_str());

    Json metrics = Json::object();
    Json report = Json::object();
    report.set("host", host);
    if (opt.trace) {
        const double overhead_ms =
            (median(traced_s) - median(plain_s)) * 1000.0;
        auto setup_layers = tr.layers(setup_begin, setup_end);
        auto run_layers =
            mergeLayers(tr.layers(setup_end, passes_end),
                        static_cast<int>(traced_s.size()),
                        tr.layers(passes_end, tr.size()));
        metrics = perLayerMetrics(setup_layers, run_layers, pass_counts,
                                  wc_hit_rate, overhead_ms);
        std::printf("traced run_s %.6f s vs untraced %.6f s: tracing "
                    "overhead %.3f ms per pass\n",
                    median(traced_s), median(plain_s), overhead_ms);
        std::printf("per-layer times (setup: last set-up; run: per traced "
                    "pass, plus the probes once):\n%s%s",
                    layerTable(setup_layers).c_str(),
                    layerTable(run_layers).c_str());
        std::string trace_path = opt.outDir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".trace.json";
        writeFile(trace_path, tr.chromeJson());
        std::printf("chrome trace: %s\n", trace_path.c_str());
    } else {
        metrics.set("run_s", metric(run_s, "s"));
        metrics.set("setup_s", metric(median(setup_s), "s"));
        metrics.set("peak_rss_mb", metric(rss_mb, "MB"));
        metrics.set("sim_cycles", metric(cycles, "cycles"));
        metrics.set("sim_pe_util", metric(ratio(tasks, pe_cycles), "ratio"));
    }
    const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    writeFile(stem + ".outputs.tsv", outputs);
    Json samples = Json::object();
    auto put = [&](const char *name, const std::vector<double> &v) {
        Json a = Json::array();
        for (double s : v) a.push(s);
        samples.set(name, std::move(a));
    };
    put("setup_s", setup_s);
    put("setup_wall_s", setup_wall);
    put("untraced_pass_s", plain_s);
    put("untraced_pass_wall_s", plain_wall);
    put("untraced_pass_calibration_loop_s", plain_loop);
    put("traced_pass_s", traced_s);
    report.set("samples", std::move(samples));
    report.set("fail_frac", fail_frac);
    report.set("metrics", metrics);
    writeFile(stem + ".report.json", report.dump(2) + "\n");

    Json result = Json::object();
    result.set("correct", checks.failed == 0);
    result.set("attempted", static_cast<unsigned long long>(checks.attempted));
    result.set("failed", static_cast<unsigned long long>(checks.failed));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
