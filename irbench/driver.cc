/**
 * @file
 * irbench_driver: runs one workload for a fixed time and prints its
 * metrics as one JSON line.
 *
 *   irbench_driver --workload <dtm_replay|package_transients|sweep_batch>
 *                  --seed N --seconds S --trace 0|1
 *                  [--work-dir DIR] [--commit ID]
 *
 * A run repeats full passes of the workload until S seconds of passes
 * have elapsed and reports medians over passes. The first pass's
 * outputs are checked against independent oracles; every later pass
 * must reproduce them. With --trace 0 the result holds the end-to-end
 * metrics (wall_s, setup_s, peak_rss_mb). With --trace 1 untraced
 * passes alternate with passes that record the benchmark's layer
 * spans; the result holds the per-layer metrics and a one-screen
 * breakdown is printed above it.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "oracles.hh"
#include "trace.hh"
#include "workload.hh"

namespace irbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in print order (BENCHMARK.json per_layer). */
const MetricDef kLayerMetrics[] = {
    {"power.trace_s", "s"},
    {"power.cycles_per_s", "1/s"},
    {"power.avg_powers_s", "s"},
    {"core.assemble_s", "s"},
    {"core.assemble_calls", "count"},
    {"core.sim_init_s", "s"},
    {"core.steady_s", "s"},
    {"core.steady_calls", "count"},
    {"core.steady_iters", "count"},
    {"core.advance_block_s", "s"},
    {"core.advance_grid_s", "s"},
    {"core.advance_calls", "count"},
    {"core.advance_p50_us", "us"},
    {"core.advance_p99_us", "us"},
    {"core.readback_s", "s"},
    {"numeric.rk4_steps", "count"},
    {"numeric.rk4_rejected", "count"},
    {"numeric.rk4_accept_ratio", "ratio"},
    {"numeric.be_solves", "count"},
    {"numeric.cg_iters_per_solve", "count"},
    {"numeric.cg_s", "s"},
    {"numeric.mg_cycles", "count"},
    {"dtm.step_s", "s"},
    {"dtm.step_calls", "count"},
    {"dtm.engagements", "count"},
    {"dtm.sensing_s", "s"},
    {"dtm.ir_capture_s", "s"},
    {"analysis.inversion_setup_s", "s"},
    {"analysis.inversion_s", "s"},
    {"sweep.plan_s", "s"},
    {"sweep.run_s", "s"},
    {"sweep.jobs", "count"},
    {"jobs_per_s", "1/s"},
    {"sweep.job_p50_ms", "ms"},
    {"sweep.job_p99_ms", "ms"},
    {"sweep.in_job_share", "ratio"},
    {"sweep.outside_jobs_s", "s"},
    {"sweep.journal_bytes", "B"},
    {"sweep.journal_flush_s", "s"},
    {"sweep.agg_update_s", "s"},
    {"sweep.superposed_share", "ratio"},
    {"resume_s", "s"},
    {"sweep.resume_run_s", "s"},
    {"sweep.read_journal_s", "s"},
    {"failed_frac", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unaccounted_s", "s"},
};

/** Time metrics backed by the benchmark's spans (screen rows). */
const char *const kSpanMetrics[] = {
    "power.trace_s",        "power.avg_powers_s",
    "core.assemble_s",      "core.sim_init_s",
    "core.steady_s",        "core.advance_block_s",
    "core.advance_grid_s",  "core.readback_s",
    "dtm.step_s",           "dtm.sensing_s",
    "dtm.ir_capture_s",     "analysis.inversion_setup_s",
    "analysis.inversion_s", "sweep.plan_s",
    "sweep.run_s",          "sweep.resume_run_s",
    "sweep.read_journal_s",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir = ".bench_build/irbench-work";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "irbench_driver: " << why
              << "\nusage: irbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--commit ID]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != value.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = end != value.c_str() && *end == '\0' &&
                          a.seconds > 0.0 && a.seconds <= 600.0;
        } else if (key == "--trace") {
            haveTrace = value == "0" || value == "1";
            a.trace = value == "1";
        } else if (key == "--work-dir") {
            a.workDir = value;
        } else if (key == "--commit") {
            a.commit = value;
        } else {
            usage("unknown option " + key);
        }
    }
    if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds (0, 600] and --trace 0|1 "
              "are required");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-layer metrics of one traced pass. */
MetricMap
tracedPassMetrics(const Tracer &t, const RegistryReading &delta,
                  const Workload &w, double wall)
{
    const LayerSums ls = sumLayers(t.spans());
    const auto seconds = [&](const char *k) {
        const auto it = ls.seconds.find(k);
        return it == ls.seconds.end() ? 0.0 : it->second;
    };
    const auto calls = [&](const char *k) {
        const auto it = ls.calls.find(k);
        return it == ls.calls.end() ? 0.0
                                    : static_cast<double>(it->second);
    };
    MetricMap m;
    for (const char *k : kSpanMetrics)
        m[k] = seconds(k);
    m["core.assemble_calls"] = calls("core.assemble_s");
    m["core.steady_calls"] = calls("core.steady_s");
    m["core.advance_calls"] =
        calls("core.advance_block_s") + calls("core.advance_grid_s");
    std::vector<double> adv;
    for (const char *k : {"core.advance_block_s", "core.advance_grid_s"}) {
        const auto it = ls.durations.find(k);
        if (it != ls.durations.end())
            adv.insert(adv.end(), it->second.begin(), it->second.end());
    }
    m["core.advance_p50_us"] = quantile(adv, 0.50) * 1e6;
    m["core.advance_p99_us"] = quantile(adv, 0.99) * 1e6;
    m["dtm.step_calls"] = calls("dtm.step_s");

    const double steps = delta.counter("numeric.rk4.steps");
    const double rejected = delta.counter("numeric.rk4.rejected_steps");
    m["numeric.rk4_steps"] = steps;
    m["numeric.rk4_rejected"] = rejected;
    m["numeric.rk4_accept_ratio"] =
        steps + rejected > 0.0 ? steps / (steps + rejected) : 0.0;
    m["numeric.be_solves"] = delta.counter("numeric.be.solves");
    const double cgSolves = delta.timerCount("numeric.cg.solve_time_s");
    m["numeric.cg_iters_per_solve"] =
        cgSolves > 0.0 ? delta.counter("numeric.cg.iterations") / cgSolves
                       : 0.0;
    m["numeric.cg_s"] = delta.timerSeconds("numeric.cg.solve_time_s");
    m["numeric.mg_cycles"] = delta.counter("numeric.mg.cycles");

    w.layerMetrics(m);
    const auto cycles = m.find("power.cycles");
    if (cycles != m.end()) {
        m["power.cycles_per_s"] =
            m["power.trace_s"] > 0.0 ? cycles->second / m["power.trace_s"]
                                     : 0.0;
        m.erase(cycles);
    }
    m["trace.wall_s"] = wall;
    m["trace.unaccounted_s"] = wall - ls.covered;
    return m;
}

/**
 * The one-screen layer breakdown of the traced passes. Layer spans do
 * not nest, so a layer metric's self time is its total; the program's
 * own CG timer shows how much of it was spent in numeric.cg. A phase's
 * self time is the part no layer span covers (benchmark glue).
 */
void
printScreen(const Args &a, const Tracer &t, const MetricMap &med,
            std::size_t tracedPasses)
{
    const LayerSums ls = sumLayers(t.spans());
    const double wall = med.at("trace.wall_s");
    std::printf("\nirbench %s  seed %llu  traced passes %zu (totals are "
                "medians; calls, cg and phases from the last pass)\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), tracedPasses);
    std::printf("  wall_s traced %.4f s, untraced median %.4f s, "
                "tracing overhead %+.4f s (%+.1f%%)\n",
                wall, med.at("trace.untraced_wall_s"),
                med.at("trace.overhead_s"),
                100.0 * med.at("trace.overhead_s") /
                    med.at("trace.untraced_wall_s"));
    std::printf("  %-28s %10s %8s %9s %10s\n", "layer metric (self)",
                "total s", "% wall", "calls", "in cg s");
    for (const char *k : kSpanMetrics) {
        const double total = med.at(k);
        if (total == 0.0)
            continue;
        const auto cg = ls.cgSeconds.find(k);
        const auto calls = ls.calls.find(k);
        std::printf("  %-28s %10.4f %7.1f%% %9zu %10.4f\n", k, total,
                    100.0 * total / wall,
                    calls == ls.calls.end() ? 0 : calls->second,
                    cg == ls.cgSeconds.end() ? 0.0 : cg->second);
    }
    std::printf("  %-28s %10.4f %7.1f%%   (inside the calls above)\n",
                "numeric.cg_s", med.at("numeric.cg_s"),
                100.0 * med.at("numeric.cg_s") / wall);
    if (med.at("sweep.run_s") > 0.0) {
        std::printf("  %-28s %10.4f %7.1f%%   (per worker, sweep layer "
                    "outside jobs)\n",
                    "sweep.outside_jobs_s", med.at("sweep.outside_jobs_s"),
                    100.0 * med.at("sweep.outside_jobs_s") / wall);
    }
    std::printf("  %-28s %10.4f %7.1f%%\n", "unaccounted (glue)",
                med.at("trace.unaccounted_s"),
                100.0 * med.at("trace.unaccounted_s") / wall);
    std::printf("  %-28s %10s %10s\n", "phase", "wall s", "self s");
    const std::vector<double> phaseS = t.phaseSeconds();
    std::vector<double> covered(phaseS.size(), 0.0);
    for (const Span &s : t.spans())
        covered[s.phase] += s.end - s.start;
    for (std::size_t i = 1; i < phaseS.size(); ++i) {
        std::printf("  %-28s %10.4f %10.4f\n", t.phaseNames()[i].c_str(),
                    phaseS[i], phaseS[i] - covered[i]);
    }
    std::printf("  counts: rk4 steps %.0f (rejected %.0f), BE solves "
                "%.0f, CG iters/solve %.1f, advances %.0f, DTM steps "
                "%.0f, sweep jobs %.0f\n\n",
                med.at("numeric.rk4_steps"), med.at("numeric.rk4_rejected"),
                med.at("numeric.be_solves"),
                med.at("numeric.cg_iters_per_solve"),
                med.at("core.advance_calls"), med.at("dtm.step_calls"),
                med.at("sweep.jobs"));
}

int
runBenchmark(const Args &a)
{
#ifndef __OPTIMIZE__
    std::cerr << "irbench_driver: refusing to report end-to-end numbers "
                 "from a non-optimized build (build type "
              << IRBENCH_BUILD_TYPE << ")\n";
    return 3;
#endif
    irtherm::setQuiet(true);
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    // Fixed thread counts (see NOTES.md): the kernels and the sweep
    // runner each run on one thread. On a shared 4-vCPU VM, passes
    // that kept two or three threads busy slowed by up to 2x while
    // the VM's host was contended; single-threaded ones by ~10%.
    const std::size_t sweepWorkers = 1;
    irtherm::ThreadPool::setGlobalThreads(1);

    const std::string workDir =
        a.workDir + "/" + a.workload + "-" + std::to_string(::getpid());
    struct RemoveOnExit
    {
        const std::string &dir;
        ~RemoveOnExit()
        {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    } removeWorkDir{workDir};
    std::unique_ptr<Workload> w;
    if (a.workload == "dtm_replay")
        w = makeDtmReplay(a.seed);
    else if (a.workload == "package_transients")
        w = makePackageTransients(a.seed);
    else if (a.workload == "sweep_batch")
        w = makeSweepBatch(a.seed, sweepWorkers, workDir + "/sweep");
    else
        usage("unknown workload " + a.workload);

    std::printf("irbench host: {\"nproc\": %zu, \"pool_width\": %zu, "
                "\"sweep_workers\": %zu, \"build_type\": \"%s\", "
                "\"optimized\": true, \"metrics_enabled\": %s, "
                "\"compiler\": \"%s\", \"commit\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d}\n",
                nproc, irtherm::ThreadPool::global().threadCount(),
                sweepWorkers, IRBENCH_BUILD_TYPE,
                irtherm::obs::kMetricsEnabled ? "true" : "false",
                IRBENCH_COMPILER, a.commit.c_str(), a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0);
    std::fflush(stdout);

    Checks checks;
    Tracer tracer;
    std::vector<double> walls, setups;
    std::vector<MetricMap> traced;
    std::vector<double> firstDigest;
    std::size_t passes = 0;
    double checkSeconds = 0.0;
    const double start = monotonic();
    const auto elapsed = [&] { return monotonic() - start - checkSeconds; };

    const auto pass = [&](bool tracing) {
        w->prepare();
        tracer.beginIteration(tracing);
        const RegistryReading before = readRegistry();
        const double t0 = monotonic();
        w->run(tracer);
        const double wall = monotonic() - t0;
        const RegistryReading delta = readRegistry() - before;
        tracer.endIteration();

        const double c0 = monotonic();
        w->countJobs(checks);
        if (passes == 0) {
            w->check(checks);
            firstDigest = w->digest();
        } else {
            const double d = maxAbsDiff(w->digest(), firstDigest);
            checks.expect(d <= w->digestTolerance(),
                          "pass " + std::to_string(passes + 1) +
                              " reproduces pass 1 (max diff " +
                              num(d) + ")");
        }
        checkSeconds += monotonic() - c0;
        ++passes;

        if (tracing) {
            traced.push_back(tracedPassMetrics(tracer, delta, *w, wall));
        } else {
            walls.push_back(wall);
            setups.push_back(tracer.setupSeconds());
        }
    };

    // A traced run alternates untraced and traced passes, so machine
    // drift during the run weighs on both sides of the overhead alike.
    while (walls.size() < 3 || traced.size() < (a.trace ? 3u : 0u) ||
           elapsed() < a.seconds) {
        pass(false);
        if (a.trace)
            pass(true);
    }

    std::string metrics;
    const auto add = [&](const char *name, double value, const char *unit) {
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
                   "\": {\"value\": " + jsonNumber(value) +
                   ", \"unit\": \"" + unit + "\"}";
    };
    if (a.trace) {
        MetricMap med;
        for (const MetricDef &d : kLayerMetrics) {
            std::vector<double> v;
            for (const MetricMap &m : traced) {
                const auto it = m.find(d.name);
                v.push_back(it == m.end() ? 0.0 : it->second);
            }
            med[d.name] = median(v);
        }
        med["trace.untraced_wall_s"] = median(walls);
        med["trace.overhead_s"] =
            med["trace.wall_s"] - med["trace.untraced_wall_s"];
        med["failed_frac"] = static_cast<double>(checks.failed()) /
                             static_cast<double>(checks.attempted());
        printScreen(a, tracer, med, traced.size());
        for (const MetricDef &d : kLayerMetrics)
            add(d.name, med.at(d.name), d.unit);
    } else {
        add("wall_s", median(walls), "s");
        add("setup_s", median(setups), "s");
        add("peak_rss_mb", peakRssMb(), "MB");
    }
    std::printf("irbench passes: %zu untraced, %zu traced; wall_s per "
                "untraced pass:",
                walls.size(), traced.size());
    for (double v : walls)
        std::printf(" %.4f", v);
    std::printf("\n");

    const bool correct = checks.failed() == 0 && checks.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", checks.attempted(),
                checks.failed(), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

} // namespace irbench

int
main(int argc, char **argv)
{
    const irbench::Args args = irbench::parseArgs(argc, argv);
    try {
        return irbench::runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "irbench_driver: error: " << e.what() << "\n";
        return 1;
    }
}
