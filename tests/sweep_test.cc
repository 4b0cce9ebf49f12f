/**
 * @file
 * Tests of the scenario sweep engine: canonical hashing, plan
 * expansion, failure isolation, journaling, and checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "obs/metrics.hh"
#include "sweep/json.hh"
#include "sweep/plan.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/scenario.hh"

namespace irtherm::sweep
{
namespace
{

/** Fresh per-test output directory under the gtest temp root. */
std::string
freshOutDir(const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("irtherm_sweep_" + tag);
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::size_t
countJournalLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

// ---------------------------------------------------------------
// Hashing and canonical serialization
// ---------------------------------------------------------------

TEST(ScenarioHash, StableAcrossFieldReordering)
{
    // Same settings, JSON keys listed in different orders (and one
    // using the nested form) must produce byte-identical canonical
    // serializations and therefore equal hashes.
    const SweepPlan a = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5,
                     "config.cooling": "oil",
                     "config.oil_velocity": 0.2}})",
        "a");
    const SweepPlan b = SweepPlan::parse(
        R"({"base": {"config": {"oil_velocity": 0.2,
                                "cooling": "oil"},
                     "power": {"uniform": 0.5},
                     "floorplan": "preset:ev6"}})",
        "b");
    EXPECT_EQ(a.base().canonicalSerialization(),
              b.base().canonicalSerialization());
    EXPECT_EQ(a.base().hash(), b.base().hash());
}

TEST(ScenarioHash, NumberFormattingIsCanonical)
{
    // 0.50, 5e-1, and 0.5 are the same double, so they must hash
    // identically even though the JSON spellings differ.
    const char *spellings[] = {"0.5", "0.50", "5e-1", "0.5000000"};
    std::vector<std::uint64_t> hashes;
    for (const char *s : spellings) {
        const SweepPlan p = SweepPlan::parse(
            std::string(R"({"base": {"floorplan": "preset:ev6",
                                     "power.uniform": )") +
                s + "}}",
            s);
        hashes.push_back(p.base().hash());
    }
    for (std::size_t i = 1; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[0], hashes[i]) << spellings[i];
}

TEST(ScenarioHash, NameDoesNotAffectHash)
{
    ScenarioSpec a, b;
    a.set("floorplan", "preset:ev6");
    a.set("power.uniform", "0.5");
    b = a;
    a.set("name", "first");
    b.set("name", "renamed");
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.displayName(), "first");
    EXPECT_EQ(b.displayName(), "renamed");
}

TEST(ScenarioHash, SettingsChangeTheHash)
{
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("power.uniform", "0.5");
    ScenarioSpec b = a;
    b.set("power.uniform", "0.6");
    EXPECT_NE(a.hash(), b.hash());
}

TEST(ScenarioHash, StackHashIgnoresPowerButTracksConfig)
{
    // The warm-start key covers the RC network only: floorplan +
    // config. Power changes keep the stack; config changes break it.
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("config.cooling", "oil");
    a.set("power.uniform", "0.5");
    ScenarioSpec b = a;
    b.set("power.uniform", "0.9");
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.stackHash(), b.stackHash());
    ScenarioSpec c = a;
    c.set("config.oil_velocity", "0.2");
    EXPECT_NE(a.stackHash(), c.stackHash());
}

TEST(ScenarioHash, StackKeyIsTheHashedStackString)
{
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("config.cooling", "oil");
    a.set("config.oil_velocity", "0.5");
    a.set("power.uniform", "0.5");
    a.set("mode", "transient");
    EXPECT_EQ(a.stackKey(),
              "config.cooling=oil\nconfig.oil_velocity=0.5\n"
              "floorplan=preset:ev6\n");
    EXPECT_EQ(a.stackHash(), fnv1a64(a.stackKey()));

    ScenarioSpec power = a;
    power.set("power.uniform", "0.9");
    EXPECT_EQ(power.stackKey(), a.stackKey());
    ScenarioSpec velocity = a;
    velocity.set("config.oil_velocity", "0.6");
    EXPECT_NE(velocity.stackKey(), a.stackKey());
    ScenarioSpec extra = a;
    extra.set("config.model_mode", "block");
    EXPECT_NE(extra.stackKey(), a.stackKey());
    EXPECT_EQ(extra.stackHash(), fnv1a64(extra.stackKey()));
}

// ---------------------------------------------------------------
// Plan expansion
// ---------------------------------------------------------------

TEST(SweepPlan, CrossProductCounts)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"name": "xp",
            "base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "scenarios": [{"name": "lo"},
                          {"name": "hi", "power.uniform": 1.5}],
            "axes": {"config.cooling": ["air", "oil"],
                     "config.oil_velocity": [0.1, 0.2, 0.5]}})",
        "xp");
    EXPECT_EQ(plan.jobCount(), 2u * 2u * 3u);
    const std::vector<ScenarioSpec> jobs = plan.expand();
    ASSERT_EQ(jobs.size(), 12u);

    // Deterministic order: scenario-major, then axes odometer with
    // the last (sorted) axis fastest.
    EXPECT_EQ(jobs[0].displayName(), "lo/cooling=air,oil_velocity=0.1");
    EXPECT_EQ(jobs[1].displayName(), "lo/cooling=air,oil_velocity=0.2");
    EXPECT_EQ(jobs[3].displayName(), "lo/cooling=oil,oil_velocity=0.1");
    EXPECT_EQ(jobs[6].displayName(), "hi/cooling=air,oil_velocity=0.1");

    // Axis assignments override the base/scenario values.
    EXPECT_EQ(*jobs[3].find("config.cooling"), "oil");
    EXPECT_EQ(*jobs[6].find("power.uniform"), "1.5");

    // All twelve jobs hash distinctly.
    std::vector<std::uint64_t> hashes;
    for (const ScenarioSpec &job : jobs)
        hashes.push_back(job.hash());
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}

TEST(SweepPlan, NoAxesMeansOneJobPerScenario)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5}})",
        "single");
    EXPECT_EQ(plan.jobCount(), 1u);
    EXPECT_EQ(plan.expand().size(), 1u);
}

TEST(SweepPlan, RejectsMalformedPlans)
{
    EXPECT_THROW(SweepPlan::parse("not json", "t"), FatalError);
    EXPECT_THROW(SweepPlan::parse(R"({"axes": {"k": "scalar"}})", "t"),
                 FatalError);
    EXPECT_THROW(SweepPlan::parse(R"({"axes": {"k": []}})", "t"),
                 FatalError);
    EXPECT_THROW(
        SweepPlan::parse(R"({"base": 7})", "t"), FatalError);
}

TEST(Scenario, ResolveValidates)
{
    ScenarioSpec missing_floorplan;
    missing_floorplan.set("power.uniform", "0.5");
    EXPECT_THROW(missing_floorplan.resolve(), FatalError);

    ScenarioSpec unknown_key;
    unknown_key.set("floorplan", "preset:ev6");
    unknown_key.set("power.uniform", "0.5");
    unknown_key.set("warp.factor", "9");
    EXPECT_THROW(unknown_key.resolve(), FatalError);

    ScenarioSpec no_power;
    no_power.set("floorplan", "preset:ev6");
    EXPECT_THROW(no_power.resolve(), FatalError);

    ScenarioSpec ok;
    ok.set("floorplan", "preset:ev6");
    ok.set("power.uniform", "0.5");
    ok.set("power.block.IntReg", "4.0");
    ok.set("config.cooling", "oil");
    const ResolvedScenario r = ok.resolve();
    EXPECT_EQ(r.config.package.cooling, CoolingKind::OilSilicon);
    EXPECT_EQ(r.blockPowers.size(), r.floorplan.blockCount());
    EXPECT_DOUBLE_EQ(
        r.blockPowers[r.floorplan.blockIndex("IntReg")], 4.0);
}

TEST(Scenario, IntegratorKeyAcceptsEveryChoice)
{
    const std::pair<const char *, IntegratorKind> choices[] = {
        {"auto", IntegratorKind::Auto},
        {"rk4", IntegratorKind::AdaptiveRk4},
        {"be", IntegratorKind::BackwardEuler},
        {"modal", IntegratorKind::Modal},
    };
    for (const auto &[name, kind] : choices) {
        ScenarioSpec spec;
        spec.set("floorplan", "preset:ev6");
        spec.set("power.uniform", "0.5");
        spec.set("integrator", name);
        EXPECT_EQ(spec.resolve().integrator, kind) << name;
    }
    ScenarioSpec bad;
    bad.set("floorplan", "preset:ev6");
    bad.set("power.uniform", "0.5");
    bad.set("integrator", "euler");
    try {
        bad.resolve();
        ADD_FAILURE() << "unknown integrator accepted";
    } catch (const ConfigError &e) {
        for (const char *name : {"'auto'", "'rk4'", "'be'", "'modal'"})
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << name;
    }
}

// ---------------------------------------------------------------
// Journal round-trip
// ---------------------------------------------------------------

TEST(ResultStore, JournalLineRoundTrip)
{
    JobResult r;
    r.hash = "00ff00ff00ff00ff";
    r.name = "weird \"name\" with, commas\nand a newline";
    r.status = JobStatus::Ok;
    r.wallSeconds = 1.25;
    r.peakCelsius = 91.5;
    r.minCelsius = 71.25;
    r.gradientKelvin = 20.25;
    r.hottestUnit = "IntReg";
    r.heatPrimaryWatts = 40.0;
    r.heatSecondaryWatts = 1.5;
    r.cgIterations = 123;
    r.warmStarted = true;
    r.blockCelsius = {{"A", 80.0}, {"B", 91.5}};

    const std::string line = r.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const JobResult back = JobResult::fromJsonLine(line, "test");
    EXPECT_EQ(back.hash, r.hash);
    EXPECT_EQ(back.name, r.name);
    EXPECT_EQ(back.status, JobStatus::Ok);
    EXPECT_DOUBLE_EQ(back.peakCelsius, r.peakCelsius);
    EXPECT_DOUBLE_EQ(back.gradientKelvin, r.gradientKelvin);
    EXPECT_EQ(back.hottestUnit, "IntReg");
    EXPECT_EQ(back.cgIterations, 123u);
    EXPECT_TRUE(back.warmStarted);
    ASSERT_EQ(back.blockCelsius.size(), 2u);
    EXPECT_EQ(back.blockCelsius[1].first, "B");
    EXPECT_DOUBLE_EQ(back.blockCelsius[1].second, 91.5);

    JobResult f;
    f.hash = "1";
    f.name = "boom";
    f.status = JobStatus::Failed;
    f.error = "CG diverged";
    const JobResult fback =
        JobResult::fromJsonLine(f.toJsonLine(), "test");
    EXPECT_EQ(fback.status, JobStatus::Failed);
    EXPECT_EQ(fback.error, "CG diverged");
}

TEST(ResultStore, PersistsAndReloads)
{
    const std::string dir = freshOutDir("store");
    {
        ResultStore store(dir);
        JobResult r;
        r.hash = "abc";
        r.name = "one";
        store.add(r);
        EXPECT_TRUE(store.has("abc"));
        EXPECT_FALSE(store.has("def"));
    }
    ResultStore reloaded(dir);
    EXPECT_EQ(reloaded.loadJournal(), 1u);
    ASSERT_NE(reloaded.findResult("abc"), nullptr);
    EXPECT_EQ(reloaded.findResult("abc")->name, "one");
}

// ---------------------------------------------------------------
// Runner: isolation, caching, resume
// ---------------------------------------------------------------

/** A small 3-job plan whose middle job cannot converge. */
const char *kFailurePlan =
    R"({"name": "iso",
        "base": {"floorplan": "preset:ev6", "power.uniform": 0.5},
        "scenarios": [
          {"name": "good-a"},
          {"name": "bad", "power.uniform": 0.6,
           "solver.max_iterations": 1, "solver.fallback": "false"},
          {"name": "good-b", "power.uniform": 0.7}]})";

TEST(SweepRunner, FailedJobDoesNotAbortTheBatch)
{
    const SweepPlan plan = SweepPlan::parse(kFailurePlan, "iso");
    SweepOptions opts;
    opts.outDir = freshOutDir("iso");
    opts.workers = 2;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.total, 3u);
    EXPECT_EQ(sum.executed, 3u);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(sum.timedOut, 0u);

    // The failure is journaled with its error text; siblings are ok.
    ResultStore store(opts.outDir);
    EXPECT_EQ(store.loadJournal(), 3u);
    std::size_t failed = 0;
    for (const ScenarioSpec &job : plan.expand()) {
        const JobResult *r = store.findResult(job.hashHex());
        ASSERT_NE(r, nullptr) << job.displayName();
        if (r->status == JobStatus::Failed) {
            ++failed;
            EXPECT_EQ(r->name, "bad");
            EXPECT_FALSE(r->error.empty());
        }
    }
    EXPECT_EQ(failed, 1u);
}

TEST(SweepRunner, TimeoutIsIsolatedToo)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5}})",
        "tmo");
    SweepOptions opts;
    opts.outDir = freshOutDir("tmo");
    opts.workers = 1;
    opts.jobTimeoutSeconds = 1e-9; // expires at the first checkpoint
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 1u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.ok, 0u);
}

TEST(SweepRunner, KillMidSweepThenResumeRunsExactlyTheRest)
{
    const char *planText =
        R"({"name": "resume",
            "base": {"floorplan": "preset:ev6"},
            "axes": {"power.uniform": [0.3, 0.4, 0.5, 0.6]}})";
    const SweepPlan plan = SweepPlan::parse(planText, "resume");
    ASSERT_EQ(plan.jobCount(), 4u);

    SweepOptions opts;
    opts.outDir = freshOutDir("resume");
    opts.workers = 1;  // stopAfter is exact with one worker
    opts.stopAfter = 2;
    const SweepSummary first = runSweep(plan, opts);
    EXPECT_EQ(first.executed, 2u);
    EXPECT_EQ(first.ok, 2u);
    EXPECT_EQ(countJournalLines(first.journalPath), 2u);

    // "Restart the process": a fresh run with --resume must simulate
    // exactly the two unjournaled jobs.
    SweepOptions again = opts;
    again.stopAfter = 0;
    again.resume = true;
    const SweepSummary second = runSweep(plan, again);
    EXPECT_EQ(second.total, 4u);
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.executed, 2u);
    EXPECT_EQ(second.ok, 2u);
    EXPECT_EQ(countJournalLines(second.journalPath), 4u);

    // A third resumed run performs zero new simulations.
    const SweepSummary third = runSweep(plan, again);
    EXPECT_EQ(third.cached, 4u);
    EXPECT_EQ(third.executed, 0u);
}

TEST(SweepRunner, DuplicateScenariosRunOnce)
{
    // Two scenarios that differ only by name share a hash: the
    // second is skipped as a duplicate, not re-simulated.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "scenarios": [{"name": "a"}, {"name": "a-again"}]})",
        "dup");
    SweepOptions opts;
    opts.outDir = freshOutDir("dup");
    opts.workers = 1;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.total, 2u);
    EXPECT_EQ(sum.executed, 1u);
    EXPECT_EQ(sum.duplicates, 1u);
}

TEST(SweepRunner, WarmStartReusesMatchingStacks)
{
    // Same floorplan + config, different powers: the second job seeds
    // its CG solve from the first job's temperatures.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6"},
            "axes": {"power.uniform": [0.5, 0.55]}})",
        "warm");
    SweepOptions opts;
    opts.outDir = freshOutDir("warm");
    opts.workers = 1; // deterministic completion order
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.executed, 2u);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.warmStarted, 1u);

    // The warm-started solve converges in fewer iterations than the
    // cold one (nearby right-hand sides).
    ResultStore store(opts.outDir);
    store.loadJournal();
    const std::vector<ScenarioSpec> jobs = plan.expand();
    const JobResult *cold = store.findResult(jobs[0].hashHex());
    const JobResult *warm = store.findResult(jobs[1].hashHex());
    ASSERT_NE(cold, nullptr);
    ASSERT_NE(warm, nullptr);
    EXPECT_FALSE(cold->warmStarted);
    EXPECT_TRUE(warm->warmStarted);
    EXPECT_LT(warm->cgIterations, cold->cgIterations);
}

TEST(SweepRunner, ReportsAreWritten)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "power.uniform": 0.5},
            "axes": {"config.cooling": ["air", "oil"]}})",
        "rep");
    SweepOptions opts;
    opts.outDir = freshOutDir("rep");
    opts.workers = 2;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_TRUE(std::filesystem::exists(sum.csvPath));
    EXPECT_TRUE(std::filesystem::exists(sum.jsonPath));

    // The JSON report must itself parse with the sweep JSON reader.
    std::ifstream in(sum.jsonPath);
    std::ostringstream body;
    body << in.rdbuf();
    const JsonValue root = parseJson(body.str(), sum.jsonPath);
    ASSERT_NE(root.find("schema"), nullptr);
    EXPECT_EQ(root.find("schema")->text, "irtherm.sweep.v1");
    ASSERT_NE(root.find("results"), nullptr);
    EXPECT_EQ(root.find("results")->items.size(), 2u);
}

TEST(SweepRunner, MissingPtraceIsJournaledAsIo)
{
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6"},
            "scenarios": [
              {"name": "good-a", "power.uniform": 0.5},
              {"name": "no-trace",
               "ptrace": "definitely/not/there.ptrace"},
              {"name": "good-b", "power.uniform": 0.6}]})",
        "io");
    SweepOptions opts;
    opts.outDir = freshOutDir("io");
    opts.workers = 2;
    opts.retryBackoffSeconds = 0.0;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.failed, 1u);

    ResultStore store(opts.outDir);
    ASSERT_EQ(store.loadJournal(), 3u);
    for (const ScenarioSpec &job : plan.expand()) {
        const JobResult *r = store.findResult(job.hashHex());
        ASSERT_NE(r, nullptr) << job.displayName();
        if (r->name == "no-trace") {
            EXPECT_EQ(r->status, JobStatus::Failed);
            EXPECT_EQ(r->errorClass, ErrorClass::Io) << r->error;
            EXPECT_NE(r->error.find("cannot open"), std::string::npos)
                << r->error;
        } else {
            EXPECT_EQ(r->status, JobStatus::Ok) << r->name;
        }
    }
}

// ---------------------------------------------------------------
// Shared stack models
// ---------------------------------------------------------------

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

double
liveStackModels()
{
    return obs::MetricsRegistry::global()
        .gauge("sweep.stack_models.live")
        .value();
}

/** Two stacks with 8 steady jobs each (superposed at the default
 *  threshold) and three stacks with one job each. */
SweepPlan
sharedStacksPlan()
{
    std::string scenarios;
    const char *const shared[] = {R"("config.cooling": "air")",
                                  R"("config.cooling": "oil")"};
    for (const char *stack : shared) {
        for (int j = 0; j < 8; ++j) {
            scenarios += std::string(scenarios.empty() ? "" : ",") +
                         "{" + stack + ", \"power.uniform\": " +
                         std::to_string(0.3 + 0.05 * j) + "}";
        }
    }
    for (const char *v : {"0.2", "0.4", "0.8"}) {
        scenarios += std::string(R"(,{"config.cooling": "oil", )") +
                     R"("config.oil_velocity": )" + v +
                     R"(, "power.uniform": 0.5})";
    }
    return SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6"}, "scenarios": [)" +
            scenarios + "]}",
        "shared");
}

TEST(SharedStackModels, PlanAssemblesOneModelPerStack)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const SweepPlan plan = sharedStacksPlan();
    ASSERT_EQ(plan.jobCount(), 19u);
    SweepOptions opts;
    opts.outDir = freshOutDir("shared1");
    opts.workers = 1;
    const std::uint64_t before = counterValue("core.stack_model.builds");
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 19u);
    EXPECT_EQ(counterValue("core.stack_model.builds") - before, 5u);
}

TEST(SharedStackModels, ConcurrentJobsBuildEachModelOnceAndDropIt)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const SweepPlan plan = sharedStacksPlan();
    SweepOptions opts;
    opts.outDir = freshOutDir("shared4");
    opts.workers = 4;
    const std::uint64_t before = counterValue("core.stack_model.builds");
    const double liveBefore = liveStackModels();
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 19u);
    EXPECT_EQ(counterValue("core.stack_model.builds") - before, 5u);
    EXPECT_EQ(liveStackModels(), liveBefore);

    // The model is dropped when the stack's last announced job
    // finishes, not when the executor goes away.
    ScenarioSpec a;
    a.set("floorplan", "preset:ev6");
    a.set("power.uniform", "0.5");
    ScenarioSpec b = a;
    b.set("power.uniform", "0.6");
    JobExecutor executor(opts);
    executor.shareStackModel(a.stackKey(), 2);
    EXPECT_EQ(executor.run(a).status, JobStatus::Ok);
    EXPECT_EQ(liveStackModels(), liveBefore + 1.0);
    EXPECT_EQ(executor.run(b).status, JobStatus::Ok);
    EXPECT_EQ(liveStackModels(), liveBefore);
}

TEST(SharedStackModels, FailedBuildIsNotSharedAndEachJobReportsIt)
{
    // Microchannel coolant needs grid mode: the stack resolves, but
    // assembling its model throws on every attempt of every job.
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6",
                     "config.cooling": "microchannel"},
            "axes": {"power.uniform": [0.5, 0.6, 0.7]}})",
        "badstack");
    SweepOptions opts;
    opts.outDir = freshOutDir("badstack");
    opts.workers = 3;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.failed, 3u);

    ResultStore store(opts.outDir);
    ASSERT_EQ(store.loadJournal(), 3u);
    for (const ScenarioSpec &job : plan.expand()) {
        const JobResult *r = store.findResult(job.hashHex());
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->status, JobStatus::Failed);
        EXPECT_NE(r->error.find("grid mode"), std::string::npos)
            << r->error;
    }
}

TEST(SharedStackModels, JobsMatchAFreshModelBitForBit)
{
    const SweepPlan plan = sharedStacksPlan();
    SweepOptions opts;
    opts.outDir = freshOutDir("sharedbits");
    opts.workers = 4;
    ASSERT_EQ(runSweep(plan, opts).ok, 19u);

    ResultStore store(opts.outDir);
    store.loadJournal();
    std::map<std::string, std::size_t> jobsPerStack;
    const std::vector<ScenarioSpec> jobs = plan.expand();
    for (const ScenarioSpec &job : jobs)
        ++jobsPerStack[job.stackKey()];
    for (const ScenarioSpec &job : jobs) {
        const JobResult *r = store.findResult(job.hashHex());
        ASSERT_NE(r, nullptr);
        // The same solver path the runner takes: superposed on the
        // 8-job stacks, a cold iterative solve on the singletons.
        const ResolvedScenario rs = job.resolve();
        const StackModel fresh(rs.floorplan, rs.config.package,
                               rs.config.model);
        StackModel::SteadySolveOptions so;
        so.maxIterations = rs.maxIterations;
        so.tolerance = rs.tolerance;
        so.preconditioner = rs.preconditioner;
        so.superposition = jobsPerStack[job.stackKey()] >= 8;
        so.stackKey = job.stackHash();
        const std::vector<double> nodes =
            fresh.steadyNodeTemperatures(rs.blockPowers, so);
        const std::vector<double> cells =
            fresh.siliconCellTemperatures(nodes);
        EXPECT_EQ(r->peakCelsius,
                  toCelsius(*std::max_element(cells.begin(), cells.end())));
        EXPECT_EQ(r->minCelsius,
                  toCelsius(*std::min_element(cells.begin(), cells.end())));
        const std::vector<double> blocks = fresh.blockTemperatures(nodes);
        ASSERT_EQ(r->blockCelsius.size(), blocks.size());
        for (std::size_t b = 0; b < blocks.size(); ++b)
            EXPECT_EQ(r->blockCelsius[b].second, toCelsius(blocks[b]))
                << r->blockCelsius[b].first;
    }
}

TEST(SharedStackModels, TransientJobsOnOneStackShareOneModalBasis)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const Floorplan fp = floorplans::alphaEv6();
    const std::string trace =
        (std::filesystem::path(::testing::TempDir()) /
         "irtherm_sweep_shared.ptrace")
            .string();
    {
        std::ofstream out(trace);
        for (std::size_t b = 0; b < fp.blockCount(); ++b)
            out << fp.block(b).name
                << (b + 1 < fp.blockCount() ? " " : "\n");
        for (int t = 0; t < 20; ++t) {
            for (std::size_t b = 0; b < fp.blockCount(); ++b)
                out << 0.5 + 0.1 * ((t + b) % 3)
                    << (b + 1 < fp.blockCount() ? " " : "\n");
        }
    }
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6", "mode": "transient",
                     "ptrace": ")" +
            trace + R"("},
            "axes": {"ptrace.sampling": [0.001, 0.002]}})",
        "modal");
    SweepOptions opts;
    opts.outDir = freshOutDir("sharedmodal");
    opts.workers = 2;
    obs::Counter &modal =
        obs::MetricsRegistry::global().counter("numeric.modal.builds");
    const std::uint64_t before = modal.value();
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(modal.value() - before, 1u);
}

} // namespace
} // namespace irtherm::sweep
