/**
 * @file
 * sweep_batch: a design-space sweep where the sweep machinery, not
 * the physics, sets the pace. Most jobs are cheap block-mode steady
 * solves on three shared stacks (the superposition path); a minority
 * are grid-mode jobs on distinct stacks (the iterative path). The
 * plan runs fresh through sweep::runSweep (journal writes), resumes
 * on the finished journal, and is read back with sweep::readJournal.
 * No transient or power-trace work happens here.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "base/rng.hh"
#include "base/units.hh"
#include "core/stack_model.hh"
#include "numeric/impulse_cache.hh"
#include "oracles.hh"
#include "sweep/compact.hh"
#include "sweep/plan.hh"
#include "sweep/runner.hh"
#include "workload.hh"

namespace irbench
{

using namespace irtherm;
namespace fs = std::filesystem;

namespace
{

/** Block-mode jobs per shared stack, and grid-mode distinct stacks. */
constexpr std::size_t kJobsPerStack = 1200;
constexpr std::size_t kGridJobs = 24;
constexpr std::size_t kGridCells = 16;
/** Oracle: superposed jobs re-solved directly, and the tolerance. */
constexpr std::size_t kOracleSample = 16;
constexpr double kAgreeTolK = 1e-6;

const char *const kStacks[] = {
    R"("config.cooling": "air", "config.r_convec": 0.3)",
    R"("config.cooling": "air", "config.r_convec": 0.6)",
    R"("config.cooling": "oil", "config.oil_velocity": 0.5)",
};

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/** The seeded plan: shared-stack block jobs, then distinct grid jobs. */
std::string
makePlan(std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::string json = R"({"name": "irbench-sweep",
  "base": {"floorplan": "preset:ev6", "mode": "steady"},
  "scenarios": [)";
    std::size_t n = 0;
    const auto add = [&](const std::string &body) {
        json += n == 0 ? "\n" : ",\n";
        json += "    {\"name\": \"j" + std::to_string(n) + "\", " + body +
                "}";
        ++n;
    };
    for (const char *stack : kStacks) {
        for (std::size_t j = 0; j < kJobsPerStack; ++j) {
            add(std::string(stack) +
                ", \"power.uniform\": " +
                number(0.3 + 0.7 * rng.uniform()) +
                ", \"power.block.IntReg\": " +
                number(2.0 + 4.0 * rng.uniform()) +
                ", \"power.block.Icache\": " +
                number(4.0 + 6.0 * rng.uniform()));
        }
    }
    for (std::size_t j = 0; j < kGridJobs; ++j) {
        // Distinct velocities: one stack per job.
        const double v = 0.1 + 0.9 * (static_cast<double>(j) +
                                      rng.uniform()) /
                                     static_cast<double>(kGridJobs);
        add(R"("config.cooling": "oil", "config.model_mode": "grid", )"
            R"("config.grid_nx": )" +
            std::to_string(kGridCells) + R"(, "config.grid_ny": )" +
            std::to_string(kGridCells) + R"(, "config.oil_velocity": )" +
            number(v) + ", \"power.uniform\": " +
            number(0.4 + 0.6 * rng.uniform()));
    }
    json += "\n  ]}\n";
    return json;
}

std::map<std::string, const sweep::JobResult *>
byHash(const std::vector<sweep::JobResult> &rows)
{
    std::map<std::string, const sweep::JobResult *> m;
    for (const sweep::JobResult &r : rows)
        m.emplace(r.hash, &r);
    return m;
}

/** Largest temperature difference between two results (K). */
double
resultDiff(const sweep::JobResult &a, const sweep::JobResult &b)
{
    double d = std::abs(a.peakCelsius - b.peakCelsius);
    if (a.blockCelsius.size() != b.blockCelsius.size())
        return std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < a.blockCelsius.size(); ++i)
        d = std::max(d, std::abs(a.blockCelsius[i].second -
                                 b.blockCelsius[i].second));
    return std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
}

std::size_t
duplicateHashes(const std::vector<sweep::JobResult> &rows)
{
    std::set<std::string> seen;
    std::size_t dups = 0;
    for (const sweep::JobResult &r : rows)
        dups += seen.insert(r.hash).second ? 0 : 1;
    return dups;
}

class SweepBatch : public Workload
{
  public:
    SweepBatch(std::uint64_t seed, std::size_t workerCount,
               const std::string &workDir)
        : oracleSeed(SplitMix64(seed).child(1).next()),
          planJson(makePlan(seed)), workers(workerCount),
          root(workDir)
    {
    }

    void
    prepare() override
    {
        fs::remove_all(root);
        fs::create_directories(root);
        // A fresh process starts with no impulse responses cached;
        // each pass pays the build like a new sweep would.
        ImpulseResponseCache::global().clear();
    }

    void
    run(Tracer &t) override
    {
        t.phase("plan");
        t.setup("sweep.plan_s", [&] {
            plan.emplace(sweep::SweepPlan::parse(planJson, "irbench-sweep"));
            jobs = plan->expand();
        });

        const std::string localDir = (root / "local").string();
        sweep::SweepOptions opts;
        opts.outDir = localDir;
        opts.workers = workers;

        t.phase("fresh");
        const RegistryReading before = readRegistry();
        fresh = t.layer("sweep.run_s",
                        [&] { return sweep::runSweep(*plan, opts); });
        freshDelta = readRegistry() - before;

        t.phase("resume");
        opts.resume = true;
        resumed = t.layer("sweep.resume_run_s",
                          [&] { return sweep::runSweep(*plan, opts); });
        local = t.layer("sweep.read_journal_s",
                        [&] { return sweep::readJournal(localDir); });
    }

    void
    countJobs(Checks &c) override
    {
        c.tally(fresh.total, fresh.total - fresh.ok, "sweep jobs not ok");
    }

    void
    check(Checks &c) override
    {
        c.expect(fresh.executed == fresh.total && fresh.total == jobs.size(),
                 "sweep_batch: fresh run executed " +
                     std::to_string(fresh.executed) + " of " +
                     std::to_string(jobs.size()) + " jobs");
        c.expect(resumed.executed == 0 && resumed.cached == jobs.size(),
                 "sweep_batch: resume executed " +
                     std::to_string(resumed.executed) + " jobs");
        const std::size_t dups = duplicateHashes(local.rows);
        c.expect(local.rows.size() == jobs.size() && dups == 0,
                 "sweep_batch: journal has " +
                     std::to_string(local.rows.size()) + " rows, " +
                     std::to_string(dups) + " duplicate hashes");

        // Superposed answers against a direct iterative solve.
        std::map<std::string, const sweep::ScenarioSpec *> specs;
        for (const sweep::ScenarioSpec &s : jobs)
            specs.emplace(s.hashHex(), &s);
        std::vector<const sweep::JobResult *> superposed;
        for (const sweep::JobResult &r : local.rows) {
            if (r.impulseCacheHit)
                superposed.push_back(&r);
        }
        c.expect(superposed.size() >= kOracleSample,
                 "sweep_batch: " + std::to_string(superposed.size()) +
                     " superposed jobs (sample needs " +
                     std::to_string(kOracleSample) + ")");
        SplitMix64 rng(oracleSeed);
        for (std::size_t k = 0; k < kOracleSample && !superposed.empty();
             ++k) {
            const sweep::JobResult &row =
                *superposed[rng.next() % superposed.size()];
            const auto spec = specs.find(row.hash);
            if (spec == specs.end()) {
                c.expect(false, "sweep_batch: journal hash " + row.hash +
                                    " is not in the plan");
                continue;
            }
            const sweep::ResolvedScenario rs = spec->second->resolve();
            const StackModel model(rs.floorplan, rs.config.package,
                                   rs.config.model);
            StackModel::SteadySolveOptions so;
            so.tolerance = rs.tolerance;
            so.superposition = false;
            const std::vector<double> nodes =
                model.steadyNodeTemperatures(rs.blockPowers, so);
            sweep::JobResult direct;
            const std::vector<double> cells =
                model.siliconCellTemperatures(nodes);
            direct.peakCelsius =
                toCelsius(*std::max_element(cells.begin(), cells.end()));
            const std::vector<double> blocks = model.blockTemperatures(nodes);
            for (std::size_t b = 0; b < blocks.size(); ++b)
                direct.blockCelsius.emplace_back(
                    rs.floorplan.block(b).name, toCelsius(blocks[b]));
            const double d = resultDiff(row, direct);
            c.expect(d <= kAgreeTolK,
                     "sweep_batch: superposed job " + row.hash +
                         " vs direct solve, max |dT| = " +
                         num(d) + " K");
        }
    }

    std::vector<double>
    digest() const override
    {
        std::vector<double> d;
        for (const auto &[hash, row] : byHash(local.rows))
            d.push_back(row->peakCelsius);
        return d;
    }

    void
    layerMetrics(MetricMap &out) const override
    {
        const double runS = out.at("sweep.run_s");
        const double executed = static_cast<double>(fresh.executed);
        std::vector<double> jobMs;
        double jobS = 0.0;
        for (const sweep::JobResult &r : local.rows) {
            jobMs.push_back(r.wallSeconds * 1e3);
            jobS += r.wallSeconds;
        }
        const double workerS = static_cast<double>(workers) * runS;
        out["sweep.jobs"] = executed;
        out["jobs_per_s"] = executed / runS;
        out["sweep.job_p50_ms"] = quantile(jobMs, 0.50);
        out["sweep.job_p99_ms"] = quantile(jobMs, 0.99);
        out["sweep.in_job_share"] = jobS / workerS;
        out["sweep.outside_jobs_s"] = (workerS - jobS) /
                                      static_cast<double>(workers);
        out["sweep.journal_bytes"] =
            freshDelta.counter("sweep.journal.bytes_written");
        out["sweep.journal_flush_s"] =
            freshDelta.timerSeconds("sweep.journal.flush_seconds");
        out["sweep.agg_update_s"] =
            freshDelta.timerSeconds("sweep.agg.update_seconds");
        out["sweep.superposed_share"] =
            static_cast<double>(fresh.impulseCacheHits) / executed;
        out["resume_s"] =
            out.at("sweep.resume_run_s") + out.at("sweep.read_journal_s");
    }

  private:
    std::uint64_t oracleSeed;
    std::string planJson;
    std::size_t workers;
    fs::path root;

    std::optional<sweep::SweepPlan> plan;
    std::vector<sweep::ScenarioSpec> jobs;
    sweep::SweepSummary fresh, resumed;
    sweep::JournalData local;
    RegistryReading freshDelta;
};

} // namespace

std::unique_ptr<Workload>
makeSweepBatch(std::uint64_t seed, std::size_t workers,
               const std::string &workDir)
{
    return std::make_unique<SweepBatch>(seed, workers, workDir);
}

} // namespace irbench
