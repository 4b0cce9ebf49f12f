/**
 * @file
 * package_transients: the package time constants and IR-measured
 * maps behind the paper's Figs. 7-11, where transient integration
 * dominates and the power layer is negligible.
 *
 * Block part (adaptive RK4): step responses of Fig. 7's uniform chip
 * under OIL-SILICON and AIR-SINK, with tau fitted as in Fig. 7.
 * Grid part (backward Euler + CG): the EV6 die under the four
 * packages of bench_ext_design_space (steady map, warm-up tau63,
 * DVFS recovery, 3x3 sensing margin). Last, an IR camera frame of the
 * OIL map is inverted back to block powers.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "analysis/inversion.hh"
#include "base/rng.hh"
#include "base/units.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "dtm/ir_camera.hh"
#include "dtm/sensor.hh"
#include "floorplan/presets.hh"
#include "numeric/fit.hh"
#include "oracles.hh"
#include "power/synthetic_cpu.hh"
#include "power/wattch_model.hh"
#include "workload.hh"

namespace irbench
{

using namespace irtherm;

namespace
{

/**
 * Block part: total step power (W), and the factor the AIR-SINK sink
 * mass is scaled by. Fig. 7's full sink gives tau_long ~ 220 s, whose
 * 500 s replay costs ~20 s of RK4; a tenth of the mass keeps Rconv
 * (1 K/W, so Eq. 5-6 still hold) and brings tau_long to ~25 s. A
 * lighter sink would leave the spreader and TIM resistances too large
 * a share of the long path for the single-pole formula.
 */
constexpr double kStepPowerW = 50.0;
constexpr double kSinkMassScale = 0.1;
constexpr double kAirStep = 0.2;
constexpr double kAirHorizon = 32.0;
constexpr double kOilStep = 0.02;
constexpr double kOilHorizon = 2.0;
/** Grid part resolution and horizons. */
constexpr std::size_t kGrid = 16;
constexpr double kWarmupStep = 0.05;
constexpr double kWarmupHorizon = 20.0;
constexpr double kRecoveryStep = 5e-4;
constexpr double kRecoveryHorizon = 0.25;
constexpr std::size_t kAvgSamples = 20000;
/**
 * Oracle tolerances. The lumped circuits of Eqs. 5-6 ignore the
 * lateral h(x) distribution under oil, so the fitted tau_oil sits
 * ~27% above Eq. 6 (as in bench_fig07); the AIR long path is a
 * single pole to a few percent. The dense-LU backward-Euler replay
 * (1/20 of each window per implicit step) pins the fit itself.
 */
constexpr double kTauOilBand = 0.35;  ///< |fitted / Eq. 6 - 1|
constexpr double kTauAirBand = 0.10;  ///< |fitted / Rconv C - 1|
constexpr double kTauRefTol = 0.01;   ///< |RK4 fit / dense-BE fit - 1|
constexpr std::size_t kRefSubsteps = 20;
constexpr double kSteadyTolK = 1e-8;  ///< block steady vs dense LU
constexpr double kResidualTol = 1e-10; ///< grid ||G T - P|| / ||P||
constexpr double kInversionTolW = 1e-8; ///< per-block power error

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
maxOf(const std::vector<double> &v)
{
    return *std::max_element(v.begin(), v.end());
}

struct GridRow
{
    double peak = 0.0;
    double gradient = 0.0;
    double tau63 = 0.0;
    double recoveryMs = 0.0;
    double sensing = 0.0;
};

class PackageTransients : public Workload
{
  public:
    explicit PackageTransients(std::uint64_t seed)
        : chip(floorplans::uniformChip(4, 0.02, 0.02)),
          ev6(floorplans::alphaEv6())
    {
        SplitMix64 rng(seed);
        cpuSeed = rng.next();
        // The step power's split over the blocks varies +-10% around
        // uniform; the total stays fixed.
        double sum = 0.0;
        for (std::size_t b = 0; b < chip.blockCount(); ++b) {
            stepPowers.push_back(1.0 + 0.2 * (rng.uniform() - 0.5));
            sum += stepPowers.back();
        }
        for (double &p : stepPowers)
            p *= kStepPowerW / sum;
    }

    void
    run(Tracer &t) override
    {
        runBlockPart(t);
        runGridPart(t);
    }

    void
    check(Checks &c) override
    {
        const double cSi = oilChip->siliconCapacitance();
        const double tauOil = oilChip->equivalentPrimaryResistance() *
                              (cSi + oilChip->oilCapacitance());
        // The long AIR path: Rconv times all the mass behind it (sink,
        // HotSpot's lumped convection capacitance, spreader, die).
        const AirSinkSpec &sink = airChip->packageConfig().airSink;
        const double cSink = sink.sinkMaterial.volumetricHeatCapacity *
                             sink.sinkSide * sink.sinkSide *
                             sink.sinkThickness;
        const double cSpreader =
            sink.spreaderMaterial.volumetricHeatCapacity *
            sink.spreaderSide * sink.spreaderSide * sink.spreaderThickness;
        const double tauLongAir =
            airChip->equivalentPrimaryResistance() *
            (cSink + sink.convectionCapacitance + cSpreader +
             airChip->siliconCapacitance());
        c.expect(std::abs(fitOil / tauOil - 1.0) <= kTauOilBand,
                 "package_transients: fitted tau_oil " +
                     num(fitOil) + " s vs Eq. 6 " +
                     num(tauOil) + " s");
        c.expect(std::abs(fitLongAir / tauLongAir - 1.0) <= kTauAirBand,
                 "package_transients: fitted tau_long,air " +
                     num(fitLongAir) + " s vs analytic " +
                     num(tauLongAir) + " s");
        const double refOil =
            referenceTau(*oilChip, kOilStep, kOilHorizon);
        const double refAir =
            referenceTau(*airChip, kAirStep, kAirHorizon);
        c.expect(std::abs(fitOil / refOil - 1.0) <= kTauRefTol &&
                     std::abs(fitLongAir / refAir - 1.0) <= kTauRefTol,
                 "package_transients: RK4 fits " + num(fitOil) +
                     " / " + num(fitLongAir) +
                     " s vs dense-LU BE fits " + num(refOil) +
                     " / " + num(refAir) + " s");

        for (const auto &[model, steady] :
             {std::pair{&*oilChip, &oilSteady},
              std::pair{&*airChip, &airSteady}}) {
            const double err = maxAbsDiff(
                *steady,
                model->blockTemperatures(luSteadyNodes(*model, stepPowers)));
            c.expect(err <= kSteadyTolK,
                     "package_transients: block steady vs dense LU, max "
                     "|dT| = " +
                         num(err) + " K");
        }

        for (std::size_t i = 0; i < gridModels.size(); ++i) {
            const double res =
                steadyResidual(gridModels[i], gridNodes[i], ev6Powers);
            c.expect(res <= kResidualTol,
                     "package_transients: grid steady residual " +
                         num(res) + " (package " +
                         std::to_string(i) + ")");
        }

        double worst = 0.0;
        for (std::size_t b = 0; b < ev6Powers.size(); ++b) {
            const double d = std::abs(inverted[b] - ev6Powers[b]);
            worst = std::isnan(d) ? d : std::max(worst, d);
        }
        c.expect(worst <= kInversionTolW,
                 "package_transients: IR-frame inversion, max |dP| = " +
                     num(worst) + " W");
    }

    std::vector<double>
    digest() const override
    {
        std::vector<double> d{fitOil, fitLongAir};
        for (const GridRow &r : rows) {
            d.insert(d.end(), {r.peak, r.gradient, r.tau63, r.recoveryMs,
                               r.sensing});
        }
        d.insert(d.end(), inverted.begin(), inverted.end());
        return d;
    }

    void
    layerMetrics(MetricMap &m) const override
    {
        m["core.steady_iters"] = static_cast<double>(steadyIterations);
    }

  private:
    /** Fig. 7's fit: time to 63.2% of the block-mean step response. */
    double
    fittedTau(Tracer &t, const StackModel &model, double dt,
              double duration, std::vector<double> &steadyOut)
    {
        steadyOut = t.layer("core.steady_s", [&] {
            return model.steadyBlockTemperatures(stepPowers);
        });
        std::optional<ThermalSimulator> sim;
        t.setup("core.sim_init_s", [&] { sim.emplace(model); });
        sim->setBlockPowers(stepPowers);
        std::vector<double> times{0.0};
        std::vector<double> values{model.packageConfig().ambient};
        for (double at = dt; at <= duration + 1e-12; at += dt) {
            t.layer("core.advance_block_s", [&] { sim->advance(dt); });
            times.push_back(at);
            values.push_back(meanOf(t.layer(
                "core.readback_s", [&] { return sim->blockTemperatures(); })));
        }
        return timeToFraction(times, values, meanOf(steadyOut), 0.632);
    }

    /** The same fit on a dense-LU backward-Euler replay. */
    double
    referenceTau(const StackModel &model, double dt, double duration) const
    {
        const double ambient = model.packageConfig().ambient;
        DenseBeReplay be(model, dt, kRefSubsteps,
                         std::vector<double>(model.nodeCount(), ambient));
        std::vector<double> times{0.0};
        std::vector<double> values{ambient};
        for (double at = dt; at <= duration + 1e-12; at += dt) {
            be.window(stepPowers);
            times.push_back(at);
            values.push_back(meanOf(be.blockTemperatures()));
        }
        const double steady =
            meanOf(model.blockTemperatures(luSteadyNodes(model, stepPowers)));
        return timeToFraction(times, values, steady, 0.632);
    }

    void
    runBlockPart(Tracer &t)
    {
        t.phase("block.assemble");
        t.setup("core.assemble_s", [&] {
            PackageConfig oil = PackageConfig::makeOilSilicon(
                10.0, FlowDirection::LeftToRight, 22.0);
            // Fig. 7's analytic circuit: bare die + oil only.
            oil.secondary.enabled = false;
            oilChip.emplace(chip, oil);
        });
        t.setup("core.assemble_s", [&] {
            PackageConfig air = PackageConfig::makeAirSink(1.0, 22.0);
            air.airSink.sinkThickness *= kSinkMassScale;
            air.airSink.convectionCapacitance *= kSinkMassScale;
            airChip.emplace(chip, air);
        });
        t.phase("block.step_oil");
        fitOil = fittedTau(t, *oilChip, kOilStep, kOilHorizon, oilSteady);
        t.phase("block.step_air");
        fitLongAir =
            fittedTau(t, *airChip, kAirStep, kAirHorizon, airSteady);
    }

    void
    runGridPart(Tracer &t)
    {
        steadyIterations = 0;
        t.phase("grid.powers");
        ev6Powers = t.layer("power.avg_powers_s", [&] {
            const WattchPowerModel pm = WattchPowerModel::alphaEv6();
            SyntheticCpu::Config cfg;
            cfg.seed = cpuSeed;
            SyntheticCpu cpu(pm, workloads::gcc(), cfg);
            return cpu.generate(kAvgSamples).reorderedFor(ev6).averagePowers();
        });

        t.phase("grid.assemble");
        ModelOptions mo;
        mo.mode = ModelMode::Grid;
        mo.gridNx = kGrid;
        mo.gridNy = kGrid;
        const PackageConfig packages[] = {
            PackageConfig::makeAirSink(0.3, 40.0),
            PackageConfig::makeOilSilicon(10.0, FlowDirection::LeftToRight,
                                          40.0),
            PackageConfig::makeMicrochannel(1.0, FlowDirection::LeftToRight,
                                            40.0),
            PackageConfig::makeNaturalConvection(10.0, 40.0),
        };
        gridModels.clear();
        gridModels.reserve(std::size(packages));
        for (const PackageConfig &pkg : packages) {
            t.setup("core.assemble_s",
                    [&] { gridModels.emplace_back(ev6, pkg, mo); });
        }

        static const char *const names[] = {"air", "oil", "microchannel",
                                            "natural"};
        rows.assign(gridModels.size(), GridRow{});
        gridNodes.assign(gridModels.size(), {});
        for (std::size_t i = 0; i < gridModels.size(); ++i) {
            t.phase(std::string("grid.") + names[i]);
            rows[i] = gridRow(t, gridModels[i], gridNodes[i]);
        }

        // The IR rig: capture the OIL map, invert it to block powers.
        t.phase("grid.ir_inversion");
        const StackModel &oil = gridModels[1];
        std::optional<PowerInversion> inv;
        t.setup("analysis.inversion_setup_s", [&] { inv.emplace(oil); });
        const std::vector<double> cells =
            oil.siliconCellTemperatures(gridNodes[1]);
        IrCameraSpec spec;
        spec.frameInterval = 8e-3;
        const std::vector<IrFrame> frames =
            t.layer("dtm.ir_capture_s", [&] {
                return IrCamera(spec).capture(
                    2e-3, std::vector<std::vector<double>>(4, cells), kGrid,
                    kGrid);
            });
        if (frames.empty())
            throw std::runtime_error("IR camera captured no frame");
        std::vector<double> framed = gridNodes[1];
        std::copy(frames.front().pixels.begin(), frames.front().pixels.end(),
                  framed.begin() +
                      static_cast<std::ptrdiff_t>(oil.siliconNodeBegin()));
        const std::vector<double> blockTemps = t.layer(
            "core.readback_s", [&] { return oil.blockTemperatures(framed); });
        inverted = t.layer("analysis.inversion_s",
                           [&] { return inv->estimatePowers(blockTemps); });
    }

    GridRow
    gridRow(Tracer &t, const StackModel &model, std::vector<double> &nodes)
    {
        const PackageConfig &pkg = model.packageConfig();
        GridRow row;
        StackModel::SteadySolveOptions so;
        StackModel::SteadySolveInfo info;
        nodes = t.layer("core.steady_s", [&] {
            return model.steadyNodeTemperatures(ev6Powers, so, &info);
        });
        steadyIterations += info.iterations;
        const std::vector<double> cells = model.siliconCellTemperatures(nodes);
        const double steadyMax = maxOf(cells);
        row.peak = toCelsius(steadyMax);
        row.gradient = steadyMax - *std::min_element(cells.begin(), cells.end());

        // Warm-up tau63 of the hot spot, from ambient.
        {
            SimulatorOptions opts;
            opts.implicitStep = kWarmupStep;
            std::optional<ThermalSimulator> sim;
            t.setup("core.sim_init_s", [&] { sim.emplace(model, opts); });
            sim->setBlockPowers(ev6Powers);
            std::vector<double> times{0.0};
            std::vector<double> values{pkg.ambient};
            for (double at = kWarmupStep; at <= kWarmupHorizon + 1e-9;
                 at += kWarmupStep) {
                t.layer("core.advance_grid_s",
                        [&] { sim->advance(kWarmupStep); });
                times.push_back(at);
                values.push_back(t.layer("core.readback_s", [&] {
                    return sim->maxSiliconTemperature();
                }));
                if (values.back() >
                    pkg.ambient + 0.8 * (steadyMax - pkg.ambient))
                    break;
            }
            row.tau63 = timeToFraction(times, values, steadyMax, 0.632);
            if (row.tau63 < 0.0)
                row.tau63 = kWarmupHorizon;
        }

        // DVFS recovery: time to shed 30% of the excursion at 0.125x.
        {
            std::vector<double> throttled = ev6Powers;
            for (double &w : throttled)
                w *= 0.125;
            const std::size_t hot = ev6.blockIndex("IntReg");
            const double hotSteady = t.layer("core.steady_s", [&] {
                return model.steadyBlockTemperatures(ev6Powers)[hot];
            });
            const double coolSteady = t.layer("core.steady_s", [&] {
                return model.steadyBlockTemperatures(throttled)[hot];
            });
            const double target = hotSteady - 0.3 * (hotSteady - coolSteady);
            SimulatorOptions opts;
            opts.implicitStep = kRecoveryStep;
            std::optional<ThermalSimulator> sim;
            t.setup("core.sim_init_s", [&] {
                sim.emplace(model, opts);
                sim->initializeSteady(ev6Powers);
            });
            sim->setBlockPowers(throttled);
            row.recoveryMs = -1.0;
            for (double at = kRecoveryStep; at <= kRecoveryHorizon + 1e-9;
                 at += kRecoveryStep) {
                t.layer("core.advance_grid_s",
                        [&] { sim->advance(kRecoveryStep); });
                const double hotNow = t.layer("core.readback_s", [&] {
                    return sim->blockTemperatures()[hot];
                });
                if (hotNow <= target) {
                    row.recoveryMs = at * 1e3;
                    break;
                }
            }
        }

        row.sensing = t.layer("dtm.sensing_s", [&] {
            return worstCaseSensingError(model, nodes,
                                         placement::uniformGrid(ev6, 3, 3));
        });
        return row;
    }

    Floorplan chip;
    Floorplan ev6;
    std::uint64_t cpuSeed = 0;
    std::vector<double> stepPowers;

    std::optional<StackModel> oilChip, airChip;
    std::vector<double> oilSteady, airSteady;
    double fitOil = 0.0;
    double fitLongAir = 0.0;

    std::vector<double> ev6Powers;
    std::vector<StackModel> gridModels;
    std::vector<std::vector<double>> gridNodes;
    std::vector<GridRow> rows;
    std::vector<double> inverted;
    std::size_t steadyIterations = 0;
};

} // namespace

std::unique_ptr<Workload>
makePackageTransients(std::uint64_t seed)
{
    return std::make_unique<PackageTransients>(seed);
}

} // namespace irbench
