/**
 * @file
 * Transient-simulator tests: convergence to steady state, the
 * paper's time-constant orderings (Fig. 6-8), and integrator
 * equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/fit.hh"
#include "obs/metrics.hh"

namespace irtherm
{
namespace
{

/** Fig. 6 style fixture: a 4.2x4.2 mm hot block on a 20 mm die. */
struct WarmupSetup
{
    Floorplan fp;
    std::vector<double> powers;

    WarmupSetup()
        : fp(floorplans::hotBlockChip(0.02, 0.02, 0.0042, 0.0042, 0.01,
                                      0.01)),
          powers(fp.blockCount(), 0.0)
    {
        // 2 W/mm^2 on the hot block, as in the paper's Fig. 6.
        powers[fp.blockIndex("hot")] = 2.0e6 * 0.0042 * 0.0042;
    }
};

TEST(Simulator, StartsAtAmbient)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    ThermalSimulator sim(model);
    for (double t : sim.blockTemperatures())
        EXPECT_DOUBLE_EQ(t, model.packageConfig().ambient);
    EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}

TEST(Simulator, ConvergesToSteadyState)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    const std::vector<double> steady =
        model.steadyBlockTemperatures(s.powers);

    ThermalSimulator sim(model);
    sim.setBlockPowers(s.powers);
    sim.advance(20.0); // many oil time constants
    const std::vector<double> t = sim.blockTemperatures();
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_NEAR(t[i], steady[i], 0.2);
}

TEST(Simulator, InitializeSteadyMatchesSolver)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeAirSink(1.0));
    ThermalSimulator sim(model);
    sim.initializeSteady(s.powers);
    const std::vector<double> expect =
        model.steadyBlockTemperatures(s.powers);
    const std::vector<double> got = sim.blockTemperatures();
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], expect[i], 1e-6);
}

TEST(Simulator, SteadyStateIsFixedPoint)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    ThermalSimulator sim(model);
    sim.initializeSteady(s.powers);
    const std::vector<double> before = sim.blockTemperatures();
    sim.advance(0.5);
    const std::vector<double> after = sim.blockTemperatures();
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(after[i], before[i], 1e-3);
}

TEST(Simulator, OilWarmsUpFasterThanAirSink)
{
    // Paper Fig. 6: OIL-SILICON reaches its steady state much sooner
    // (small oil capacitance vs the massive copper sink).
    const WarmupSetup s;
    PackageConfig air = PackageConfig::makeAirSink(1.0, 22.0);
    PackageConfig oil =
        PackageConfig::makeOilSilicon(10.0, FlowDirection::LeftToRight,
                                      22.0);

    auto fraction_of_steady = [&](const PackageConfig &pkg) {
        const StackModel model(s.fp, pkg);
        const double steady =
            model.steadyBlockTemperatures(s.powers)
                [s.fp.blockIndex("hot")];
        ThermalSimulator sim(model);
        sim.setBlockPowers(s.powers);
        sim.advance(3.0);
        const double now =
            sim.blockTemperatures()[s.fp.blockIndex("hot")];
        const double amb = pkg.ambient;
        return (now - amb) / (steady - amb);
    };

    const double oil_frac = fraction_of_steady(oil);
    const double air_frac = fraction_of_steady(air);
    EXPECT_GT(oil_frac, 0.95); // oil essentially settled at 3 s
    EXPECT_LT(air_frac, 0.75); // the sink is still warming up
}

TEST(Simulator, AirSinkHasInstantInitialJump)
{
    // Fig. 6's "instant jump": within a few ms the AIR-SINK die rises
    // by a visible fraction of the silicon-local response while the
    // sink stays cold.
    const WarmupSetup s;
    const StackModel model(s.fp,
                           PackageConfig::makeAirSink(1.0, 22.0));
    ThermalSimulator sim(model);
    sim.setBlockPowers(s.powers);
    sim.advance(0.010);
    const double rise =
        sim.blockTemperatures()[s.fp.blockIndex("hot")] -
        model.packageConfig().ambient;
    EXPECT_GT(rise, 1.0); // several K in the first 10 ms
}

TEST(Simulator, ShortTermResponseSlowerUnderOil)
{
    // Paper Fig. 8 / Eq. 5-6: after a power step from the hot steady
    // state, the AIR-SINK die moves much faster over the first
    // milliseconds than the OIL-SILICON die.
    const WarmupSetup s;

    // The paper's Sec. 5.2 notes the *absolute* rates of change are
    // comparable; what differs is the fraction of each package's own
    // excursion completed in a few milliseconds (Eq. 5 vs Eq. 6).
    auto fraction_completed = [&](const PackageConfig &pkg) {
        const StackModel model(s.fp, pkg);
        const std::size_t hot = s.fp.blockIndex("hot");
        // Steady at the 15%-duty average power (the paper's trace).
        std::vector<double> avg = s.powers;
        for (double &p : avg)
            p *= 0.15;
        const double start =
            model.steadyBlockTemperatures(avg)[hot];
        const double full =
            model.steadyBlockTemperatures(s.powers)[hot];

        ThermalSimulator sim(model);
        sim.initializeSteady(avg);
        sim.setBlockPowers(s.powers); // full power burst
        sim.advance(0.003);           // 3 ms, the paper's AIR scale
        const double now = sim.blockTemperatures()[hot];
        return (now - start) / (full - start);
    };

    const double air_frac =
        fraction_completed(PackageConfig::makeAirSink(1.0, 22.0));
    const double oil_frac =
        fraction_completed(PackageConfig::makeOilSilicon(
            10.0, FlowDirection::LeftToRight, 22.0));

    EXPECT_GT(air_frac, 0.0);
    EXPECT_GT(oil_frac, 0.0);
    // AIR-SINK covers several times more of its excursion in 3 ms.
    EXPECT_GT(air_frac, 3.0 * oil_frac);
}

TEST(Simulator, ShortTermTimeConstantsMatchFig7)
{
    // Eq. 5: tau_short,sink = Rsi * Csi. Eq. 6: tau_oil =
    // Rconv * (Csi + Coil). Check the derived constants have the
    // paper's two-orders-of-magnitude separation.
    const WarmupSetup s;
    const StackModel air(s.fp, PackageConfig::makeAirSink(1.0));
    const StackModel oil(s.fp, PackageConfig::makeOilSilicon(10.0));

    const double tau_air =
        air.siliconVerticalResistance() * air.siliconCapacitance();
    const double tau_oil =
        oil.equivalentPrimaryResistance() *
        (oil.siliconCapacitance() + oil.oilCapacitance());

    EXPECT_NEAR(tau_air, 0.0125 * 0.35, 0.2 * 0.0125 * 0.35);
    EXPECT_GT(tau_oil / tau_air, 50.0);
    // The paper quotes an oil time constant "on the order of a
    // second" (Fig. 2).
    EXPECT_GT(tau_oil, 0.2);
    EXPECT_LT(tau_oil, 2.0);
}

TEST(Simulator, BackwardEulerMatchesRk4OnSameModel)
{
    // Integrator equivalence: adaptive RK4 and backward Euler must
    // agree on the same network (the spatial discretizations are
    // compared elsewhere at matched resolution).
    const WarmupSetup s;
    PackageConfig oil = PackageConfig::makeOilSilicon(10.0);
    const StackModel model(s.fp, oil);

    SimulatorOptions rk4so;
    rk4so.integrator = IntegratorKind::AdaptiveRk4;
    ThermalSimulator rk4(model, rk4so);
    rk4.setBlockPowers(s.powers);
    rk4.advance(1.0);

    SimulatorOptions so;
    so.integrator = IntegratorKind::BackwardEuler;
    so.implicitStep = 2e-4;
    ThermalSimulator be(model, so);
    be.setBlockPowers(s.powers);
    be.advance(1.0);

    const auto t1 = rk4.blockTemperatures();
    const auto t2 = be.blockTemperatures();
    for (std::size_t i = 0; i < t1.size(); ++i)
        EXPECT_NEAR(t1[i], t2[i], 0.5) << s.fp.block(i).name;
}

TEST(Simulator, MaxMinSiliconTemperatureBracketsBlocks)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    ThermalSimulator sim(model);
    sim.setBlockPowers(s.powers);
    sim.advance(0.5);
    const std::vector<double> t = sim.blockTemperatures();
    const double lo = *std::min_element(t.begin(), t.end());
    const double hi = *std::max_element(t.begin(), t.end());
    EXPECT_LE(sim.minSiliconTemperature(), lo + 1e-9);
    EXPECT_GE(sim.maxSiliconTemperature(), hi - 1e-9);
}

TEST(Simulator, ResetReturnsToAmbient)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    ThermalSimulator sim(model);
    sim.setBlockPowers(s.powers);
    sim.advance(0.1);
    sim.reset();
    EXPECT_DOUBLE_EQ(sim.time(), 0.0);
    for (double t : sim.blockTemperatures())
        EXPECT_DOUBLE_EQ(t, model.packageConfig().ambient);
}

TEST(Simulator, RejectsNonPositiveDt)
{
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeAirSink(1.0));
    ThermalSimulator sim(model);
    EXPECT_THROW(sim.advance(0.0), FatalError);
    EXPECT_THROW(sim.advance(-1.0), FatalError);
}

TEST(Simulator, AdvancePopulatesGlobalMetrics)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const WarmupSetup s;
    const StackModel model(s.fp, PackageConfig::makeOilSilicon(10.0));
    SimulatorOptions rk4so;
    rk4so.integrator = IntegratorKind::AdaptiveRk4;
    ThermalSimulator sim(model, rk4so);
    sim.setBlockPowers(s.powers);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const std::uint64_t advances_before =
        reg.counter("core.simulator.advances").value();
    const std::uint64_t steps_before =
        reg.counter("numeric.rk4.steps").value();

    sim.advance(1e-3);

    EXPECT_TRUE(reg.has("core.simulator.advances"));
    EXPECT_TRUE(reg.has("core.simulator.advance_time"));
    EXPECT_TRUE(reg.has("core.simulator.sim_time_s"));
    EXPECT_TRUE(reg.has("numeric.rk4.steps"));
    EXPECT_TRUE(reg.has("numeric.rk4.step_size_s"));
    EXPECT_TRUE(reg.has("numeric.rk4.error_estimate_k"));
    EXPECT_EQ(reg.counter("core.simulator.advances").value(),
              advances_before + 1);
    EXPECT_GT(reg.counter("numeric.rk4.steps").value(), steps_before);
    EXPECT_DOUBLE_EQ(reg.gaugeAt("core.simulator.sim_time_s").value(),
                     sim.time());

    // The grid/backward-Euler path registers its names on first use.
    SimulatorOptions so;
    so.integrator = IntegratorKind::BackwardEuler;
    so.implicitStep = 1e-3;
    ThermalSimulator besim(model, so);
    besim.setBlockPowers(s.powers);
    besim.advance(1e-3);
    EXPECT_TRUE(reg.has("numeric.be.solves"));
    EXPECT_TRUE(reg.has("numeric.be.factorizations"));
    EXPECT_TRUE(reg.has("numeric.be.factor_seconds"));
    EXPECT_TRUE(reg.has("numeric.be.factor_fill"));

    // Block mode under Auto steps modally: the first advance builds
    // the model's basis (one build, one mode per node); RK4 idles.
    const std::uint64_t builds_before =
        reg.counter("numeric.modal.builds").value();
    const std::uint64_t rk4_after = reg.counter("numeric.rk4.steps").value();
    ThermalSimulator modal(model);
    EXPECT_EQ(modal.integrator(), IntegratorKind::Modal);
    modal.setBlockPowers(s.powers);
    modal.advance(1e-3);
    modal.advance(1e-3);
    EXPECT_TRUE(reg.has("numeric.modal.build_seconds"));
    EXPECT_EQ(reg.counter("numeric.modal.builds").value(),
              builds_before + 1);
    EXPECT_EQ(reg.timerAt("numeric.modal.build_seconds").count(),
              reg.counter("numeric.modal.builds").value());
    EXPECT_DOUBLE_EQ(reg.gaugeAt("numeric.modal.modes").value(),
                     static_cast<double>(model.nodeCount()));
    EXPECT_EQ(reg.counter("numeric.rk4.steps").value(), rk4_after);
}

} // namespace
} // namespace irtherm
