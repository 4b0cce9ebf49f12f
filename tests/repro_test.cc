/**
 * @file
 * Paper claims as executable oracles (ctest label `repro`).
 *
 * Fig. 7 at the paper's full sink mass: the AIR-SINK package spans
 * milliseconds (die against its package) to minutes (Rconv * C_sink),
 * OIL-SILICON has one dominant constant near a second. The exact
 * constants come from the eigenbasis of each model's RC network; the
 * fitted ones from backward-Euler step responses, which share nothing
 * with that basis. bench_fig07 prints both (bench/fig07_modes.hh).
 */

#include <gtest/gtest.h>

#include "core/package.hh"
#include "core/stack_model.hh"
#include "fig07_modes.hh"
#include "floorplan/presets.hh"

namespace irtherm
{
namespace
{

constexpr double kStepPowerW = 50.0;

TEST(ReproFig07, TimeConstantsAtFullSinkMass)
{
    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    const PackageConfig air = PackageConfig::makeAirSink(1.0, 22.0);
    PackageConfig oil = PackageConfig::makeOilSilicon(
        10.0, FlowDirection::LeftToRight, 22.0);
    oil.secondary.enabled = false; // Fig. 7's circuit: die + oil only
    const StackModel airModel(fp, air);
    const StackModel oilModel(fp, oil);

    const double exactShortAir = fig07::dieModeTau(airModel);
    const double exactOil = fig07::slowestModeTau(oilModel);
    const double exactLongAir = fig07::slowestModeTau(airModel);

    // Eq. 5 vs Eq. 6: Rconv >> Rth,Si puts two orders of magnitude
    // between the oil constant and the AIR short-term one.
    EXPECT_GE(exactOil / exactShortAir, 50.0);
    const double eq5 = airModel.siliconVerticalResistance() *
                       airModel.siliconCapacitance();
    EXPECT_GT(exactShortAir, 0.5 * eq5);
    EXPECT_LT(exactShortAir, 3.0 * eq5);

    // BE at about tau/600 (OIL) and tau/2300 (AIR): bias h/(2 tau)
    // stays under 0.1%.
    const fig07::StepFits oilFit =
        fig07::fitStepResponse(oilModel, kStepPowerW, 0.02, 4.0, 1e-3);
    const fig07::StepFits airFit =
        fig07::fitStepResponse(airModel, kStepPowerW, 2.0, 500.0, 0.1);

    // The long AIR path: Rconv times all the mass behind it (sink,
    // lumped convection capacitance, spreader, die).
    const AirSinkSpec &sink = air.airSink;
    const double cLong =
        sink.sinkMaterial.volumetricHeatCapacity * sink.sinkSide *
            sink.sinkSide * sink.sinkThickness +
        sink.convectionCapacitance +
        sink.spreaderMaterial.volumetricHeatCapacity * sink.spreaderSide *
            sink.spreaderSide * sink.spreaderThickness +
        airModel.siliconCapacitance();
    const double rcLong = airModel.equivalentPrimaryResistance() * cLong;
    EXPECT_NEAR(airFit.tau63 / rcLong, 1.0, 0.10);

    // Each fitted decay is its slowest mode to 1%. The 63% time sits
    // below it: faster modes carry part of the rise.
    EXPECT_NEAR(oilFit.tail / exactOil, 1.0, 0.01);
    EXPECT_NEAR(airFit.tail / exactLongAir, 1.0, 0.01);
    EXPECT_LT(oilFit.tau63, exactOil);
    EXPECT_LT(airFit.tau63, exactLongAir);
    EXPECT_GT(exactLongAir / exactOil, 100.0);
}

} // namespace
} // namespace irtherm
