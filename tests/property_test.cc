/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * the whole configuration space — every flow direction, both
 * cooling kinds, secondary path on/off, and a sweep of grid
 * resolutions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/units.hh"
#include "core/config_io.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/grid_stencil.hh"
#include "numeric/impulse_cache.hh"
#include "numeric/iterative.hh"
#include "sweep/scenario.hh"

namespace irtherm
{
namespace
{

ModelOptions
gridOpts(std::size_t nx, std::size_t ny)
{
    ModelOptions o;
    o.mode = ModelMode::Grid;
    o.gridNx = nx;
    o.gridNy = ny;
    return o;
}

// ---------------------------------------------------------------------
// Properties over every (cooling kind, secondary path) combination.
// ---------------------------------------------------------------------

using PackageParam = std::tuple<CoolingKind, bool>;

class PackageProperty : public ::testing::TestWithParam<PackageParam>
{
  protected:
    PackageConfig
    makeConfig() const
    {
        const auto [kind, secondary] = GetParam();
        PackageConfig pkg = kind == CoolingKind::AirSink
                                ? PackageConfig::makeAirSink(1.0)
                                : PackageConfig::makeOilSilicon(10.0);
        pkg.secondary.enabled = secondary;
        return pkg;
    }
};

TEST_P(PackageProperty, EnergyBalanceHolds)
{
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 20.0;
    bp[fp.blockIndex("se")] = 3.0;

    const StackModel model(fp, makeConfig(), gridOpts(8, 8));
    const auto t = model.steadyNodeTemperatures(bp);
    EXPECT_NEAR(model.heatThroughPrimary(t) +
                    model.heatThroughSecondary(t),
                23.0, 23.0 * 1e-6);
}

TEST_P(PackageProperty, AmbientShiftIsPureOffset)
{
    // Linearity in the boundary condition: raising the ambient by
    // dT raises every temperature by exactly dT.
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    std::vector<double> bp(fp.blockCount(), 1.0);
    bp[fp.blockIndex("hot")] = 15.0;

    PackageConfig cold = makeConfig();
    cold.ambient = toKelvin(20.0);
    PackageConfig warm = makeConfig();
    warm.ambient = toKelvin(45.0);

    const StackModel m_cold(fp, cold, gridOpts(8, 8));
    const StackModel m_warm(fp, warm, gridOpts(8, 8));
    const auto t_cold = m_cold.steadyBlockTemperatures(bp);
    const auto t_warm = m_warm.steadyBlockTemperatures(bp);
    for (std::size_t b = 0; b < t_cold.size(); ++b)
        EXPECT_NEAR(t_warm[b] - t_cold[b], 25.0, 1e-6);
}

TEST_P(PackageProperty, PowerScalingIsLinear)
{
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 10.0;
    std::vector<double> bp3 = bp;
    bp3[fp.blockIndex("hot")] = 30.0;

    const StackModel model(fp, makeConfig(), gridOpts(8, 8));
    const double amb = model.packageConfig().ambient;
    const auto t1 = model.steadyBlockTemperatures(bp);
    const auto t3 = model.steadyBlockTemperatures(bp3);
    for (std::size_t b = 0; b < t1.size(); ++b)
        EXPECT_NEAR(t3[b] - amb, 3.0 * (t1[b] - amb), 1e-5);
}

TEST_P(PackageProperty, TransientApproachesSteadyMonotonically)
{
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 20.0;

    const StackModel model(fp, makeConfig());
    const double steady =
        model.steadyBlockTemperatures(bp)[fp.blockIndex("hot")];

    ThermalSimulator sim(model);
    sim.setBlockPowers(bp);
    double prev = model.packageConfig().ambient;
    for (int i = 0; i < 10; ++i) {
        sim.advance(0.2);
        const double now =
            sim.blockTemperatures()[fp.blockIndex("hot")];
        EXPECT_GE(now, prev - 1e-9); // heating never reverses
        EXPECT_LE(now, steady + 0.1); // never overshoots steady
        prev = now;
    }
}

TEST_P(PackageProperty, SteadyTemperaturesAboveAmbient)
{
    const Floorplan fp = floorplans::alphaEv6();
    std::vector<double> bp(fp.blockCount(), 0.5);
    const StackModel model(fp, makeConfig(), gridOpts(8, 8));
    const auto t = model.steadyNodeTemperatures(bp);
    for (double v : t)
        EXPECT_GE(v, model.packageConfig().ambient - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPackages, PackageProperty,
    ::testing::Combine(::testing::Values(CoolingKind::AirSink,
                                         CoolingKind::OilSilicon),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PackageParam> &info) {
        const CoolingKind kind = std::get<0>(info.param);
        const bool secondary = std::get<1>(info.param);
        return std::string(kind == CoolingKind::AirSink ? "Air"
                                                        : "Oil") +
               (secondary ? "WithSecondary" : "NoSecondary");
    });

// ---------------------------------------------------------------------
// Properties over every flow direction.
// ---------------------------------------------------------------------

class DirectionProperty
    : public ::testing::TestWithParam<FlowDirection>
{
};

TEST_P(DirectionProperty, TotalConvectionIndependentOfDirection)
{
    // Rotating the flow redistributes h(x) but conserves the total
    // conductance (the integral of h over the plate).
    const Floorplan fp = floorplans::uniformChip(2, 0.02, 0.02);
    const StackModel model(
        fp, PackageConfig::makeOilSilicon(10.0, GetParam()),
        gridOpts(16, 16));
    EXPECT_NEAR(model.equivalentPrimaryResistance(), 1.0, 0.01);
}

TEST_P(DirectionProperty, EnergyBalancePerDirection)
{
    const Floorplan fp = floorplans::uniformChip(2, 0.02, 0.02);
    const StackModel model(
        fp, PackageConfig::makeOilSilicon(10.0, GetParam()),
        gridOpts(8, 8));
    const std::vector<double> bp(fp.blockCount(), 5.0);
    const auto t = model.steadyNodeTemperatures(bp);
    EXPECT_NEAR(model.heatThroughPrimary(t) +
                    model.heatThroughSecondary(t),
                20.0, 20.0 * 1e-6);
}

TEST_P(DirectionProperty, DownstreamIsHotterThanUpstream)
{
    // Uniform power: whatever the direction, the downstream edge of
    // the die runs hotter than the leading edge.
    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    const FlowDirection dir = GetParam();
    const StackModel model(fp,
                           PackageConfig::makeOilSilicon(10.0, dir),
                           gridOpts(16, 16));
    const std::vector<double> bp(fp.blockCount(), 2.0);
    const auto temps = model.steadyBlockTemperatures(bp);

    auto block_temp = [&](const std::string &n) {
        return temps[fp.blockIndex(n)];
    };
    switch (dir) {
      case FlowDirection::LeftToRight:
        EXPECT_GT(block_temp("u3_1"), block_temp("u0_1"));
        break;
      case FlowDirection::RightToLeft:
        EXPECT_GT(block_temp("u0_1"), block_temp("u3_1"));
        break;
      case FlowDirection::BottomToTop:
        EXPECT_GT(block_temp("u1_3"), block_temp("u1_0"));
        break;
      case FlowDirection::TopToBottom:
        EXPECT_GT(block_temp("u1_0"), block_temp("u1_3"));
        break;
    }
}

TEST_P(DirectionProperty, MirrorSymmetryOfOpposedFlows)
{
    // A source under one flow must see the same temperature as the
    // mirrored source under the opposite flow: the x-mirror for
    // horizontal flows, the y-mirror for vertical ones.
    const FlowDirection dir = GetParam();
    FlowDirection opposite = FlowDirection::LeftToRight;
    switch (dir) {
      case FlowDirection::LeftToRight:
        opposite = FlowDirection::RightToLeft;
        break;
      case FlowDirection::RightToLeft:
        opposite = FlowDirection::LeftToRight;
        break;
      case FlowDirection::BottomToTop:
        opposite = FlowDirection::TopToBottom;
        break;
      case FlowDirection::TopToBottom:
        opposite = FlowDirection::BottomToTop;
        break;
    }
    const bool vertical = dir == FlowDirection::BottomToTop ||
                          dir == FlowDirection::TopToBottom;
    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    const std::size_t source = fp.blockIndex(vertical ? "u2_0" : "u0_2");
    const std::size_t mirror = fp.blockIndex(vertical ? "u2_3" : "u3_2");

    const StackModel m1(fp, PackageConfig::makeOilSilicon(10.0, dir),
                        gridOpts(12, 12));
    const StackModel m2(fp,
                        PackageConfig::makeOilSilicon(10.0, opposite),
                        gridOpts(12, 12));

    std::vector<double> p1(fp.blockCount(), 0.0);
    std::vector<double> p2(fp.blockCount(), 0.0);
    p1[source] = 10.0;
    p2[mirror] = 10.0;

    const auto t1 = m1.steadyBlockTemperatures(p1);
    const auto t2 = m2.steadyBlockTemperatures(p2);
    EXPECT_NEAR(t1[source], t2[mirror], 1e-6);
    EXPECT_NEAR(t1[mirror], t2[source], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllDirections, DirectionProperty,
    ::testing::Values(FlowDirection::LeftToRight,
                      FlowDirection::RightToLeft,
                      FlowDirection::BottomToTop,
                      FlowDirection::TopToBottom),
    [](const ::testing::TestParamInfo<FlowDirection> &info) {
        switch (info.param) {
          case FlowDirection::LeftToRight:
            return std::string("LeftToRight");
          case FlowDirection::RightToLeft:
            return std::string("RightToLeft");
          case FlowDirection::BottomToTop:
            return std::string("BottomToTop");
          case FlowDirection::TopToBottom:
            return std::string("TopToBottom");
        }
        return std::string("Unknown");
    });

// ---------------------------------------------------------------------
// Grid-refinement convergence.
// ---------------------------------------------------------------------

class GridConvergence : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GridConvergence, HotSpotWithinBandOfReference)
{
    // The hot-spot temperature at resolution n must lie within a
    // shrinking band around the fine-grid reference value.
    const std::size_t n = GetParam();
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    std::vector<double> bp(fp.blockCount(), 0.0);
    bp[fp.blockIndex("hot")] = 20.0;
    const PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);

    const StackModel fine(fp, pkg, gridOpts(40, 40));
    const auto ref_cells =
        fine.siliconCellTemperatures(fine.steadyNodeTemperatures(bp));
    const double ref =
        *std::max_element(ref_cells.begin(), ref_cells.end());

    const StackModel coarse(fp, pkg, gridOpts(n, n));
    const auto cells = coarse.siliconCellTemperatures(
        coarse.steadyNodeTemperatures(bp));
    const double value =
        *std::max_element(cells.begin(), cells.end());

    // Band tightens with resolution: ~18% at 8x8 down to ~4% at 32x32.
    const double band = 1.4 / static_cast<double>(n);
    EXPECT_NEAR(value, ref,
                band * (ref - coarse.packageConfig().ambient));
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridConvergence,
                         ::testing::Values(8, 12, 16, 24, 32),
                         [](const ::testing::TestParamInfo<std::size_t>
                                &info) {
                             return "N" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Validation properties: malformed input always surfaces as a
// catchable ConfigError — never an abort, never a half-applied state.
// ---------------------------------------------------------------------

TEST(ValidationProperty, MalformedConfigsAlwaysThrowConfigError)
{
    const char *broken[] = {
        "cooling plasma\n",
        "cooling\n",
        "ambient very_warm\n",
        "oil_velocity -3 extra\n",
        "grid_nx 0\n",
        "grid_nx 12.5\n",
        "model_mode sideways\n",
        "unknown_key 1\n",
        "ambient 45\nambient nan_or_bust\n",
    };
    for (const char *text : broken) {
        std::istringstream in(text);
        try {
            parseConfig(in);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const ConfigError &) {
            // The required class: deterministic user error.
        } catch (const std::exception &e) {
            ADD_FAILURE() << "wrong exception type for '" << text
                          << "': " << e.what();
        }
    }
}

TEST(ValidationProperty, FailedParseIsRepeatableAndNonSticky)
{
    // A parser that aborts or leaves global state behind would fail
    // this: after any number of rejected inputs, a good input still
    // parses to exactly the same config as a fresh parse.
    std::istringstream good1("cooling oil\noil_velocity 10\n");
    const SimulationConfig before = parseConfig(good1);
    for (int i = 0; i < 50; ++i) {
        std::istringstream bad("cooling plasma\n");
        EXPECT_THROW(parseConfig(bad), ConfigError);
    }
    std::istringstream good2("cooling oil\noil_velocity 10\n");
    const SimulationConfig after = parseConfig(good2);
    std::ostringstream a, b;
    writeConfig(a, before);
    writeConfig(b, after);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ValidationProperty, ScenarioRejectionLeavesTheSpecIntact)
{
    sweep::ScenarioSpec spec;
    spec.set("floorplan", "preset:ev6");
    spec.set("power.uniform", "0.5");
    const std::uint64_t hashBefore = spec.hash();

    // Sabotage with a bad key; resolve() must throw ConfigError and
    // leave the spec byte-identical (no partial mutation), so fixing
    // the key afterwards yields a working scenario.
    spec.set("config.cooling", "plasma");
    EXPECT_THROW(spec.resolve(), ConfigError);
    spec.set("config.cooling", "oil");
    spec.set("config.oil_velocity", "10");
    const sweep::ResolvedScenario r = spec.resolve();
    EXPECT_EQ(r.blockPowers.size(), r.floorplan.blockCount());

    sweep::ScenarioSpec clean;
    clean.set("floorplan", "preset:ev6");
    clean.set("power.uniform", "0.5");
    EXPECT_EQ(clean.hash(), hashBefore);
}

// ---------------------------------------------------------------------
// Multigrid-preconditioned CG vs the reference Jacobi-CG chain, over
// randomized grid dims and boundary conditions.
// ---------------------------------------------------------------------

/**
 * Random conductance stencil with irtherm's anisotropy patterns:
 * strong vertical links, weak (sometimes absent — film layers)
 * lateral links, ground stamps concentrated on the top plane plus a
 * sprinkling elsewhere. Always SPD: the top-plane grounds anchor
 * every column.
 */
GridStencilOperator
randomAnisotropicStencil(std::size_t nx, std::size_t ny,
                         std::size_t nz, Rng &rng)
{
    GridStencilOperator op(nx, ny, nz);
    // Some layers drop lateral links entirely (film layers).
    std::vector<bool> lateral(nz);
    for (std::size_t iz = 0; iz < nz; ++iz)
        lateral[iz] = rng.uniform() > 0.25;
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                if (lateral[iz]) {
                    if (ix + 1 < nx)
                        op.stampLinkX(ix, iy, iz,
                                      rng.uniform(0.05, 1.5));
                    if (iy + 1 < ny)
                        op.stampLinkY(ix, iy, iz,
                                      rng.uniform(0.05, 1.5));
                }
                if (iz + 1 < nz)
                    op.stampLinkZ(ix, iy, iz, rng.uniform(1.0, 8.0));
                if (iz == nz - 1)
                    op.stampGround(ix, iy, iz,
                                   rng.uniform(0.05, 0.8));
                else if (rng.uniform() < 0.1)
                    op.stampGround(ix, iy, iz,
                                   rng.uniform(0.005, 0.05));
            }
        }
    }
    return op;
}

TEST(MultigridProperty, MgCgMatchesReferenceCgAcrossRandomGrids)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const std::size_t nx = 3 + rng.index(18);
        const std::size_t ny = 3 + rng.index(18);
        const std::size_t nz = 1 + rng.index(7);
        const GridStencilOperator op =
            randomAnisotropicStencil(nx, ny, nz, rng);
        std::vector<double> b(op.rows());
        for (double &v : b)
            v = rng.gaussian(0.0, 1.0);

        IterativeOptions mg;
        mg.preconditioner = PreconditionerKind::Multigrid;
        mg.tolerance = 1e-12;
        mg.maxIterations = 2000;
        const IterativeResult viaMg = conjugateGradient(op, b, {}, mg);

        IterativeOptions jac;
        jac.preconditioner = PreconditionerKind::Jacobi;
        jac.tolerance = 1e-12;
        jac.maxIterations = 200000;
        const IterativeResult ref = conjugateGradient(op, b, {}, jac);

        ASSERT_TRUE(viaMg.converged)
            << nx << "x" << ny << "x" << nz << " seed " << seed;
        ASSERT_TRUE(ref.converged);
        double diff2 = 0.0, ref2 = 0.0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            const double d = viaMg.x[i] - ref.x[i];
            diff2 += d * d;
            ref2 += ref.x[i] * ref.x[i];
        }
        EXPECT_LE(std::sqrt(diff2), 1e-6 * std::sqrt(ref2))
            << nx << "x" << ny << "x" << nz << " seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Impulse-response superposition vs the direct iterative solve.
// ---------------------------------------------------------------------

/** Clear the process-wide impulse cache around each test. */
class ImpulseCacheGuard
{
  public:
    ImpulseCacheGuard() { ImpulseResponseCache::global().clear(); }
    ~ImpulseCacheGuard() { ImpulseResponseCache::global().clear(); }
};

TEST(SuperpositionProperty, MatchesDirectSolveForRandomPowers)
{
    const ImpulseCacheGuard cacheGuard;
    const Floorplan fp = floorplans::alphaEv6();
    const StackModel model(fp, PackageConfig::makeAirSink(1.0));

    Rng rng(31);
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> powers(fp.blockCount());
        for (double &w : powers)
            w = rng.uniform(0.0, 4.0);

        const std::vector<double> direct =
            model.steadyNodeTemperatures(powers);

        StackModel::SteadySolveOptions sopts;
        sopts.superposition = true;
        sopts.stackKey = 0xfeedbeef;
        StackModel::SteadySolveInfo info;
        const std::vector<double> fast =
            model.steadyNodeTemperatures(powers, sopts, &info);

        EXPECT_EQ(info.method, "superposition");
        // First trial builds the response matrix, the rest hit.
        EXPECT_EQ(info.impulseCacheHit, trial > 0);
        ASSERT_EQ(fast.size(), direct.size());
        for (std::size_t i = 0; i < direct.size(); ++i)
            EXPECT_NEAR(fast[i], direct[i],
                        1e-6 * std::abs(direct[i] - 300.0) + 1e-9)
                << "node " << i << " trial " << trial;
    }
}

TEST(SuperpositionProperty, LeakageFixedPointMatchesDirect)
{
    const ImpulseCacheGuard cacheGuard;
    const Floorplan fp = floorplans::alphaEv6();
    const StackModel model(fp, PackageConfig::makeAirSink(1.0));

    // Temperature-dependent leakage iterated to a fixed point, once
    // with direct solves and once through the superposition path;
    // both must land on the same equilibrium.
    const double beta = 0.015, refTemp = 345.0;
    const std::size_t iterations = 5;
    auto fixedPoint = [&](bool superpose) {
        std::vector<double> dynamic(fp.blockCount(), 1.5);
        std::vector<double> temps(fp.blockCount(), 345.0);
        for (std::size_t it = 0; it < iterations; ++it) {
            std::vector<double> total = dynamic;
            for (std::size_t b = 0; b < total.size(); ++b)
                total[b] += 0.2 * (1.0 + beta * (temps[b] - refTemp));
            StackModel::SteadySolveOptions sopts;
            sopts.superposition = superpose;
            sopts.stackKey = superpose ? 0xabad1dea : 0;
            const std::vector<double> nodes =
                model.steadyNodeTemperatures(total, sopts);
            temps = model.blockTemperatures(nodes);
        }
        return temps;
    };

    const std::vector<double> direct = fixedPoint(false);
    const std::vector<double> fast = fixedPoint(true);
    ASSERT_EQ(direct.size(), fast.size());
    for (std::size_t b = 0; b < direct.size(); ++b)
        EXPECT_NEAR(fast[b], direct[b], 1e-6)
            << fp.block(b).name;
}

// ---------------------------------------------------------------------
// Impulse cache eviction under the byte bound.
// ---------------------------------------------------------------------

TEST(ImpulseCacheProperty, EvictionHonorsByteBound)
{
    const std::size_t nodes = 1000, blocks = 4;
    auto build = [&] {
        auto m = std::make_shared<ImpulseResponseMatrix>();
        m->nodes = nodes;
        m->blocks = blocks;
        m->values.assign(nodes * blocks, 1.0);
        return m;
    };
    const std::size_t each = build()->bytes();

    // Room for three matrices but not four.
    ImpulseResponseCache cache(3 * each + each / 2);
    for (std::uint64_t key = 1; key <= 6; ++key) {
        const auto m = cache.acquire(key, build);
        ASSERT_NE(m, nullptr);
        EXPECT_LE(cache.bytesInUse(), 3 * each + each / 2);
        EXPECT_LE(cache.entryCount(), 3u);
    }
    // LRU: the three most recent keys survive, older ones rebuilt.
    bool hit = false;
    cache.acquire(6, build, &hit);
    EXPECT_TRUE(hit);
    cache.acquire(1, build, &hit);
    EXPECT_FALSE(hit);

    // A matrix larger than the whole capacity is returned but never
    // retained.
    ImpulseResponseCache tiny(each / 2);
    const auto big = tiny.acquire(9, build);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(tiny.entryCount(), 0u);
    EXPECT_EQ(tiny.bytesInUse(), 0u);

    // Shrinking the bound evicts immediately.
    cache.setCapacityBytes(each + each / 2);
    EXPECT_LE(cache.entryCount(), 1u);
    EXPECT_LE(cache.bytesInUse(), each + each / 2);
}

} // namespace
} // namespace irtherm
