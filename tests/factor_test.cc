/**
 * @file
 * Differential tests of the sparse direct factorization behind
 * backward Euler: the factor against dense LU on seeded random RC
 * networks (symmetric and upwind-advective, including one-sided
 * stamps) and small grid stacks, factored BE against a dense-LU BE
 * replay on the EV6 16x16 grid under natural convection and under a
 * microchannel cold plate, the factor-once contract, and the
 * non-positive-pivot rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "base/errors.hh"
#include "base/rng.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/lu.hh"
#include "numeric/ode.hh"
#include "numeric/sparse.hh"
#include "numeric/sparse_factor.hh"
#include "obs/metrics.hh"

namespace irtherm
{
namespace
{

DenseMatrix
toDense(const CsrMatrix &a)
{
    DenseMatrix d(a.rows(), a.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t k = a.rowPointers()[r]; k < a.rowPointers()[r + 1];
             ++k)
            d(r, a.columnIndices()[k]) += a.storedValues()[k];
    return d;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

double
maxAbs(const std::vector<double> &a)
{
    double m = 0.0;
    for (double v : a)
        m = std::max(m, std::abs(v));
    return m;
}

/** A random RC network: conductances, grounds, capacitances and,
 *  when @p advective, one-sided upwind stamps (+m on the diagonal,
 *  -m to an upstream node that may share no conductance). */
struct RandomNetwork
{
    RandomNetwork(std::uint64_t seed, bool advective)
    {
        SplitMix64 rng(seed);
        const std::size_t n = 20 + rng.index(120);
        SparseBuilder b(n, n);
        for (std::size_t i = 1; i < n; ++i)
            b.stampConductance(i, rng.index(i), rng.uniform(0.1, 10.0));
        for (std::size_t e = 0; e < 2 * n; ++e) {
            const std::size_t i = rng.index(n), j = rng.index(n);
            if (i != j)
                b.stampConductance(i, j, rng.uniform(0.01, 5.0));
        }
        for (std::size_t g = 0; g < 1 + n / 10; ++g)
            b.stampGroundConductance(rng.index(n), rng.uniform(0.1, 2.0));
        if (advective) {
            for (std::size_t e = 0; e < n / 3; ++e) {
                const std::size_t i = rng.index(n), up = rng.index(n);
                if (i == up)
                    continue;
                const double m = rng.uniform(0.1, 20.0);
                b.add(i, i, m);
                b.add(i, up, -m);
            }
        }
        g = b.build();
        cap.resize(n);
        power.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            cap[i] = std::exp(rng.uniform(-6.0, 3.0)); // stiff spread
            power[i] = rng.uniform(0.0, 2.0);
        }
    }

    CsrMatrix g;
    std::vector<double> cap, power;
};

/** Dense-LU backward Euler: @p steps steps of @p dt from @p rise. */
std::vector<double>
denseBeReplay(const CsrMatrix &g, const std::vector<double> &cap,
              const std::vector<double> &power, std::vector<double> rise,
              double dt, std::size_t steps)
{
    const std::size_t n = cap.size();
    DenseMatrix a = toDense(g);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += cap[i] / dt;
    const LuDecomposition lu(a);
    std::vector<double> rhs(n);
    for (std::size_t s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < n; ++i)
            rhs[i] = cap[i] / dt * rise[i] + power[i];
        rise = lu.solve(rhs);
    }
    return rise;
}

std::vector<double>
factoredBeReplay(const CsrMatrix &g, const std::vector<double> &cap,
                 const std::vector<double> &power, std::vector<double> rise,
                 double dt, std::size_t steps)
{
    BackwardEulerIntegrator be(g, cap, dt);
    for (std::size_t s = 0; s < steps; ++s)
        be.step(rise, power);
    return rise;
}

TEST(SparseFactor, OrderingIsADeterministicPermutation)
{
    const RandomNetwork net(7, true);
    const std::vector<std::size_t> order = minimumDegreeOrdering(net.g);
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        ASSERT_EQ(sorted[i], i);
    EXPECT_EQ(minimumDegreeOrdering(net.g), order);
}

TEST(SparseFactor, SolveMatchesDenseLuOnRandomNetworks)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (const bool advective : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (advective ? " advective" : " symmetric"));
            const RandomNetwork net(seed, advective);
            const CsrMatrix a = addDiagonal(net.g, net.cap);
            const SparseFactor f(a);
            EXPECT_EQ(f.symmetric(), !advective);
            std::vector<double> x = net.power, scratch;
            f.solve(x, scratch);
            const std::vector<double> ref =
                LuDecomposition(toDense(a)).solve(net.power);
            EXPECT_LE(maxAbsDiff(x, ref), 1e-10 * maxAbs(ref));
        }
    }
}

TEST(FactoredBackwardEuler, MatchesDenseLuOnRandomGridStacks)
{
    const Floorplan ev6 = floorplans::alphaEv6();
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SplitMix64 rng(seed);
        mo.gridNx = 4 + rng.index(5);
        mo.gridNy = 4 + rng.index(5);
        const auto dir = static_cast<FlowDirection>(rng.index(4));
        const PackageConfig packages[] = {
            PackageConfig::makeAirSink(rng.uniform(0.3, 1.5)),
            PackageConfig::makeOilSilicon(rng.uniform(2.0, 15.0), dir),
            PackageConfig::makeMicrochannel(rng.uniform(0.5, 2.0), dir),
            PackageConfig::makeNaturalConvection(rng.uniform(5.0, 20.0)),
        };
        for (const PackageConfig &pkg : packages) {
            const StackModel model(ev6, pkg, mo);
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(model.nodeCount()) + " nodes" +
                         (model.hasAdvection() ? ", advective" : ""));
            std::vector<double> blocks(ev6.blockCount());
            for (double &w : blocks)
                w = rng.uniform(0.0, 3.0);
            const std::vector<double> p = model.nodePowerVector(blocks);
            const std::vector<double> zero(model.nodeCount(), 0.0);
            const double dt = std::exp(rng.uniform(-8.0, -2.0));
            const std::vector<double> ref = denseBeReplay(
                model.conductance(), model.capacitance(), p, zero, dt, 40);
            const std::vector<double> got = factoredBeReplay(
                model.conductance(), model.capacitance(), p, zero, dt, 40);
            EXPECT_LE(maxAbsDiff(got, ref), 1e-8);
        }
    }
}

/** The EV6 16x16 grid, steady at random block powers, then @p steps
 *  DVFS recovery steps at 1/8 power with dt = 0.5 ms. */
void
expectEv6RecoveryMatchesDenseLu(const PackageConfig &pkg, std::size_t steps)
{
    const Floorplan ev6 = floorplans::alphaEv6();
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 16;
    mo.gridNy = 16;
    const StackModel model(ev6, pkg, mo);
    SplitMix64 rng(2009);
    std::vector<double> hot(ev6.blockCount());
    for (double &w : hot)
        w = rng.uniform(0.5, 8.0);
    std::vector<double> cool = hot;
    for (double &w : cool)
        w *= 0.125;

    constexpr double kDt = 5e-4;
    SimulatorOptions so;
    so.integrator = IntegratorKind::BackwardEuler;
    so.implicitStep = kDt;
    ThermalSimulator sim(model, so);
    sim.initializeSteady(hot);
    const double ambient = model.packageConfig().ambient;
    std::vector<double> start = sim.nodeTemperatures();
    for (double &t : start)
        t -= ambient;
    sim.setBlockPowers(cool);
    for (std::size_t s = 0; s < steps; ++s)
        sim.advance(kDt);
    std::vector<double> got = sim.nodeTemperatures();
    for (double &t : got)
        t -= ambient;

    const std::vector<double> ref =
        denseBeReplay(model.conductance(), model.capacitance(),
                      model.nodePowerVector(cool), start, kDt, steps);
    EXPECT_GT(maxAbsDiff(ref, start), 1.0); // the die really cooled
    EXPECT_LE(maxAbsDiff(got, ref), 1e-8);
}

TEST(FactoredBackwardEuler, MatchesDenseLuOnEv6NaturalConvection)
{
    // 500 steps: where a CG solve per step (stopping at 1e-10 of a
    // rhs dominated by the heavy package nodes) drifted ~1e-3 K.
    expectEv6RecoveryMatchesDenseLu(
        PackageConfig::makeNaturalConvection(10.0, 40.0), 500);
}

TEST(FactoredBackwardEuler, MatchesDenseLuOnEv6Microchannel)
{
    expectEv6RecoveryMatchesDenseLu(
        PackageConfig::makeMicrochannel(1.0, FlowDirection::LeftToRight,
                                        40.0),
        100);
}

TEST(FactoredBackwardEuler, FactorsOncePerIntegrator)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    auto &reg = obs::MetricsRegistry::global();
    const RandomNetwork net(3, true);
    const std::uint64_t factorsBefore =
        reg.counter("numeric.be.factorizations").value();
    const std::uint64_t solvesBefore =
        reg.counter("numeric.be.solves").value();

    BackwardEulerIntegrator be(net.g, net.cap, 1e-3);
    EXPECT_EQ(reg.counter("numeric.be.factorizations").value(),
              factorsBefore); // lazily: nothing before the first step
    std::vector<double> t(net.cap.size(), 0.0);
    be.advance(t, net.power, 0.025);
    EXPECT_EQ(reg.counter("numeric.be.factorizations").value(),
              factorsBefore + 1);
    EXPECT_EQ(reg.counter("numeric.be.solves").value(), solvesBefore + 25);
    EXPECT_GT(reg.gaugeAt("numeric.be.factor_fill").value(), 0.0);
    EXPECT_GE(reg.timer("numeric.be.factor_seconds").count(), 1u);

    BackwardEulerIntegrator other(net.g, net.cap, 1e-3);
    other.step(t, net.power);
    EXPECT_EQ(reg.counter("numeric.be.factorizations").value(),
              factorsBefore + 2);
}

TEST(SparseFactor, NonPositivePivotThrowsNumericError)
{
    // [[1, 2], [2, 1]] is symmetric indefinite: the second pivot is -3.
    SparseBuilder b(2, 2);
    b.add(0, 0, 1.0);
    b.add(1, 1, 1.0);
    b.add(0, 1, 2.0);
    b.add(1, 0, 2.0);
    EXPECT_THROW(SparseFactor{b.build()}, NumericError);

    // A zero pivot (a node with no conductance and no capacitance).
    SparseBuilder z(3, 3);
    z.stampConductance(0, 1, 1.0);
    z.stampGroundConductance(0, 1.0);
    try {
        SparseFactor f(z.build());
        FAIL() << "expected NumericError";
    } catch (const NumericError &e) {
        EXPECT_NE(std::string(e.what()).find("node 2"), std::string::npos)
            << e.what();
    }

    // Through the integrator: a negative ground stamp makes C/dt + G
    // indefinite, which the first step (not the constructor) reports.
    SparseBuilder n(2, 2);
    n.stampConductance(0, 1, 1.0);
    n.add(1, 1, -50.0);
    BackwardEulerIntegrator be(n.build(), {1.0, 1.0}, 1.0);
    std::vector<double> t = {0.0, 0.0};
    EXPECT_THROW(be.step(t, {1.0, 1.0}), NumericError);
}

} // namespace
} // namespace irtherm
