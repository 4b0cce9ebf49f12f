/**
 * @file
 * Differential and metamorphic tests of the exact modal propagator
 * on seeded random block stacks (OIL, AIR, natural convection): the
 * eigenbasis against its defining equation, modal stepping against
 * itself (split steps), against a dense-LU backward-Euler replay and
 * against the steady solver, plus the lazy-build contract (once per
 * model across threads, never on steady-only paths).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/inversion.hh"
#include "base/errors.hh"
#include "base/rng.hh"
#include "core/package.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "floorplan/presets.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/lu.hh"
#include "numeric/modal_propagator.hh"
#include "obs/metrics.hh"
#include "sweep/plan.hh"
#include "sweep/runner.hh"

namespace irtherm
{
namespace
{

/** A die of 4-10 blocks from random guillotine cuts of a 8-16 mm die. */
Floorplan
randomFloorplan(SplitMix64 &rng)
{
    const double w = rng.uniform(0.008, 0.016);
    const double h = rng.uniform(0.008, 0.016);
    std::vector<Block> rects{{"b", 0.0, 0.0, w, h}};
    const std::size_t target = 4 + rng.index(7);
    while (rects.size() < target) {
        // Cut the largest rect across its longer side.
        auto it = std::max_element(rects.begin(), rects.end(),
                                   [](const Block &a, const Block &b) {
                                       return a.area() < b.area();
                                   });
        Block a = *it;
        Block b = a;
        const double f = rng.uniform(0.3, 0.7);
        if (a.width >= a.height) {
            a.width *= f;
            b.x = a.right();
            b.width -= a.width;
        } else {
            a.height *= f;
            b.y = a.top();
            b.height -= a.height;
        }
        *it = a;
        rects.push_back(b);
    }
    Floorplan fp;
    for (std::size_t i = 0; i < rects.size(); ++i) {
        rects[i].name = "b" + std::to_string(i);
        fp.addBlock(rects[i]);
    }
    return fp;
}

enum class Pkg
{
    Oil,
    Air,
    Natural
};

PackageConfig
randomPackage(SplitMix64 &rng, Pkg kind)
{
    switch (kind) {
    case Pkg::Oil:
        return PackageConfig::makeOilSilicon(
            rng.uniform(2.0, 15.0),
            static_cast<FlowDirection>(rng.index(4)));
    case Pkg::Air:
        return PackageConfig::makeAirSink(rng.uniform(0.3, 1.5));
    case Pkg::Natural:
        return PackageConfig::makeNaturalConvection(rng.uniform(5.0, 20.0));
    }
    return {};
}

/** Random block powers whose total heats the package by ~50 K. */
std::vector<double>
randomPowers(SplitMix64 &rng, const StackModel &model)
{
    std::vector<double> p(model.floorplan().blockCount());
    double sum = 0.0;
    for (double &w : p) {
        w = rng.uniform(0.0, 1.0);
        sum += w;
    }
    const double total = 50.0 / model.equivalentPrimaryResistance();
    for (double &w : p)
        w *= total / sum;
    return p;
}

/** One seeded random stack per (seed, package) case. */
struct Case
{
    std::uint64_t seed;
    Pkg pkg;
};

const Case kCases[] = {
    {11, Pkg::Oil},     {12, Pkg::Air},     {13, Pkg::Natural},
    {101, Pkg::Oil},    {102, Pkg::Air},    {103, Pkg::Natural},
};

std::string
caseName(const Case &c)
{
    static const char *const names[] = {"oil", "air", "natural"};
    return names[static_cast<int>(c.pkg)] + std::string(" seed ") +
           std::to_string(c.seed);
}

struct RandomStack
{
    explicit RandomStack(const Case &c)
        : rng(c.seed), fp(randomFloorplan(rng)),
          model(fp, randomPackage(rng, c.pkg)), p1(randomPowers(rng, model)),
          p2(randomPowers(rng, model))
    {
    }

    SplitMix64 rng;
    Floorplan fp;
    StackModel model;
    std::vector<double> p1, p2;
};

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

std::uint64_t
modalBuilds()
{
    return obs::MetricsRegistry::global()
        .counter("numeric.modal.builds")
        .value();
}

/** Dense-LU backward Euler over node rises, n substeps per window. */
std::vector<double>
denseBeReplay(const StackModel &model, std::vector<double> rise,
              const std::vector<double> &block_powers, double window,
              std::size_t substeps)
{
    const std::size_t n = model.nodeCount();
    const double h = window / static_cast<double>(substeps);
    DenseMatrix a(n, n);
    const CsrMatrix &g = model.conductance();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = g.rowPointers()[r]; k < g.rowPointers()[r + 1];
             ++k)
            a(r, g.columnIndices()[k]) += g.storedValues()[k];
        a(r, r) += model.capacitance()[r] / h;
    }
    const LuDecomposition lu(a);
    const std::vector<double> p = model.nodePowerVector(block_powers);
    std::vector<double> rhs(n);
    for (std::size_t s = 0; s < substeps; ++s) {
        for (std::size_t i = 0; i < n; ++i)
            rhs[i] = model.capacitance()[i] / h * rise[i] + p[i];
        rise = lu.solve(rhs);
    }
    return rise;
}

TEST(ModalBasis, SatisfiesGeneralizedEigenEquation)
{
    for (const Case &c : kCases) {
        SCOPED_TRACE(caseName(c));
        const RandomStack s(c);
        const ModalBasis basis(s.model.conductance(), s.model.capacitance());
        const std::size_t n = basis.size();
        ASSERT_EQ(n, s.model.nodeCount());
        const std::vector<double> &cap = s.model.capacitance();
        const double lambdaMax = basis.eigenvalues().back();
        EXPECT_GT(basis.eigenvalues().front(), 0.0);
        for (std::size_t k = 0; k + 1 < n; ++k)
            EXPECT_LE(basis.eigenvalues()[k], basis.eigenvalues()[k + 1]);

        std::vector<double> u(n), gu(n);
        for (std::size_t k = 0; k < n; ++k) {
            for (std::size_t i = 0; i < n; ++i)
                u[i] = basis.mode(i, k);
            std::fill(gu.begin(), gu.end(), 0.0);
            s.model.conductance().multiplyAccumulate(u, gu, 1.0);
            // ||C^-1/2 (G u - λ C u)||, a unit-norm residual of S.
            double res = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double r =
                    gu[i] - basis.eigenvalues()[k] * cap[i] * u[i];
                res += r * r / cap[i];
            }
            EXPECT_LE(std::sqrt(res), 1e-12 * lambdaMax) << "mode " << k;
        }
        // C-orthonormality: Uᵀ C U = I.
        for (std::size_t k = 0; k < n; k += 3) {
            for (std::size_t l = k; l < n; l += 5) {
                double dot = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    dot += basis.mode(i, k) * cap[i] * basis.mode(i, l);
                EXPECT_NEAR(dot, k == l ? 1.0 : 0.0, 1e-12);
            }
        }
    }
}

TEST(ModalPropagator, SplitStepsComposeExactly)
{
    for (const Case &c : kCases) {
        SCOPED_TRACE(caseName(c));
        const RandomStack s(c);
        const double tauMax = 1.0 / s.model.modalBasis()->eigenvalues()[0];
        const double a = 0.137 * tauMax;
        const double b = 0.291 * tauMax;

        ThermalSimulator split(s.model);
        ThermalSimulator whole(s.model);
        for (ThermalSimulator *sim : {&split, &whole}) {
            sim->initializeSteady(s.p1);
            sim->setBlockPowers(s.p2);
        }
        split.advance(a);
        split.advance(b);
        whole.advance(a + b);
        EXPECT_LE(maxAbsDiff(split.nodeTemperatures(),
                             whole.nodeTemperatures()),
                  1e-10);
        EXPECT_DOUBLE_EQ(split.time(), whole.time());
    }
}

TEST(ModalPropagator, MatchesDenseBackwardEulerAtFirstOrder)
{
    for (const Case &c : kCases) {
        SCOPED_TRACE(caseName(c));
        const RandomStack s(c);
        const double window =
            0.2 / s.model.modalBasis()->eigenvalues()[0];
        const double ambient = s.model.packageConfig().ambient;

        ThermalSimulator sim(s.model);
        sim.initializeSteady(s.p1);
        std::vector<double> start = sim.nodeTemperatures();
        for (double &t : start)
            t -= ambient;
        sim.setBlockPowers(s.p2);
        sim.advance(window);
        std::vector<double> exact = sim.nodeTemperatures();
        for (double &t : exact)
            t -= ambient;

        const double e1 = maxAbsDiff(
            denseBeReplay(s.model, start, s.p2, window, 1000), exact);
        const double e2 = maxAbsDiff(
            denseBeReplay(s.model, start, s.p2, window, 2000), exact);
        // Backward Euler converges to the exact step at first order.
        EXPECT_LT(e1, 1e-2);
        EXPECT_GT(e1 / e2, 1.8);
        EXPECT_LT(e1 / e2, 2.2);
    }
}

TEST(ModalPropagator, LongAdvanceReachesSteadyState)
{
    for (const Case &c : kCases) {
        SCOPED_TRACE(caseName(c));
        const RandomStack s(c);
        const double tauMax = 1.0 / s.model.modalBasis()->eigenvalues()[0];
        ThermalSimulator sim(s.model);
        sim.setBlockPowers(s.p1);
        sim.advance(50.0 * tauMax);
        EXPECT_LE(maxAbsDiff(sim.nodeTemperatures(),
                             s.model.steadyNodeTemperatures(s.p1)),
                  1e-8);
        EXPECT_LE(maxAbsDiff(sim.blockTemperatures(),
                             s.model.steadyBlockTemperatures(s.p1)),
                  1e-8);
    }
}

TEST(ModalPropagator, ResetAndSteadyInitMapThroughModalState)
{
    const RandomStack s(kCases[1]);
    ThermalSimulator sim(s.model);
    sim.setBlockPowers(s.p1);
    sim.advance(1.0); // the modal state is live from here on
    sim.initializeSteady(s.p2);
    EXPECT_LE(maxAbsDiff(sim.nodeTemperatures(),
                         s.model.steadyNodeTemperatures(s.p2)),
              1e-9);
    sim.advance(0.5); // steady under p2 is a fixed point
    EXPECT_LE(maxAbsDiff(sim.blockTemperatures(),
                         s.model.steadyBlockTemperatures(s.p2)),
              1e-9);
    sim.reset();
    for (double t : sim.nodeTemperatures())
        EXPECT_DOUBLE_EQ(t, s.model.packageConfig().ambient);
}

TEST(ModalPropagator, AutoSelectionAndRejections)
{
    const Floorplan fp = floorplans::uniformChip(2, 0.01, 0.01);
    const StackModel block(fp, PackageConfig::makeOilSilicon(5.0));
    EXPECT_EQ(ThermalSimulator(block).integrator(), IntegratorKind::Modal);

    ModelOptions grid;
    grid.mode = ModelMode::Grid;
    grid.gridNx = 4;
    grid.gridNy = 4;
    const StackModel channel(fp, PackageConfig::makeMicrochannel(1.0),
                             grid);
    ASSERT_TRUE(channel.hasAdvection());
    EXPECT_EQ(ThermalSimulator(channel).integrator(),
              IntegratorKind::BackwardEuler);
    SimulatorOptions modal;
    modal.integrator = IntegratorKind::Modal;
    EXPECT_THROW(ThermalSimulator(channel, modal), ConfigError);
    EXPECT_THROW(channel.modalBasis(), ConfigError);

    // Above the node limit Modal is refused up front, before any
    // O(n³) build: explicitly on the default 32x32 grid, and under
    // Auto on a block model of many blocks.
    const StackModel defaultGrid(fp, PackageConfig::makeOilSilicon(5.0),
                                 ModelOptions{.mode = ModelMode::Grid});
    ASSERT_GT(defaultGrid.nodeCount(), ModalBasis::kMaxNodes);
    EXPECT_THROW(ThermalSimulator(defaultGrid, modal), ConfigError);
    const StackModel manyBlocks(floorplans::uniformChip(24, 0.02, 0.02),
                                PackageConfig::makeOilSilicon(5.0));
    ASSERT_GT(manyBlocks.nodeCount(), ModalBasis::kMaxNodes);
    EXPECT_THROW(ThermalSimulator{manyBlocks}, ConfigError);
    SimulatorOptions rk4;
    rk4.integrator = IntegratorKind::AdaptiveRk4;
    EXPECT_EQ(ThermalSimulator(manyBlocks, rk4).integrator(),
              IntegratorKind::AdaptiveRk4);

    // Explicit Modal on a small symmetric grid agrees with fine BE.
    const StackModel oilGrid(fp, PackageConfig::makeOilSilicon(5.0), grid);
    const std::vector<double> p{3.0, 1.0, 2.0, 0.5};
    SimulatorOptions be;
    be.integrator = IntegratorKind::BackwardEuler;
    be.implicitStep = 1e-4;
    ThermalSimulator exact(oilGrid, modal), implicit(oilGrid, be);
    for (ThermalSimulator *sim : {&exact, &implicit}) {
        sim->setBlockPowers(p);
        sim->advance(0.05);
    }
    EXPECT_LE(maxAbsDiff(exact.blockTemperatures(),
                         implicit.blockTemperatures()),
              0.05);
    EXPECT_NEAR(exact.maxSiliconTemperature(),
                implicit.maxSiliconTemperature(), 0.05);
}

TEST(ModalPropagator, SharedModelBuildsItsBasisOnce)
{
    const RandomStack s(kCases[0]);
    const std::uint64_t before = modalBuilds();
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const ModalBasis>> seen(kThreads);
    std::vector<std::vector<double>> temps(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ThermalSimulator sim(s.model);
            sim.setBlockPowers(s.p1);
            ++ready;
            while (ready.load() < kThreads) {
            }
            sim.advance(0.25);
            temps[t] = sim.blockTemperatures();
            seen[t] = s.model.modalBasis();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]);
        EXPECT_EQ(temps[t], temps[0]);
    }
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(modalBuilds(), before + 1);
    }
}

TEST(ModalPropagator, SteadyOnlyPathsNeverBuildABasis)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    const std::uint64_t before = modalBuilds();

    const RandomStack s(kCases[1]);
    s.model.steadyBlockTemperatures(s.p1);
    ThermalSimulator sim(s.model);
    sim.initializeSteady(s.p1);
    sim.setBlockPowers(s.p2);
    sim.blockTemperatures();
    sim.maxSiliconTemperature();
    sim.nodeTemperatures();
    sim.reset();
    PowerInversion inv(s.model);
    inv.estimatePowers(s.model.steadyBlockTemperatures(s.p2));

    // A block-mode steady sweep, superposed and iterative.
    using namespace sweep;
    const SweepPlan plan = SweepPlan::parse(
        R"({"base": {"floorplan": "preset:ev6", "power.uniform": 0.5},
            "scenarios": [{"name": "a"},
                          {"name": "b", "power.uniform": 0.7}]})",
        "steady");
    SweepOptions opts;
    opts.outDir = (std::filesystem::path(::testing::TempDir()) /
                   "irtherm_propagator_steady_sweep")
                      .string();
    std::filesystem::remove_all(opts.outDir);
    opts.workers = 1;
    const SweepSummary sum = runSweep(plan, opts);
    EXPECT_EQ(sum.ok, 2u);

    EXPECT_EQ(modalBuilds(), before);
}

TEST(Rk4Integrator, FlagsStiffAdvances)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // Fig. 7's AIR-SINK chip: millisecond die modes under a sink that
    // takes minutes, the stiffness the modal path removes.
    const Floorplan fp = floorplans::uniformChip(4, 0.02, 0.02);
    const StackModel air(fp, PackageConfig::makeAirSink(1.0, 22.0));
    obs::Counter &stiff =
        obs::MetricsRegistry::global().counter("numeric.rk4.stiff_advances");
    const std::uint64_t before = stiff.value();
    SimulatorOptions so;
    so.integrator = IntegratorKind::AdaptiveRk4;
    ThermalSimulator sim(air, so);
    sim.setBlockPowers(std::vector<double>(fp.blockCount(), 12.5));
    sim.advance(2.0);
    EXPECT_GT(stiff.value(), before);
}

} // namespace
} // namespace irtherm
