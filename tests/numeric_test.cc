/**
 * @file
 * Unit tests for the numeric module: dense/sparse matrices, LU, CG,
 * Gauss-Seidel, integrators, exponential fitting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/fit.hh"
#include "numeric/iterative.hh"
#include "numeric/lu.hh"
#include "numeric/ode.hh"
#include "numeric/sparse.hh"

namespace irtherm
{
namespace
{

TEST(DenseMatrix, IdentityMultiply)
{
    const DenseMatrix id = DenseMatrix::identity(3);
    const std::vector<double> x = {1.0, -2.0, 3.0};
    const std::vector<double> y = id.multiply(x);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(DenseMatrix, TransposeAndProduct)
{
    DenseMatrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;
    const DenseMatrix at = a.transposed();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at(2, 1), 6.0);

    const DenseMatrix ata = at.multiply(a); // 3x3
    // (A^T A)(0,0) = 1 + 16 = 17
    EXPECT_DOUBLE_EQ(ata(0, 0), 17.0);
    // Symmetric by construction.
    EXPECT_DOUBLE_EQ(ata(0, 2), ata(2, 0));
}

TEST(Lu, SolvesKnownSystem)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    LuDecomposition lu(a);
    const std::vector<double> x =
        lu.solve(std::vector<double>{5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
    EXPECT_NEAR(lu.determinant(), 5.0, 1e-12);
}

TEST(Lu, PivotsZeroDiagonal)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    LuDecomposition lu(a);
    const std::vector<double> x =
        lu.solve(std::vector<double>{2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RejectsSingular)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW(LuDecomposition lu(a), FatalError);
}

TEST(Lu, RandomRoundTrip)
{
    const std::size_t n = 25;
    DenseMatrix a(n, n);
    // Deterministic pseudo-random diagonally bumped matrix.
    unsigned state = 12345;
    auto next = [&]() {
        state = state * 1103515245u + 12345u;
        return static_cast<double>((state >> 16) & 0x7fff) / 32768.0;
    };
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = next() + (i == j ? 5.0 : 0.0);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i)
        x_true[i] = next() - 0.5;
    const std::vector<double> b = a.multiply(x_true);
    LuDecomposition lu(a);
    const std::vector<double> x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Sparse, BuilderMergesDuplicates)
{
    SparseBuilder sb(2, 2);
    sb.add(0, 0, 1.0);
    sb.add(0, 0, 2.0);
    sb.add(1, 1, 4.0);
    const CsrMatrix m = sb.build();
    EXPECT_EQ(m.nonZeros(), 2u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Sparse, ConductanceStampIsSymmetric)
{
    SparseBuilder sb(3, 3);
    sb.stampConductance(0, 1, 2.0);
    sb.stampConductance(1, 2, 3.0);
    sb.stampGroundConductance(2, 1.0);
    const CsrMatrix m = sb.build();
    EXPECT_TRUE(m.isSymmetric(1e-14));
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.at(2, 2), 4.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(Sparse, MultiplyMatchesDense)
{
    SparseBuilder sb(3, 3);
    sb.stampConductance(0, 1, 1.0);
    sb.stampConductance(0, 2, 2.0);
    sb.stampGroundConductance(1, 0.5);
    const CsrMatrix m = sb.build();
    const std::vector<double> x = {1.0, 2.0, 3.0};
    const std::vector<double> y = m.multiply(x);
    // Row 0: 3*1 - 1*2 - 2*3 = -5
    EXPECT_DOUBLE_EQ(y[0], -5.0);
    // Row 1: -1*1 + 1.5*2 = 2
    EXPECT_DOUBLE_EQ(y[1], 2.0);
    // Row 2: -2*1 + 2*3 = 4
    EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Sparse, NegativeConductanceRejected)
{
    SparseBuilder sb(2, 2);
    EXPECT_THROW(sb.stampConductance(0, 1, -1.0), FatalError);
    EXPECT_THROW(sb.stampGroundConductance(0, -0.1), FatalError);
}

/** Build a 1-D resistive chain with ground at both ends. */
CsrMatrix
chainMatrix(std::size_t n, double g)
{
    SparseBuilder sb(n, n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        sb.stampConductance(i, i + 1, g);
    sb.stampGroundConductance(0, g);
    sb.stampGroundConductance(n - 1, g);
    return sb.build();
}

TEST(Iterative, CgMatchesLuOnChain)
{
    const std::size_t n = 40;
    const CsrMatrix a = chainMatrix(n, 2.0);
    std::vector<double> b(n, 0.0);
    b[n / 2] = 10.0;

    const IterativeResult cg = conjugateGradient(a, b);
    ASSERT_TRUE(cg.converged);

    DenseMatrix ad(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            ad(i, j) = a.at(i, j);
    LuDecomposition lu(ad);
    const std::vector<double> x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(cg.x[i], x[i], 1e-8);
}

TEST(Iterative, CgWarmStartConvergesInstantly)
{
    const CsrMatrix a = chainMatrix(10, 1.0);
    std::vector<double> b(10, 1.0);
    const IterativeResult first = conjugateGradient(a, b);
    const IterativeResult again = conjugateGradient(a, b, first.x);
    EXPECT_TRUE(again.converged);
    EXPECT_LE(again.iterations, 1u);
}

TEST(Ode, AddDiagonalCreatesMissingEntries)
{
    SparseBuilder sb(2, 2);
    sb.stampConductance(0, 1, 1.0); // both diagonals exist
    CsrMatrix base = sb.build();
    const CsrMatrix out = addDiagonal(base, {0.5, 1.5});
    EXPECT_DOUBLE_EQ(out.at(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 2.5);
    EXPECT_DOUBLE_EQ(out.at(0, 1), -1.0);
}

/**
 * Single-node RC to ground: C dT/dt = P - g T.
 * Analytic: T(t) = (P/g)(1 - exp(-g t / C)).
 */
struct SingleRc
{
    CsrMatrix g;
    std::vector<double> cap;
    double conductance;
    double capacitance;

    SingleRc(double g_, double c_) : conductance(g_), capacitance(c_)
    {
        SparseBuilder sb(1, 1);
        sb.stampGroundConductance(0, g_);
        g = sb.build();
        cap = {c_};
    }

    double
    analytic(double p, double t) const
    {
        return p / conductance *
               (1.0 - std::exp(-conductance * t / capacitance));
    }
};

TEST(Ode, Rk4MatchesAnalyticRc)
{
    SingleRc rc(2.0, 0.5); // tau = 0.25 s
    Rk4Options opts;
    opts.absTolerance = 1e-6;
    Rk4Integrator rk4(rc.g, rc.cap, opts);
    std::vector<double> t = {0.0};
    const std::vector<double> p = {4.0};
    rk4.advance(t, p, 0.3);
    EXPECT_NEAR(t[0], rc.analytic(4.0, 0.3), 1e-5);
    rk4.advance(t, p, 0.7);
    EXPECT_NEAR(t[0], rc.analytic(4.0, 1.0), 1e-5);
}

TEST(Ode, BackwardEulerConvergesToSteady)
{
    SingleRc rc(2.0, 0.5);
    BackwardEulerIntegrator be(rc.g, rc.cap, 0.01);
    std::vector<double> t = {0.0};
    const std::vector<double> p = {4.0};
    be.advance(t, p, 5.0); // 20 tau
    EXPECT_NEAR(t[0], 2.0, 1e-6);
}

TEST(Ode, BackwardEulerFirstOrderAccuracy)
{
    SingleRc rc(1.0, 1.0);
    const std::vector<double> p = {1.0};

    auto err_at = [&](double dt) {
        BackwardEulerIntegrator be(rc.g, rc.cap, dt);
        std::vector<double> t = {0.0};
        be.advance(t, p, 1.0);
        return std::abs(t[0] - rc.analytic(1.0, 1.0));
    };
    const double e1 = err_at(0.1);
    const double e2 = err_at(0.05);
    // First order: halving dt roughly halves the error.
    EXPECT_NEAR(e1 / e2, 2.0, 0.4);
}

TEST(Ode, CrankNicolsonSecondOrderAccuracy)
{
    SingleRc rc(1.0, 1.0);
    const std::vector<double> p = {1.0};

    auto err_at = [&](double dt) {
        CrankNicolsonIntegrator cn(rc.g, rc.cap, dt);
        std::vector<double> t = {0.0};
        const auto steps = static_cast<std::size_t>(1.0 / dt);
        for (std::size_t i = 0; i < steps; ++i)
            cn.step(t, p);
        return std::abs(t[0] - rc.analytic(1.0, 1.0));
    };
    const double e1 = err_at(0.1);
    const double e2 = err_at(0.05);
    // Second order: halving dt quarters the error.
    EXPECT_NEAR(e1 / e2, 4.0, 1.0);
}

TEST(Ode, IntegratorsAgreeOnTwoNodeNetwork)
{
    SparseBuilder sb(2, 2);
    sb.stampConductance(0, 1, 1.0);
    sb.stampGroundConductance(1, 0.5);
    const CsrMatrix g = sb.build();
    const std::vector<double> cap = {0.2, 1.0};
    const std::vector<double> p = {1.0, 0.0};

    Rk4Options ro;
    ro.absTolerance = 1e-7;
    Rk4Integrator rk4(g, cap, ro);
    std::vector<double> t_rk = {0.0, 0.0};
    rk4.advance(t_rk, p, 0.5);

    BackwardEulerIntegrator be(g, cap, 1e-4);
    std::vector<double> t_be = {0.0, 0.0};
    be.advance(t_be, p, 0.5);

    EXPECT_NEAR(t_rk[0], t_be[0], 2e-3);
    EXPECT_NEAR(t_rk[1], t_be[1], 2e-3);
}

TEST(Ode, BackwardEulerRejectsNonMultipleDuration)
{
    SingleRc rc(1.0, 1.0);
    BackwardEulerIntegrator be(rc.g, rc.cap, 0.01);
    std::vector<double> t = {0.0};
    EXPECT_THROW(be.advance(t, {1.0}, 0.0153), FatalError);
}

TEST(Fit, RecoversExponentialTau)
{
    const double tau = 0.42;
    const double steady = 10.0;
    std::vector<double> times, values;
    for (int i = 0; i <= 100; ++i) {
        const double t = 0.02 * i;
        times.push_back(t);
        values.push_back(steady * (1.0 - std::exp(-t / tau)));
    }
    const ExponentialFit fit = fitExponential(times, values, steady);
    EXPECT_NEAR(fit.tau, tau, 1e-6);
    EXPECT_LT(fit.rmsError, 1e-9);
}

TEST(Fit, TimeToFractionLinearInterpolation)
{
    const std::vector<double> times = {0.0, 1.0, 2.0};
    const std::vector<double> values = {0.0, 4.0, 8.0};
    // Target 0.5 * 8 = 4 at t = 1 exactly.
    EXPECT_NEAR(timeToFraction(times, values, 8.0, 0.5), 1.0, 1e-12);
    // Target 0.25 * 8 = 2 interpolates to t = 0.5.
    EXPECT_NEAR(timeToFraction(times, values, 8.0, 0.25), 0.5, 1e-12);
}

TEST(Fit, TimeToFractionFallingResponse)
{
    const std::vector<double> times = {0.0, 1.0, 2.0};
    const std::vector<double> values = {10.0, 6.0, 2.0};
    // Steady 2, 63.2% of the drop: 10 - 0.632*8 = 4.944 -> t in (1,2).
    const double t = timeToFraction(times, values, 2.0, 0.632);
    EXPECT_GT(t, 1.0);
    EXPECT_LT(t, 2.0);
}

TEST(Fit, LinearityMetric)
{
    std::vector<double> x, y_lin, y_exp;
    for (int i = 0; i <= 50; ++i) {
        const double t = 0.02 * i;
        x.push_back(t);
        y_lin.push_back(3.0 * t + 1.0);
        y_exp.push_back(1.0 - std::exp(-8.0 * t));
    }
    EXPECT_NEAR(linearity(x, y_lin), 1.0, 1e-12);
    EXPECT_LT(linearity(x, y_exp), 0.95);
}

TEST(Fit, LineFitRecoversCoefficients)
{
    const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
    const auto [a, b] = fitLine(x, y);
    EXPECT_NEAR(a, 1.0, 1e-12);
    EXPECT_NEAR(b, 2.0, 1e-12);
}

} // namespace
} // namespace irtherm
