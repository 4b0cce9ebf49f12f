/**
 * @file
 * Time integrators for the linear thermal ODE  C dT/dt = P - G T.
 *
 * Three step-by-step integrators with different stability/cost
 * tradeoffs (block-mode networks default to the exact modal
 * propagator of numeric/modal_propagator.hh instead):
 *
 *  - Rk4Integrator: explicit adaptive Runge-Kutta 4 with step
 *    doubling, the classic HotSpot scheme, kept as the explicit
 *    reference. Its step is bounded by the fastest mode, so a stiff
 *    network (ms die modes under a minutes-long sink) costs many
 *    rejected steps; numeric.rk4.stiff_advances counts advances that
 *    rejected more than 30% of their trial steps, and the first one
 *    logs a warning.
 *  - BackwardEulerIntegrator: L-stable implicit method with a fixed
 *    step; unconditionally stable on stiff grid-mode networks. Its
 *    system matrix never changes, so it is factored once by a sparse
 *    direct solver (numeric/sparse_factor.hh) and each step is two
 *    triangular solves.
 *  - CrankNicolsonIntegrator: second-order implicit; used by the
 *    reference FD solver so that validation runs through an
 *    independent scheme. It accepts a stored CsrMatrix or a
 *    matrix-free GridStencilOperator, builds its preconditioner once
 *    in the constructor and reuses it — together with a persistent CG
 *    workspace and rhs scratch — for every step.
 *
 * The steady advance() loops allocate nothing.
 *
 * Power is held constant across one advance() call, matching how the
 * simulator drives the network (one power vector per trace sample).
 */

#ifndef IRTHERM_NUMERIC_ODE_HH
#define IRTHERM_NUMERIC_ODE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/grid_stencil.hh"
#include "numeric/iterative.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"
#include "numeric/sparse_factor.hh"
#include "obs/metrics.hh"

namespace irtherm
{

/** Tuning knobs for the adaptive RK4 integrator. */
struct Rk4Options
{
    double absTolerance = 1e-3;     ///< accepted per-step error (K)
    double minStep = 1e-9;          ///< smallest sub-step (s)
    double initialStep = 1e-5;      ///< first sub-step guess (s)
};

/**
 * Adaptive explicit RK4 with step doubling.
 *
 * Each trial step is computed once at h and once as two steps of
 * h/2; the Richardson difference estimates the local error and the
 * step is grown or shrunk to track the tolerance.
 */
class Rk4Integrator
{
  public:
    /**
     * @param g            conductance matrix (kept by reference;
     *                     must outlive the integrator)
     * @param capacitance  per-node thermal capacitance, all > 0
     */
    Rk4Integrator(const CsrMatrix &g, std::vector<double> capacitance,
                  const Rk4Options &opts = {});

    /** Advance @p temps by @p dt seconds under constant @p power. */
    void advance(std::vector<double> &temps,
                 const std::vector<double> &power, double dt);

    /** Sub-steps taken across all advance() calls (diagnostics). */
    std::size_t totalSteps() const { return steps; }

  private:
    /** out = invC .* (power - G temps) */
    void derivative(const std::vector<double> &temps,
                    const std::vector<double> &power,
                    std::vector<double> &out);

    /** One classical RK4 step of size h from y into out. */
    void rk4Step(const std::vector<double> &y,
                 const std::vector<double> &power, double h,
                 std::vector<double> &out);

    const CsrMatrix &g;
    std::vector<double> invC;
    Rk4Options opts;
    double lastStep;
    std::size_t steps = 0;

    // Scratch reused across every sub-step; advance() swaps rather
    // than copies, so the steady loop allocates nothing.
    std::vector<double> k1, k2, k3, k4, tmp;
    std::vector<double> full, half, half2;

    // Process-wide telemetry (aggregated across all instances).
    obs::Counter &stepsMetric;
    obs::Counter &rejectedMetric;
    obs::Histogram &stepSizeHist;
    obs::Histogram &errorHist;
    /** Advances that rejected > 30% of their trial steps. */
    obs::Counter &stiffMetric;
};

/**
 * Backward Euler with a fixed step:
 *   (C/dt + G) T_{n+1} = (C/dt) T_n + P
 * The system matrix is formed once; the first step() factors it
 * (fill-reducing ordering plus LDLᵀ, or LDU on the same pattern for
 * an advective network) and every step is two triangular solves on
 * that factor. The factor belongs to the integrator and is freed
 * with it.
 */
class BackwardEulerIntegrator
{
  public:
    /**
     * The first step() throws NumericError when C/dt + G has a
     * pivot that is not positive and finite (neither SPD nor
     * diagonally dominant).
     */
    BackwardEulerIntegrator(const CsrMatrix &g,
                            std::vector<double> capacitance, double dt);

    /** Fixed step size this integrator was built for. */
    double stepSize() const { return dt; }

    /** Advance exactly one step of stepSize(). */
    void step(std::vector<double> &temps,
              const std::vector<double> &power);

    /**
     * Advance by @p duration, which must be an integer multiple of
     * dt (within 1e-6 relative tolerance); takes exactly
     * round(duration / dt) steps. A shortened partial final step is
     * not supported — a non-multiple duration is fatal().
     */
    void advance(std::vector<double> &temps,
                 const std::vector<double> &power, double duration);

  private:
    void factorSystem();

    CsrMatrix system;                      ///< C/dt + G until factored
    std::unique_ptr<SparseFactor> factor;  ///< built by the first step
    std::vector<double> capOverDt;
    double dt;
    std::vector<double> scratch;

    obs::Counter &solvesMetric;
    obs::Counter &factorizationsMetric;
    obs::Timer &factorTimer;
    obs::Gauge &fillGauge;
};

/**
 * Crank-Nicolson with a fixed step:
 *   (C/dt + G/2) T_{n+1} = (C/dt - G/2) T_n + P
 * The system matrix and its preconditioner are built once.
 */
class CrankNicolsonIntegrator
{
  public:
    /** @p g is kept by reference and must outlive the integrator. */
    CrankNicolsonIntegrator(const CsrMatrix &g,
                            std::vector<double> capacitance, double dt,
                            const IterativeOptions &solver = {});

    /** Matrix-free variant; @p g is copied (plain arrays). */
    CrankNicolsonIntegrator(const GridStencilOperator &g,
                            std::vector<double> capacitance, double dt,
                            const IterativeOptions &solver = {});

    double stepSize() const { return dt; }

    /** Advance exactly one step of stepSize(). */
    void step(std::vector<double> &temps,
              const std::vector<double> &power);

  private:
    void finishSetup();

    // G (explicit half of the rhs) and C/dt + G/2, each reachable
    // through the LinearOperator interface.
    std::unique_ptr<CsrOperator> gView;         ///< CSR path (views caller's g)
    std::unique_ptr<GridStencilOperator> gStencil; ///< stencil path (owned)
    CsrMatrix systemCsr;
    std::unique_ptr<CsrOperator> systemView;
    std::unique_ptr<GridStencilOperator> systemStencil;
    const LinearOperator *gOp = nullptr;
    const LinearOperator *system = nullptr;

    std::vector<double> capOverDt;
    double dt;
    IterativeOptions solverOpts;
    bool symmetric = true;            ///< CG vs BiCGSTAB dispatch

    std::unique_ptr<Preconditioner> precond; ///< built once (CG path)
    CgWorkspace ws;
    std::vector<double> rhs;

    obs::Counter &solvesMetric;
    obs::Histogram &iterationsHist;
};

/**
 * Return a copy of @p g with @p extra added to its diagonal.
 * Missing diagonal entries are created.
 */
CsrMatrix addDiagonal(const CsrMatrix &g, const std::vector<double> &extra);

} // namespace irtherm

#endif // IRTHERM_NUMERIC_ODE_HH
