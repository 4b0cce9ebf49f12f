/**
 * @file
 * Transient thermal simulation driver.
 *
 * Owns the temperature state of a StackModel and advances it under a
 * piecewise-constant block power vector — the access pattern of both
 * the paper's warm-up / pulse experiments and the DTM trace replay
 * (one power sample per interval, temperatures read back between
 * intervals).
 *
 * Block-mode networks step exactly in the eigenbasis of the RC
 * network (numeric/modal_propagator.hh): the state lives in modal
 * coordinates, an advance costs O(n) for any dt, and only the rows a
 * caller reads are mapped back. Grid-mode networks are too large for
 * a dense basis and use backward Euler with a fixed step. HotSpot's
 * adaptive RK4 stays selectable as the explicit reference.
 */

#ifndef IRTHERM_CORE_SIMULATOR_HH
#define IRTHERM_CORE_SIMULATOR_HH

#include <memory>
#include <vector>

#include "core/stack_model.hh"
#include "numeric/modal_propagator.hh"
#include "numeric/ode.hh"
#include "obs/metrics.hh"

namespace irtherm
{

/** Integrator selection for ThermalSimulator. */
enum class IntegratorKind
{
    Auto,          ///< Modal for block mode, backward Euler for grid
    AdaptiveRk4,   ///< HotSpot's explicit scheme (reference)
    BackwardEuler,
    Modal,         ///< exact eigenbasis stepping; symmetric networks only
};

/** Simulation options. */
struct SimulatorOptions
{
    IntegratorKind integrator = IntegratorKind::Auto;
    Rk4Options rk4;
    /** Fixed step for backward Euler (s). */
    double implicitStep = 1e-3;
};

/**
 * Stateful transient simulator over a StackModel.
 *
 * Temperatures start at ambient (or at a steady state via
 * initializeSteady) and evolve under setBlockPowers / advance.
 */
class ThermalSimulator
{
  public:
    /**
     * Throws ConfigError when IntegratorKind::Modal, requested or
     * picked by Auto, meets an advective (non-symmetric) model or one
     * above ModalBasis::kMaxNodes nodes.
     */
    explicit ThermalSimulator(const StackModel &model,
                              const SimulatorOptions &opts = {});

    /** The integrator Auto resolved to (never Auto). */
    IntegratorKind integrator() const { return kind; }

    /** Reset all nodes to ambient and time to zero. */
    void reset();

    /**
     * Set the state to the steady solution of @p block_powers and
     * reset time to zero. This is the paper's procedure for the
     * short-term oscillation experiments (Figs. 8, 9, 12).
     */
    void initializeSteady(const std::vector<double> &block_powers);

    /** Set the power vector held until the next call. */
    void setBlockPowers(const std::vector<double> &block_powers);

    /** Advance the state by @p dt seconds under the current powers. */
    void advance(double dt);

    /** Simulated time since construction / last reset (s). */
    double time() const { return now; }

    /** Per-block silicon temperatures (kelvin, absolute). */
    std::vector<double> blockTemperatures() const;

    /** All node temperatures (kelvin, absolute). */
    std::vector<double> nodeTemperatures() const;

    /** Hottest silicon cell temperature (kelvin). */
    double maxSiliconTemperature() const;

    /** Coolest silicon cell temperature (kelvin). */
    double minSiliconTemperature() const;

    const StackModel &model() const { return stack; }

  private:
    /** Silicon-layer temperatures, one per partition cell (K). */
    std::vector<double> siliconCells() const;

    const StackModel &stack;
    SimulatorOptions opts;
    IntegratorKind kind;
    /**
     * Node temperature rise above ambient. Stale once the modal path
     * is live: the state then lives in modalState.
     */
    std::vector<double> rise;
    /** Node power vector for the current block powers. */
    std::vector<double> nodePower;
    double now = 0.0;

    std::unique_ptr<Rk4Integrator> rk4;
    std::unique_ptr<BackwardEulerIntegrator> be;
    /**
     * Modal path, created on the first advance (the model builds its
     * basis then, not in steady-only use). While set, the state is
     * modalState = Uᵀ C rise and the forcing modalForcing = Uᵀ P.
     */
    std::unique_ptr<ModalPropagator> modal;
    std::vector<double> modalState;
    std::vector<double> modalForcing;

    // Phase timings and progress (process-wide aggregates).
    obs::Counter &advancesMetric;
    obs::Timer &advanceTimer;
    obs::Timer &steadyInitTimer;
    obs::Gauge &simTimeGauge;
};

} // namespace irtherm

#endif // IRTHERM_CORE_SIMULATOR_HH
