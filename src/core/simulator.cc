#include "core/simulator.hh"

#include <algorithm>

#include "base/errors.hh"
#include "base/logging.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

IntegratorKind
resolve(IntegratorKind requested, const StackModel &model)
{
    IntegratorKind kind = requested;
    if (kind == IntegratorKind::Auto) {
        kind = model.options().mode == ModelMode::Grid
                   ? IntegratorKind::BackwardEuler
                   : IntegratorKind::Modal;
    }
    if (kind != IntegratorKind::Modal)
        return kind;
    if (model.hasAdvection()) {
        configError("integrator 'modal' needs a symmetric network; "
                    "this model has advective (microchannel) coolant");
    }
    if (model.nodeCount() > ModalBasis::kMaxNodes) {
        configError("integrator 'modal' supports at most ",
                    ModalBasis::kMaxNodes, " nodes; this model has ",
                    model.nodeCount(), " (select 'be' or 'rk4')");
    }
    return kind;
}

/** Span label of a resolved integrator (never Auto). */
const char *
integratorName(IntegratorKind kind)
{
    switch (kind) {
    case IntegratorKind::AdaptiveRk4:
        return "rk4";
    case IntegratorKind::BackwardEuler:
        return "be";
    default:
        return "modal";
    }
}

} // namespace

ThermalSimulator::ThermalSimulator(const StackModel &model,
                                   const SimulatorOptions &opts_)
    : stack(model), opts(opts_), kind(resolve(opts_.integrator, model)),
      rise(model.nodeCount(), 0.0), nodePower(model.nodeCount(), 0.0),
      advancesMetric(obs::MetricsRegistry::global().counter(
          "core.simulator.advances")),
      advanceTimer(obs::MetricsRegistry::global().timer(
          "core.simulator.advance_time")),
      steadyInitTimer(obs::MetricsRegistry::global().timer(
          "core.simulator.steady_init_time")),
      simTimeGauge(obs::MetricsRegistry::global().gauge(
          "core.simulator.sim_time_s"))
{
    if (kind == IntegratorKind::AdaptiveRk4) {
        rk4 = std::make_unique<Rk4Integrator>(
            stack.conductance(), stack.capacitance(), opts.rk4);
    } else if (kind == IntegratorKind::BackwardEuler) {
        be = std::make_unique<BackwardEulerIntegrator>(
            stack.conductance(), stack.capacitance(),
            opts.implicitStep);
    }
}

void
ThermalSimulator::reset()
{
    std::fill(rise.begin(), rise.end(), 0.0);
    std::fill(nodePower.begin(), nodePower.end(), 0.0);
    if (modal) {
        std::fill(modalState.begin(), modalState.end(), 0.0);
        std::fill(modalForcing.begin(), modalForcing.end(), 0.0);
    }
    now = 0.0;
}

void
ThermalSimulator::initializeSteady(
    const std::vector<double> &block_powers)
{
    obs::ScopedTimer initTimer(steadyInitTimer);
    obs::ScopedSpan span("core.sim.steady_init");
    span.attr("nodes", stack.nodeCount());
    const std::vector<double> abs_temps =
        stack.steadyNodeTemperatures(block_powers);
    const double ambient = stack.packageConfig().ambient;
    for (std::size_t i = 0; i < rise.size(); ++i)
        rise[i] = abs_temps[i] - ambient;
    nodePower = stack.nodePowerVector(block_powers);
    if (modal) {
        modal->basis().toModal(rise, modalState);
        modal->basis().forcing(nodePower, modalForcing);
    }
    now = 0.0;
}

void
ThermalSimulator::setBlockPowers(const std::vector<double> &block_powers)
{
    nodePower = stack.nodePowerVector(block_powers);
    if (modal)
        modal->basis().forcing(nodePower, modalForcing);
}

void
ThermalSimulator::advance(double dt)
{
    if (dt <= 0.0)
        fatal("ThermalSimulator::advance: non-positive dt");
    obs::ScopedTimer stepTimer(advanceTimer);
    obs::ScopedSpan span("core.sim.advance");
    span.attr("dt_s", dt).attr("integrator", integratorName(kind));
    switch (kind) {
    case IntegratorKind::AdaptiveRk4:
        rk4->advance(rise, nodePower, dt);
        break;
    case IntegratorKind::BackwardEuler:
        be->advance(rise, nodePower, dt);
        break;
    default: // Modal; resolve() never yields Auto
        if (!modal) {
            modal = std::make_unique<ModalPropagator>(stack.modalBasis());
            modal->basis().toModal(rise, modalState);
            modal->basis().forcing(nodePower, modalForcing);
        }
        modal->advance(modalState, modalForcing, dt);
        break;
    }
    now += dt;
    advancesMetric.add();
    simTimeGauge.set(now);
}

std::vector<double>
ThermalSimulator::siliconCells() const
{
    const std::size_t begin = stack.siliconNodeBegin();
    std::vector<double> cells(stack.partitionCells());
    if (modal) {
        modal->basis().fromModal(modalState, begin, begin + cells.size(),
                                 cells.data());
    } else {
        std::copy_n(rise.begin() + static_cast<std::ptrdiff_t>(begin),
                    cells.size(), cells.begin());
    }
    const double ambient = stack.packageConfig().ambient;
    for (double &v : cells)
        v += ambient;
    return cells;
}

std::vector<double>
ThermalSimulator::blockTemperatures() const
{
    if (stack.options().mode == ModelMode::Block)
        return siliconCells();
    return stack.blockTemperatures(nodeTemperatures());
}

std::vector<double>
ThermalSimulator::nodeTemperatures() const
{
    std::vector<double> t(rise.size());
    if (modal)
        modal->basis().fromModal(modalState, 0, t.size(), t.data());
    else
        t = rise;
    const double ambient = stack.packageConfig().ambient;
    for (double &v : t)
        v += ambient;
    return t;
}

double
ThermalSimulator::maxSiliconTemperature() const
{
    const std::vector<double> cells = siliconCells();
    return *std::max_element(cells.begin(), cells.end());
}

double
ThermalSimulator::minSiliconTemperature() const
{
    const std::vector<double> cells = siliconCells();
    return *std::min_element(cells.begin(), cells.end());
}

} // namespace irtherm
