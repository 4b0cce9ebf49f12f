/**
 * @file
 * Fig. 7's time constants measured two independent ways, shared by
 * bench_fig07_time_constants and the `repro` test that asserts them:
 * fitted to a backward-Euler step response, and read exactly off the
 * eigenbasis of the model's RC network (1/λ of the matching mode).
 */

#ifndef IRTHERM_BENCH_FIG07_MODES_HH
#define IRTHERM_BENCH_FIG07_MODES_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "bench_common.hh"
#include "core/simulator.hh"
#include "core/stack_model.hh"
#include "numeric/fit.hh"
#include "numeric/modal_propagator.hh"

namespace irtherm::fig07
{

/** Uniform block powers summing to @p total_power. */
inline std::vector<double>
uniformPowers(const StackModel &model, double total_power)
{
    const std::size_t n = model.floorplan().blockCount();
    return std::vector<double>(n, total_power / static_cast<double>(n));
}

/** Time constants fitted to one simulated step response. */
struct StepFits
{
    double tau63 = 0.0; ///< time to 63.2% (the figure's convention)
    double tail = 0.0;  ///< log-linear fit to the late approach (one pole)
};

/**
 * Fit the block-mean response to a uniform @p total_power step from
 * ambient, sampled every @p dt over @p duration. The response is
 * integrated by backward Euler at @p implicit_step, not modally, so
 * the fits check the eigenbasis rather than restate it; BE's
 * first-order bias in a constant τ is about implicit_step / (2τ).
 */
inline StepFits
fitStepResponse(const StackModel &model, double total_power, double dt,
                double duration, double implicit_step)
{
    const std::vector<double> powers = uniformPowers(model, total_power);
    const double steady =
        bench::meanOf(model.steadyBlockTemperatures(powers));
    SimulatorOptions opts;
    opts.integrator = IntegratorKind::BackwardEuler;
    opts.implicitStep = implicit_step;
    ThermalSimulator sim(model, opts);
    sim.setBlockPowers(powers);
    std::vector<double> times{0.0};
    std::vector<double> values{model.packageConfig().ambient};
    for (double t = dt; t <= duration + 1e-12; t += dt) {
        sim.advance(dt);
        times.push_back(t);
        values.push_back(bench::meanOf(sim.blockTemperatures()));
    }
    StepFits f;
    f.tau63 = timeToFraction(times, values, steady, 0.632);
    // Once the faster modes have died out, the approach to steady
    // state is the slowest mode alone.
    const double tailStart = std::min(3.0 * f.tau63, 0.5 * duration);
    std::vector<double> tailTimes, tailValues;
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] >= tailStart) {
            tailTimes.push_back(times[i]);
            tailValues.push_back(values[i]);
        }
    }
    f.tail = fitExponential(tailTimes, tailValues, steady).tau;
    return f;
}

/** Exact dominant constant: 1/λ of the slowest mode. */
inline double
slowestModeTau(const StackModel &model)
{
    return 1.0 / model.modalBasis()->eigenvalues().front();
}

/**
 * Exact short-term constant: 1/λ of the mode a uniform step excites
 * (>= 0.1% of the silicon-mean rise) whose C-weighted energy sits
 * most in the die. That is the die heating against its package, the
 * mode Eq. 5 approximates by Rsi * Csi.
 *
 * From rest, the silicon mean under node power p rises as
 * Σ_k a_k (1 - e^{-λ_k t}) with a_k = (wᵀ u_k)(u_kᵀ p) / λ_k, w the
 * silicon-mean readout; mode k holds Σ_{i in die} c_i u_ik² of its
 * (unit) C-weighted energy in the die.
 */
inline double
dieModeTau(const StackModel &model)
{
    const ModalBasis &basis = *model.modalBasis();
    const std::size_t n = basis.size();
    const std::size_t begin = model.siliconNodeBegin();
    const std::size_t end = begin + model.partitionCells();
    const std::vector<double> &cap = model.capacitance();
    const std::vector<double> p = model.nodePowerVector(
        std::vector<double>(model.floorplan().blockCount(), 1.0));

    std::vector<double> amp(n), share(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        double readout = 0.0, forcing = 0.0, energy = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            forcing += basis.mode(i, k) * p[i];
        for (std::size_t i = begin; i < end; ++i) {
            const double u = basis.mode(i, k);
            readout += u;
            energy += cap[i] * u * u;
        }
        amp[k] = readout / static_cast<double>(end - begin) * forcing /
                 basis.eigenvalues()[k];
        share[k] = energy;
        total += amp[k];
    }
    std::size_t best = 0;
    double bestShare = -1.0;
    for (std::size_t k = 0; k < n; ++k) {
        if (std::abs(amp[k]) >= 1e-3 * total && share[k] > bestShare) {
            best = k;
            bestShare = share[k];
        }
    }
    return 1.0 / basis.eigenvalues()[best];
}

} // namespace irtherm::fig07

#endif // IRTHERM_BENCH_FIG07_MODES_HH
