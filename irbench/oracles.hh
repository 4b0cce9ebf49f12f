/**
 * @file
 * Independent references the benchmark checks the program against:
 * dense LU on the assembled network (steady state and a fine-step
 * backward-Euler replay) and the steady residual recomputed from the
 * conductance matrix. They share no solver code with the fast paths.
 */

#ifndef IRBENCH_ORACLES_HH
#define IRBENCH_ORACLES_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "core/stack_model.hh"
#include "numeric/lu.hh"

namespace irbench
{

/** Steady node temperatures (K) from dense LU of G (T - amb) = P. */
std::vector<double> luSteadyNodes(const irtherm::StackModel &model,
                                  const std::vector<double> &blockPowers);

/**
 * ||G (T - amb) - P||_2 / ||P||_2 for node temperatures @p nodes (K),
 * with G and P rebuilt from the model.
 */
double steadyResidual(const irtherm::StackModel &model,
                      const std::vector<double> &nodes,
                      const std::vector<double> &blockPowers);

/**
 * Backward-Euler replay of C dT/dt = P - G (T - amb) on the dense
 * network: every window of length dt is taken in @p substeps equal
 * implicit steps, each solved with one LU factorization.
 */
class DenseBeReplay
{
  public:
    DenseBeReplay(const irtherm::StackModel &model, double dt,
                  std::size_t substeps,
                  const std::vector<double> &initialNodes);

    /** Advance one window under @p blockPowers. */
    void window(const std::vector<double> &blockPowers);

    /** Per-block silicon temperatures (K). */
    std::vector<double> blockTemperatures() const;

  private:
    const irtherm::StackModel &model;
    std::vector<double> capOverH;
    std::size_t substeps;
    std::optional<irtherm::LuDecomposition> lu;
    std::vector<double> rise;
};

/** max_i |a_i - b_i|; infinity when the sizes differ. */
double maxAbsDiff(const std::vector<double> &a,
                  const std::vector<double> &b);

} // namespace irbench

#endif // IRBENCH_ORACLES_HH
