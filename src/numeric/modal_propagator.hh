/**
 * @file
 * Exact modal propagator for the symmetric linear thermal ODE
 * C dT/dt = P - G T with C diagonal and positive.
 *
 * Between power changes the RC network is linear and time-invariant,
 * so one symmetric eigendecomposition of S = C^-1/2 G C^-1/2 = V Λ Vᵀ
 * (Householder tridiagonalization plus implicit QL, the EISPACK
 * tred2/tql2 pair) diagonalizes it. With U = C^-1/2 V the state in
 * modal coordinates z = Uᵀ C T obeys dz/dt = q - Λ z, q = Uᵀ P, whose
 * solution over a step h under constant power is
 *
 *   z_k <- e^{-λ_k h} z_k + (1 - e^{-λ_k h}) / λ_k * q_k,
 *
 * exact for any h and O(n) per step: no stability limit, no error
 * control, however stiff the network (Kemper et al., "Ultrafast
 * Temperature Profile Calculation in IC Chips"). The time constants
 * fall out as 1/λ_k.
 *
 * The basis costs O(n³) time and O(n²) memory to build, which suits
 * block-mode networks (tens to hundreds of nodes); grid-mode networks
 * keep the implicit integrators of numeric/ode.hh. ModalBasis::kMaxNodes
 * bounds what callers may ask for.
 */

#ifndef IRTHERM_NUMERIC_MODAL_PROPAGATOR_HH
#define IRTHERM_NUMERIC_MODAL_PROPAGATOR_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/sparse.hh"

namespace irtherm
{

/**
 * Eigenbasis of the pencil (G, C): G U = C U Λ with Uᵀ C U = I.
 * Immutable once built, so one instance is safely shared by every
 * simulator of a model.
 */
class ModalBasis
{
  public:
    /**
     * Largest network a simulator may step modally. Measured build
     * times (Release, 4-vCPU x86 VM): 0.1 s at 388 nodes, 1.2 s at 868,
     * 13 s at 1540; the default 32x32 grid (6-9k nodes) would take
     * many minutes and hold the model's build lock throughout.
     */
    static constexpr std::size_t kMaxNodes = 1024;

    /**
     * Decompose the symmetric @p g against the diagonal @p
     * capacitance (all > 0). Throws NumericError when the QL
     * iteration fails to converge; fatal() on a non-symmetric @p g.
     */
    ModalBasis(const CsrMatrix &g, const std::vector<double> &capacitance);

    std::size_t size() const { return lambda.size(); }

    /** Decay rates λ_k (1/s), ascending: eigenvalues()[0] is the
     *  slowest mode, 1/λ_0 the longest time constant. */
    const std::vector<double> &eigenvalues() const { return lambda; }

    /** Mode shape U(node, k); column k solves G u = λ_k C u. */
    double
    mode(std::size_t node, std::size_t k) const
    {
        return u[node * size() + k];
    }

    /** z = Uᵀ C x: node-space values into modal coordinates. */
    void toModal(const std::vector<double> &x,
                 std::vector<double> &z) const;

    /**
     * q = Uᵀ p: a node power vector into modal forcing. Zero entries
     * are skipped, so a block-mode power vector (nonzero on the
     * silicon rows only) costs O(blocks · n).
     */
    void forcing(const std::vector<double> &p,
                 std::vector<double> &q) const;

    /**
     * out[i - begin] = (U z)_i for nodes in [begin, end): map back
     * only the rows a caller reads, O((end - begin) · n).
     */
    void fromModal(const std::vector<double> &z, std::size_t begin,
                   std::size_t end, double *out) const;

  private:
    std::vector<double> lambda;
    std::vector<double> cap;
    /** U row-major: u[i * n + k] = V(i, k) / sqrt(c_i). */
    std::vector<double> u;
};

/**
 * Per-simulator stepping state over a shared ModalBasis. Callers
 * advance with a fixed dt, so the decay and gain factors of the last
 * step size are cached.
 */
class ModalPropagator
{
  public:
    explicit ModalPropagator(std::shared_ptr<const ModalBasis> basis);

    const ModalBasis &basis() const { return *basis_; }

    /** Advance modal state @p z by @p h under constant forcing @p q. */
    void advance(std::vector<double> &z, const std::vector<double> &q,
                 double h);

  private:
    std::shared_ptr<const ModalBasis> basis_;
    double cachedStep = 0.0;
    std::vector<double> decay; ///< e^{-λ_k h}
    std::vector<double> gain;  ///< (1 - e^{-λ_k h}) / λ_k
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_MODAL_PROPAGATOR_HH
