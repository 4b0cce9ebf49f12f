/**
 * @file
 * Sparse direct factorization A = P^T L D U P for structurally
 * symmetric matrices that need no pivoting.
 *
 * The backward-Euler system C/dt + G of a thermal RC network never
 * changes during a run, so it is factored once and every step costs
 * two sparse triangular solves ("precompute once, reuse every step",
 * Kemper et al., arXiv 0709.1850). Four parts:
 *
 *  - Ordering: approximate minimum degree over a quotient graph of
 *    the symmetrized pattern (AMD's degree bound, element absorption
 *    and aggressive absorption; no supervariable detection, which a
 *    stacked grid network has little use for). Its memory is bounded
 *    by the pattern plus the live elements, i.e. by the factor's fill.
 *  - Symbolic: elimination tree and column counts of L, O(|L|).
 *  - Numeric: up-looking elimination on the symmetric pattern (each
 *    row of L and column of U is a sparse triangular solve over the
 *    elimination-tree reach of row k). A numerically symmetric matrix
 *    takes the LDLᵀ path and stores one triangle; an advective
 *    (upwind microchannel) matrix stores L and U separately on the
 *    same pattern.
 *  - Solve: one forward and one backward substitution.
 *
 * No pivoting: the callers factor SPD matrices or strictly row
 * diagonally dominant M-matrices, for which every pivot of Gaussian
 * elimination is positive in any symmetric ordering. A pivot that
 * comes out non-positive or non-finite means the matrix is not of
 * that kind, and the constructor throws NumericError naming the
 * node.
 */

#ifndef IRTHERM_NUMERIC_SPARSE_FACTOR_HH
#define IRTHERM_NUMERIC_SPARSE_FACTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/sparse.hh"

namespace irtherm
{

/**
 * Fill-reducing elimination order of the symmetrized pattern of the
 * square @p a: result[k] is the node eliminated k-th. Deterministic.
 */
std::vector<std::size_t> minimumDegreeOrdering(const CsrMatrix &a);

/** Factor of a square CsrMatrix; immutable once built. */
class SparseFactor
{
  public:
    /**
     * Order, analyze and factor @p a. Throws NumericError when a
     * pivot is not positive and finite; fatal() when @p a is not
     * square.
     */
    explicit SparseFactor(const CsrMatrix &a);

    /**
     * Overwrite @p x (the right-hand side) with the solution of
     * A x = b. @p scratch is resized to size() and clobbered; reusing
     * it across calls keeps the solve allocation-free.
     */
    void solve(std::vector<double> &x, std::vector<double> &scratch) const;

    std::size_t size() const { return perm.size(); }

    /** Entries of L strictly below the diagonal (U has as many). */
    std::size_t fill() const { return rowIdx.size(); }

    /** True when A was numerically symmetric (LDLᵀ, U = Lᵀ). */
    bool symmetric() const { return upper.empty(); }

    /** Wall time the ordering took (s). */
    double orderingSeconds() const { return orderSeconds; }

  private:
    std::vector<std::size_t> perm; ///< pivot k is node perm[k]
    // L by columns (unit diagonal implied); U by rows on the same
    // pattern: entry p of column j is L(rowIdx[p], j) = lower[p] and
    // U(j, rowIdx[p]) = upper[p] (or lower[p] when symmetric).
    std::vector<std::size_t> colStart;
    std::vector<std::uint32_t> rowIdx;
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<double> invDiag;   ///< 1 / D(k)
    double orderSeconds = 0.0;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_SPARSE_FACTOR_HH
