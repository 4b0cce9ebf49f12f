#include "numeric/sparse_factor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "base/errors.hh"
#include "base/logging.hh"

namespace irtherm
{

namespace
{

/**
 * Variables bucketed by approximate degree (doubly linked lists, as
 * in AMD): O(1) insert/remove, and the minimum only moves up between
 * inserts of smaller degrees.
 */
class DegreeLists
{
  public:
    explicit DegreeLists(std::size_t n)
        : head(n + 1, kNone), next(n, kNone), prev(n, kNone), degreeOf(n, 0)
    {
    }

    void
    insert(int v, int degree)
    {
        degreeOf[v] = degree;
        prev[v] = kNone;
        next[v] = head[degree];
        if (head[degree] != kNone)
            prev[head[degree]] = v;
        head[degree] = v;
        minDegree = std::min(minDegree, degree);
    }

    void
    remove(int v)
    {
        if (prev[v] != kNone)
            next[prev[v]] = next[v];
        else
            head[degreeOf[v]] = next[v];
        if (next[v] != kNone)
            prev[next[v]] = prev[v];
    }

    int
    popMin()
    {
        while (head[minDegree] == kNone)
            ++minDegree;
        const int v = head[minDegree];
        remove(v);
        return v;
    }

  private:
    static constexpr int kNone = -1;
    std::vector<int> head, next, prev, degreeOf;
    int minDegree = 0;
};

/**
 * Symmetric up to rounding: every stored a_ij within a few ulps of
 * a_ji. Stamped conductance matrices sum duplicate stamps in
 * different orders, so exact equality is too strict, while an
 * advective stamp differs from its mirror by the whole flow term.
 */
bool
symmetricToRounding(const CsrMatrix &a)
{
    constexpr double kUlps = 8.0 * std::numeric_limits<double>::epsilon();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
            const double mirror = a.at(ci[q], r);
            if (std::abs(av[q] - mirror) >
                kUlps * std::max(std::abs(av[q]), std::abs(mirror)))
                return false;
        }
    }
    return true;
}

} // namespace

std::vector<std::size_t>
minimumDegreeOrdering(const CsrMatrix &a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        fatal("minimumDegreeOrdering: matrix not square");
    if (n > static_cast<std::size_t>(std::numeric_limits<int>::max()))
        fatal("minimumDegreeOrdering: matrix too large");

    // Quotient graph. Node v is a variable until eliminated, then an
    // element whose members are the variables its elimination
    // coupled. vars[v]: adjacent variables not yet covered by an
    // element; elems[v]: adjacent live elements. Invariant: a live
    // element's members are all variables, and v is a member of e
    // exactly when e is in elems[v].
    std::vector<std::vector<int>> vars(n), elems(n), members(n);
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
            if (ci[k] == r)
                continue;
            vars[r].push_back(static_cast<int>(ci[k]));
            vars[ci[k]].push_back(static_cast<int>(r));
        }
    }
    DegreeLists buckets(n);
    std::vector<int> degree(n);
    for (std::size_t v = n; v-- > 0;) {
        std::sort(vars[v].begin(), vars[v].end());
        vars[v].erase(std::unique(vars[v].begin(), vars[v].end()),
                      vars[v].end());
        degree[v] = static_cast<int>(vars[v].size());
        buckets.insert(static_cast<int>(v), degree[v]);
    }

    std::vector<char> eliminated(n, 0), absorbed(n, 0);
    // mark[v] == k: variable v is in the pivot's element at step k.
    // stamp[e] == k: outside[e] holds |members(e) \ Lp| at step k.
    std::vector<std::size_t> mark(n, n), stamp(n, n);
    std::vector<int> outside(n, 0);
    std::vector<std::size_t> order;
    order.reserve(n);
    const auto release = [](std::vector<int> &list) {
        std::vector<int>().swap(list);
    };

    for (std::size_t k = 0; k < n; ++k) {
        const int p = buckets.popMin();
        order.push_back(static_cast<std::size_t>(p));
        eliminated[p] = 1;
        mark[p] = k;

        // The new element Lp: p's variables plus the members of every
        // element p touches; those elements are absorbed into it.
        std::vector<int> lp;
        const auto take = [&](int v) {
            if (!eliminated[v] && mark[v] != k) {
                mark[v] = k;
                lp.push_back(v);
            }
        };
        for (const int v : vars[p])
            take(v);
        for (const int e : elems[p]) {
            if (absorbed[e])
                continue;
            for (const int v : members[e])
                take(v);
            absorbed[e] = 1;
            release(members[e]);
        }
        release(vars[p]);
        release(elems[p]);

        // |Le \ Lp| for every live element next to Lp.
        for (const int i : lp) {
            buckets.remove(i);
            for (const int e : elems[i]) {
                if (absorbed[e])
                    continue;
                if (stamp[e] != k) {
                    stamp[e] = k;
                    outside[e] = static_cast<int>(members[e].size());
                }
                --outside[e];
            }
        }

        // Update each variable of Lp: drop absorbed elements (and
        // aggressively absorb those inside Lp), drop variables Lp now
        // covers, and bound the external degree as AMD does.
        const int lpOthers = static_cast<int>(lp.size()) - 1;
        const int remainingOthers = static_cast<int>(n - k) - 2;
        for (const int i : lp) {
            int elementDegree = 0;
            std::size_t keep = 0;
            for (const int e : elems[i]) {
                if (absorbed[e])
                    continue;
                if (outside[e] == 0) {
                    absorbed[e] = 1;
                    release(members[e]);
                    continue;
                }
                elems[i][keep++] = e;
                elementDegree += outside[e];
            }
            elems[i].resize(keep);
            elems[i].push_back(p);
            keep = 0;
            for (const int v : vars[i]) {
                if (!eliminated[v] && mark[v] != k)
                    vars[i][keep++] = v;
            }
            vars[i].resize(keep);
            const int bound = static_cast<int>(keep) + lpOthers +
                              elementDegree;
            degree[i] = std::max(
                0, std::min({bound, degree[i] + lpOthers, remainingOthers}));
            buckets.insert(i, degree[i]);
        }
        members[p] = std::move(lp);
    }
    return order;
}

SparseFactor::SparseFactor(const CsrMatrix &a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        fatal("SparseFactor: matrix not square");
    if (n > std::numeric_limits<std::uint32_t>::max())
        fatal("SparseFactor: matrix too large");

    const auto t0 = std::chrono::steady_clock::now();
    perm = minimumDegreeOrdering(a);
    orderSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    std::vector<std::size_t> inv(n);
    for (std::size_t k = 0; k < n; ++k)
        inv[perm[k]] = k;

    // The permuted matrix, gathered by its later index: for each k,
    // the entries (i, A(i,k), A(k,i)) with i < k, plus A(k,k). A
    // one-sided stored entry contributes 0 to its mirror, so the
    // pattern is symmetrized without a merge.
    const bool sym = symmetricToRounding(a);
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    std::vector<std::size_t> aStart(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t q = rp[r]; q < rp[r + 1]; ++q)
            if (ci[q] != r)
                ++aStart[std::max(inv[r], inv[ci[q]]) + 1];
    for (std::size_t k = 0; k < n; ++k)
        aStart[k + 1] += aStart[k];
    std::vector<std::uint32_t> aIdx(aStart[n]);
    std::vector<double> aUp(aStart[n], 0.0), aLo(aStart[n], 0.0);
    std::vector<double> diag(n, 0.0);
    {
        std::vector<std::size_t> fillPos(aStart.begin(), aStart.end() - 1);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
                const std::size_t pr = inv[r], pc = inv[ci[q]];
                if (pr == pc) {
                    diag[pr] += av[q];
                    continue;
                }
                const std::size_t pos = fillPos[std::max(pr, pc)]++;
                aIdx[pos] = static_cast<std::uint32_t>(std::min(pr, pc));
                (pr < pc ? aUp : aLo)[pos] = av[q];
            }
        }
    }

    // Symbolic: elimination tree and column counts of L.
    constexpr std::size_t kRoot = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> parent(n, kRoot), flag(n), count(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
        flag[k] = k;
        for (std::size_t q = aStart[k]; q < aStart[k + 1]; ++q) {
            for (std::size_t i = aIdx[q]; flag[i] != k; i = parent[i]) {
                if (parent[i] == kRoot)
                    parent[i] = k;
                ++count[i];
                flag[i] = k;
            }
        }
    }
    colStart.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j)
        colStart[j + 1] = colStart[j] + count[j];
    rowIdx.resize(colStart[n]);
    lower.resize(colStart[n]);
    if (!sym)
        upper.resize(colStart[n]);
    invDiag.resize(n);

    // Numeric, up-looking: row k of L and column k of U solve
    // L y = A(0:k-1, k) and Uᵀ z = A(k, 0:k-1)ᵀ over the etree reach
    // of row k, visited in topological order.
    std::vector<double> y(n, 0.0), z(sym ? 0 : n, 0.0);
    std::vector<std::size_t> reach(n), path(n);
    std::fill(count.begin(), count.end(), 0);
    std::fill(flag.begin(), flag.end(), kRoot);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t top = n;
        flag[k] = k;
        for (std::size_t q = aStart[k]; q < aStart[k + 1]; ++q) {
            std::size_t i = aIdx[q];
            y[i] += aUp[q];
            if (!sym)
                z[i] += aLo[q];
            std::size_t len = 0;
            for (; flag[i] != k; i = parent[i]) {
                path[len++] = i;
                flag[i] = k;
            }
            while (len > 0)
                reach[--top] = path[--len];
        }
        double d = diag[k];
        for (; top < n; ++top) {
            const std::size_t j = reach[top];
            const double yj = y[j];
            y[j] = 0.0;
            const std::size_t begin = colStart[j];
            const std::size_t end = begin + count[j];
            double lkj;
            if (sym) {
                for (std::size_t q = begin; q < end; ++q)
                    y[rowIdx[q]] -= lower[q] * yj;
                lkj = yj * invDiag[j];
            } else {
                const double zj = z[j];
                z[j] = 0.0;
                for (std::size_t q = begin; q < end; ++q) {
                    y[rowIdx[q]] -= lower[q] * yj;
                    z[rowIdx[q]] -= upper[q] * zj;
                }
                lkj = zj * invDiag[j];
                upper[end] = yj * invDiag[j];
            }
            d -= lkj * yj;
            rowIdx[end] = static_cast<std::uint32_t>(k);
            lower[end] = lkj;
            ++count[j];
        }
        if (!(d > 0.0) || !std::isfinite(d)) {
            numericError("SparseFactor: pivot ", d, " at node ", perm[k],
                         " (elimination step ", k, " of ", n,
                         "); the matrix is not SPD or diagonally "
                         "dominant");
        }
        invDiag[k] = 1.0 / d;
    }
}

void
SparseFactor::solve(std::vector<double> &x,
                    std::vector<double> &scratch) const
{
    const std::size_t n = size();
    if (x.size() != n)
        fatal("SparseFactor::solve: size mismatch");
    scratch.resize(n);
    double *w = scratch.data();
    for (std::size_t k = 0; k < n; ++k)
        w[k] = x[perm[k]];

    const std::uint32_t *ri = rowIdx.data();
    const double *lx = lower.data();
    for (std::size_t j = 0; j < n; ++j) {
        const double wj = w[j];
        if (wj == 0.0)
            continue;
        for (std::size_t q = colStart[j]; q < colStart[j + 1]; ++q)
            w[ri[q]] -= lx[q] * wj;
    }
    for (std::size_t j = 0; j < n; ++j)
        w[j] *= invDiag[j];
    const double *ux = upper.empty() ? lx : upper.data();
    for (std::size_t j = n; j-- > 0;) {
        // Four partial sums: one running sum would chain every
        // multiply-add of the row behind the previous one.
        double s[4] = {w[j], 0.0, 0.0, 0.0};
        std::size_t q = colStart[j];
        const std::size_t end = colStart[j + 1];
        for (; q + 4 <= end; q += 4)
            for (std::size_t u = 0; u < 4; ++u)
                s[u] -= ux[q + u] * w[ri[q + u]];
        for (; q < end; ++q)
            s[0] -= ux[q] * w[ri[q]];
        w[j] = (s[0] + s[1]) + (s[2] + s[3]);
    }

    for (std::size_t k = 0; k < n; ++k)
        x[perm[k]] = w[k];
}

} // namespace irtherm
