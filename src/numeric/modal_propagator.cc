#include "numeric/modal_propagator.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/errors.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm
{

namespace
{

/**
 * Householder reduction of the symmetric row-major @p a (n x n; only
 * its lower triangle is read) to tridiagonal form (EISPACK tred2).
 * On return @p a holds the accumulated orthogonal transformation Q,
 * @p d the diagonal and @p e the subdiagonal in e[1..n-1] (e[0] = 0).
 */
void
tridiagonalize(std::vector<double> &a, std::size_t n,
               std::vector<double> &d, std::vector<double> &e)
{
    auto at = [&a, n](std::size_t r, std::size_t c) -> double & {
        return a[r * n + c];
    };
    d.assign(n, 0.0);
    e.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
        d[j] = at(n - 1, j);

    for (std::size_t i = n - 1; i > 0; --i) {
        double scale = 0.0;
        double h = 0.0;
        for (std::size_t k = 0; k < i; ++k)
            scale += std::abs(d[k]);
        if (scale == 0.0) {
            e[i] = d[i - 1];
            for (std::size_t j = 0; j < i; ++j) {
                d[j] = at(i - 1, j);
                at(i, j) = 0.0;
                at(j, i) = 0.0;
            }
        } else {
            // Householder vector of row i, scaled to avoid underflow.
            for (std::size_t k = 0; k < i; ++k) {
                d[k] /= scale;
                h += d[k] * d[k];
            }
            double f = d[i - 1];
            double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for (std::size_t j = 0; j < i; ++j)
                e[j] = 0.0;

            // Apply the similarity transformation to the rest.
            for (std::size_t j = 0; j < i; ++j) {
                f = d[j];
                at(j, i) = f;
                g = e[j] + at(j, j) * f;
                for (std::size_t k = j + 1; k < i; ++k) {
                    g += at(k, j) * d[k];
                    e[k] += at(k, j) * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for (std::size_t j = 0; j < i; ++j) {
                e[j] /= h;
                f += e[j] * d[j];
            }
            const double hh = f / (h + h);
            for (std::size_t j = 0; j < i; ++j)
                e[j] -= hh * d[j];
            for (std::size_t j = 0; j < i; ++j) {
                f = d[j];
                g = e[j];
                for (std::size_t k = j; k < i; ++k)
                    at(k, j) -= f * e[k] + g * d[k];
                d[j] = at(i - 1, j);
                at(i, j) = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for (std::size_t i = 0; i + 1 < n; ++i) {
        at(n - 1, i) = at(i, i);
        at(i, i) = 1.0;
        const double h = d[i + 1];
        if (h != 0.0) {
            for (std::size_t k = 0; k <= i; ++k)
                d[k] = at(k, i + 1) / h;
            for (std::size_t j = 0; j <= i; ++j) {
                double g = 0.0;
                for (std::size_t k = 0; k <= i; ++k)
                    g += at(k, i + 1) * at(k, j);
                for (std::size_t k = 0; k <= i; ++k)
                    at(k, j) -= g * d[k];
            }
        }
        for (std::size_t k = 0; k <= i; ++k)
            at(k, i + 1) = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
        d[j] = at(n - 1, j);
        at(n - 1, j) = 0.0;
    }
    at(n - 1, n - 1) = 1.0;
    e[0] = 0.0;
}

/**
 * Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize
 * (EISPACK tql2). @p z enters holding Qᵀ row-major (row k = column k
 * of Q) and leaves holding the eigenvectors as rows, so each plane
 * rotation touches two contiguous rows. Eigenvalues are left in @p d,
 * sorted ascending with their rows.
 */
void
tridiagonalQl(std::vector<double> &d, std::vector<double> &e,
              std::vector<double> &z, std::size_t n)
{
    constexpr int kMaxIterations = 60; // per eigenvalue
    const double eps = std::numeric_limits<double>::epsilon();
    for (std::size_t i = 1; i < n; ++i)
        e[i - 1] = e[i];
    e[n - 1] = 0.0;

    auto rotate = [&z, n](std::size_t r0, std::size_t r1, double c,
                          double s) {
        double *x = &z[r0 * n];
        double *y = &z[r1 * n];
        for (std::size_t k = 0; k < n; ++k) {
            const double h = y[k];
            y[k] = s * x[k] + c * h;
            x[k] = c * x[k] - s * h;
        }
    };

    double f = 0.0;
    double tst1 = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
        tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
        std::size_t m = l;
        while (m < n && std::abs(e[m]) > eps * tst1)
            ++m;
        if (m > l) {
            int iter = 0;
            do {
                if (++iter > kMaxIterations)
                    numericError("ModalBasis: QL iteration did not "
                                 "converge for eigenvalue ", l);
                // Wilkinson-style shift from the leading 2x2 block.
                double g = d[l];
                double p = (d[l + 1] - g) / (2.0 * e[l]);
                double r = std::hypot(p, 1.0);
                if (p < 0.0)
                    r = -r;
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                const double dl1 = d[l + 1];
                double h = g - d[l];
                for (std::size_t i = l + 2; i < n; ++i)
                    d[i] -= h;
                f += h;

                // Implicit QL sweep from m back to l.
                p = d[m];
                double c = 1.0, c2 = 1.0, c3 = 1.0;
                const double el1 = e[l + 1];
                double s = 0.0, s2 = 0.0;
                for (std::size_t i = m; i-- > l;) {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = std::hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotate(i, i + 1, c, s);
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
            } while (std::abs(e[l]) > eps * tst1);
        }
        d[l] += f;
        e[l] = 0.0;
    }

    // Selection sort, ascending; swaps whole eigenvector rows.
    for (std::size_t i = 0; i + 1 < n; ++i) {
        std::size_t k = i;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (d[j] < d[k])
                k = j;
        }
        if (k != i) {
            std::swap(d[i], d[k]);
            std::swap_ranges(z.begin() + static_cast<std::ptrdiff_t>(i * n),
                             z.begin() +
                                 static_cast<std::ptrdiff_t>((i + 1) * n),
                             z.begin() + static_cast<std::ptrdiff_t>(k * n));
        }
    }
}

} // namespace

ModalBasis::ModalBasis(const CsrMatrix &g,
                       const std::vector<double> &capacitance)
    : cap(capacitance)
{
    const std::size_t n = g.rows();
    if (g.cols() != n || cap.size() != n)
        fatal("ModalBasis: conductance / capacitance size mismatch");
    if (n == 0)
        fatal("ModalBasis: empty network");
    for (std::size_t i = 0; i < n; ++i) {
        if (!(cap[i] > 0.0))
            fatal("ModalBasis: non-positive capacitance at node ", i);
    }
    if (!g.isSymmetric(1e-9))
        fatal("ModalBasis: conductance matrix is not symmetric");

    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer timer(reg.timer("numeric.modal.build_seconds"));
    obs::ScopedSpan span("numeric.modal.build");
    span.attr("nodes", n);

    // S = C^-1/2 G C^-1/2, dense row-major.
    std::vector<double> invSqrtC(n);
    for (std::size_t i = 0; i < n; ++i)
        invSqrtC[i] = 1.0 / std::sqrt(cap[i]);
    std::vector<double> s(n * n, 0.0);
    const auto &rp = g.rowPointers();
    const auto &ci = g.columnIndices();
    const auto &av = g.storedValues();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            s[r * n + ci[k]] += av[k] * invSqrtC[r] * invSqrtC[ci[k]];
    }

    std::vector<double> e;
    tridiagonalize(s, n, lambda, e);
    // tql2 rotates columns of Q; work on Qᵀ so they are rows.
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = r + 1; c < n; ++c)
            std::swap(s[r * n + c], s[c * n + r]);
    }
    tridiagonalQl(lambda, e, s, n);
    if (!(lambda.front() > 0.0)) {
        numericError("ModalBasis: network has a non-decaying mode "
                     "(smallest eigenvalue ", lambda.front(),
                     "); is it grounded?");
    }

    // U(i, k) = V(i, k) / sqrt(c_i); s row k holds eigenvector k.
    u.assign(n * n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i)
            u[i * n + k] = s[k * n + i] * invSqrtC[i];
    }

    reg.counter("numeric.modal.builds").add();
    reg.gauge("numeric.modal.modes").set(static_cast<double>(n));
    span.attr("tau_max_s", 1.0 / lambda.front())
        .attr("tau_min_s", 1.0 / lambda.back());
}

void
ModalBasis::toModal(const std::vector<double> &x,
                    std::vector<double> &z) const
{
    if (x.size() != size())
        fatal("ModalBasis::toModal: size mismatch");
    std::vector<double> cx(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        cx[i] = cap[i] * x[i];
    forcing(cx, z);
}

void
ModalBasis::forcing(const std::vector<double> &p,
                    std::vector<double> &q) const
{
    const std::size_t n = size();
    if (p.size() != n)
        fatal("ModalBasis::forcing: size mismatch");
    q.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (p[i] == 0.0)
            continue;
        const double w = p[i];
        const double *row = &u[i * n];
        for (std::size_t k = 0; k < n; ++k)
            q[k] += w * row[k];
    }
}

void
ModalBasis::fromModal(const std::vector<double> &z, std::size_t begin,
                      std::size_t end, double *out) const
{
    const std::size_t n = size();
    if (z.size() != n || begin > end || end > n)
        fatal("ModalBasis::fromModal: bad size or row range");
    for (std::size_t i = begin; i < end; ++i) {
        const double *row = &u[i * n];
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            acc += row[k] * z[k];
        out[i - begin] = acc;
    }
}

ModalPropagator::ModalPropagator(std::shared_ptr<const ModalBasis> basis)
    : basis_(std::move(basis))
{
    if (!basis_)
        fatal("ModalPropagator: null basis");
}

void
ModalPropagator::advance(std::vector<double> &z,
                         const std::vector<double> &q, double h)
{
    const std::size_t n = basis_->size();
    if (z.size() != n || q.size() != n)
        fatal("ModalPropagator::advance: vector size mismatch");
    if (!(h > 0.0))
        fatal("ModalPropagator::advance: non-positive step");
    if (h != cachedStep) {
        const std::vector<double> &lambda = basis_->eigenvalues();
        decay.resize(n);
        gain.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            // expm1 keeps the gain exact for slow modes (λh << 1).
            const double em1 = std::expm1(-lambda[k] * h);
            decay[k] = 1.0 + em1;
            gain[k] = -em1 / lambda[k];
        }
        cachedStep = h;
    }
    for (std::size_t k = 0; k < n; ++k)
        z[k] = decay[k] * z[k] + gain[k] * q[k];
}

} // namespace irtherm
