#include "oracles.hh"

#include <cmath>
#include <limits>

#include "numeric/dense_matrix.hh"

namespace irbench
{

using irtherm::DenseMatrix;
using irtherm::StackModel;

namespace
{

DenseMatrix
denseConductance(const StackModel &model)
{
    const irtherm::CsrMatrix &g = model.conductance();
    DenseMatrix d(g.rows(), g.cols());
    const auto &rows = g.rowPointers();
    const auto &cols = g.columnIndices();
    const auto &vals = g.storedValues();
    for (std::size_t r = 0; r < g.rows(); ++r) {
        for (std::size_t k = rows[r]; k < rows[r + 1]; ++k)
            d(r, cols[k]) += vals[k];
    }
    return d;
}

double
norm2(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x * x;
    return std::sqrt(s);
}

} // namespace

std::vector<double>
luSteadyNodes(const StackModel &model,
              const std::vector<double> &blockPowers)
{
    const irtherm::LuDecomposition lu(denseConductance(model));
    std::vector<double> t = lu.solve(model.nodePowerVector(blockPowers));
    const double ambient = model.packageConfig().ambient;
    for (double &v : t)
        v += ambient;
    return t;
}

double
steadyResidual(const StackModel &model, const std::vector<double> &nodes,
               const std::vector<double> &blockPowers)
{
    const double ambient = model.packageConfig().ambient;
    std::vector<double> rise = nodes;
    for (double &v : rise)
        v -= ambient;
    const std::vector<double> p = model.nodePowerVector(blockPowers);
    std::vector<double> r = model.conductance().multiply(rise);
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] -= p[i];
    return norm2(r) / norm2(p);
}

DenseBeReplay::DenseBeReplay(const StackModel &m, double dt,
                             std::size_t steps,
                             const std::vector<double> &initialNodes)
    : model(m), capOverH(m.capacitance()), substeps(steps),
      rise(initialNodes)
{
    const double h = dt / static_cast<double>(substeps);
    DenseMatrix a = denseConductance(model);
    for (std::size_t i = 0; i < capOverH.size(); ++i) {
        capOverH[i] /= h;
        a(i, i) += capOverH[i];
    }
    lu.emplace(a);
    const double ambient = model.packageConfig().ambient;
    for (double &v : rise)
        v -= ambient;
}

void
DenseBeReplay::window(const std::vector<double> &blockPowers)
{
    const std::vector<double> p = model.nodePowerVector(blockPowers);
    std::vector<double> rhs(p.size());
    for (std::size_t s = 0; s < substeps; ++s) {
        for (std::size_t i = 0; i < p.size(); ++i)
            rhs[i] = capOverH[i] * rise[i] + p[i];
        rise = lu->solve(rhs);
    }
}

std::vector<double>
DenseBeReplay::blockTemperatures() const
{
    std::vector<double> t = rise;
    const double ambient = model.packageConfig().ambient;
    for (double &v : t)
        v += ambient;
    return model.blockTemperatures(t);
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(a[i] - b[i]);
        if (std::isnan(d))
            return std::numeric_limits<double>::infinity();
        m = std::max(m, d);
    }
    return m;
}

} // namespace irbench
