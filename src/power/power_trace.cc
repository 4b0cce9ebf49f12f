#include "power/power_trace.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace irtherm
{

PowerTrace::PowerTrace(std::vector<std::string> unit_names,
                       double sample_interval)
    : names(std::move(unit_names)), interval(sample_interval)
{
    if (names.empty())
        fatal("PowerTrace: no unit names");
    if (interval <= 0.0)
        fatal("PowerTrace: non-positive sample interval");
}

void
PowerTrace::addSample(std::vector<double> powers)
{
    if (powers.size() != names.size()) {
        fatal("PowerTrace::addSample: got ", powers.size(),
              " powers, expected ", names.size());
    }
    for (double p : powers) {
        if (p < 0.0)
            fatal("PowerTrace::addSample: negative power ", p);
    }
    samples.push_back(std::move(powers));
}

const std::vector<double> &
PowerTrace::sample(std::size_t i) const
{
    return samples.at(i);
}

std::vector<double>
PowerTrace::averagePowers() const
{
    if (samples.empty())
        fatal("PowerTrace: no samples");
    std::vector<double> avg(names.size(), 0.0);
    for (const auto &s : samples) {
        for (std::size_t u = 0; u < avg.size(); ++u)
            avg[u] += s[u];
    }
    for (double &v : avg)
        v /= static_cast<double>(samples.size());
    return avg;
}

std::vector<double>
PowerTrace::peakPowers() const
{
    if (samples.empty())
        fatal("PowerTrace: no samples");
    std::vector<double> peak(names.size(), 0.0);
    for (const auto &s : samples) {
        for (std::size_t u = 0; u < peak.size(); ++u)
            peak[u] = std::max(peak[u], s[u]);
    }
    return peak;
}

double
PowerTrace::totalPower(std::size_t i) const
{
    const auto &s = sample(i);
    double t = 0.0;
    for (double p : s)
        t += p;
    return t;
}

double
PowerTrace::averageTotalPower() const
{
    const std::vector<double> avg = averagePowers();
    double t = 0.0;
    for (double p : avg)
        t += p;
    return t;
}

PowerTrace
PowerTrace::reorderedFor(const Floorplan &fp) const
{
    std::vector<std::size_t> col(fp.blockCount());
    std::vector<std::string> new_names(fp.blockCount());
    for (std::size_t b = 0; b < fp.blockCount(); ++b) {
        const std::string &want = fp.block(b).name;
        const auto it = std::find(names.begin(), names.end(), want);
        if (it == names.end())
            fatal("PowerTrace: no column for block '", want, "'");
        col[b] = static_cast<std::size_t>(it - names.begin());
        new_names[b] = want;
    }
    PowerTrace out(new_names, interval);
    for (const auto &s : samples) {
        std::vector<double> row(fp.blockCount());
        for (std::size_t b = 0; b < fp.blockCount(); ++b)
            row[b] = s[col[b]];
        out.addSample(std::move(row));
    }
    return out;
}

PowerTrace
PowerTrace::decimated(std::size_t factor) const
{
    if (factor == 0)
        fatal("PowerTrace::decimated: zero factor");
    PowerTrace out(names, interval * static_cast<double>(factor));
    for (std::size_t s = 0; s + factor <= samples.size(); s += factor) {
        std::vector<double> acc(names.size(), 0.0);
        for (std::size_t k = 0; k < factor; ++k) {
            for (std::size_t u = 0; u < acc.size(); ++u)
                acc[u] += samples[s + k][u];
        }
        for (double &v : acc)
            v /= static_cast<double>(factor);
        out.addSample(std::move(acc));
    }
    return out;
}

PowerTrace
PowerTrace::parsePtrace(std::istream &in, double sample_interval)
{
    std::string line;
    // Header: unit names.
    std::vector<std::string> header;
    while (std::getline(in, line)) {
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        header = splitWhitespace(stripped);
        break;
    }
    if (header.empty())
        fatal("ptrace: missing header line");

    PowerTrace trace(header, sample_interval);
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        const std::vector<std::string> tok = splitWhitespace(stripped);
        if (tok.size() != header.size()) {
            fatal("ptrace line ", lineno, ": expected ", header.size(),
                  " values, got ", tok.size());
        }
        std::vector<double> row(tok.size());
        for (std::size_t u = 0; u < tok.size(); ++u) {
            row[u] = parseDouble(
                tok[u], "ptrace line " + std::to_string(lineno));
        }
        trace.addSample(std::move(row));
    }
    return trace;
}

PowerTrace
PowerTrace::loadPtrace(const std::string &path, double sample_interval)
{
    std::ifstream in(path);
    if (!in)
        ioError("PowerTrace: cannot open '", path, "'");
    return parsePtrace(in, sample_interval);
}

void
PowerTrace::writePtrace(std::ostream &out) const
{
    for (std::size_t u = 0; u < names.size(); ++u)
        out << names[u] << (u + 1 < names.size() ? " " : "\n");
    std::ostringstream oss;
    oss.precision(6);
    for (const auto &s : samples) {
        oss.str("");
        for (std::size_t u = 0; u < s.size(); ++u)
            oss << s[u] << (u + 1 < s.size() ? " " : "\n");
        out << oss.str();
    }
}

} // namespace irtherm
