#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "obs/metrics.hh"

namespace irbench
{

namespace
{

/** The program's CG timer; layer spans attribute its growth. */
double
cgSeconds()
{
    static irtherm::obs::Timer &t =
        irtherm::obs::MetricsRegistry::global().timer(
            "numeric.cg.solve_time_s");
    return t.totalSeconds();
}

const char *const kCounters[] = {
    "numeric.rk4.steps", "numeric.rk4.rejected_steps",
    "numeric.be.solves", "numeric.cg.iterations",
    "numeric.mg.cycles", "sweep.journal.bytes_written",
};

const char *const kTimers[] = {
    "numeric.cg.solve_time_s",
    "sweep.journal.flush_seconds",
    "sweep.agg.update_seconds",
};

} // namespace

void
Tracer::beginIteration(bool traced)
{
    tracing = traced;
    setupTotal = 0.0;
    currentPhase = 0;
    phases.assign(1, "(none)");
    phaseStarts.assign(1, monotonic());
    iterationSpans.clear();
}

void
Tracer::phase(const std::string &name)
{
    phases.push_back(name);
    phaseStarts.push_back(monotonic());
    currentPhase = phases.size() - 1;
}

std::vector<double>
Tracer::phaseSeconds() const
{
    std::vector<double> s(phases.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const double end =
            i + 1 < phaseStarts.size() ? phaseStarts[i + 1] : iterationEnd;
        s[i] = end - phaseStarts[i];
    }
    return s;
}

void
Tracer::endIteration()
{
    iterationEnd = monotonic();
}

Tracer::Guard::Guard(Tracer &t, const char *m, bool s)
    : tracer(t), metric(m), setup(s), active(s || t.tracing)
{
    if (!active)
        return;
    if (tracer.tracing)
        cgStart = cgSeconds();
    start = monotonic();
}

Tracer::Guard::~Guard()
{
    if (!active)
        return;
    const double end = monotonic();
    if (setup)
        tracer.setupTotal += end - start;
    if (tracer.tracing) {
        tracer.iterationSpans.push_back(
            Span{metric, tracer.currentPhase, start, end,
                 cgSeconds() - cgStart});
    }
}

LayerSums
sumLayers(const std::vector<Span> &spans)
{
    LayerSums s;
    for (const Span &sp : spans) {
        const double d = sp.end - sp.start;
        s.seconds[sp.metric] += d;
        s.cgSeconds[sp.metric] += sp.cgSeconds;
        ++s.calls[sp.metric];
        s.durations[sp.metric].push_back(d);
        s.covered += d;
    }
    return s;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++tries;
    if (!ok)
        ++failures;
    std::cerr << "irbench: check " << (ok ? "ok" : "FAILED") << ": "
              << what << "\n";
}

void
Checks::tally(std::size_t tried, std::size_t bad, const std::string &what)
{
    tries += tried;
    failures += bad;
    if (bad != 0) {
        std::cerr << "irbench: CHECK FAILED: " << bad << " of " << tried
                  << " " << what << "\n";
    }
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

double
RegistryReading::counter(const std::string &name) const
{
    const auto it = values.find("counter:" + name);
    return it == values.end() ? 0.0 : it->second;
}

double
RegistryReading::timerSeconds(const std::string &name) const
{
    const auto it = values.find("timer_s:" + name);
    return it == values.end() ? 0.0 : it->second;
}

double
RegistryReading::timerCount(const std::string &name) const
{
    const auto it = values.find("timer_n:" + name);
    return it == values.end() ? 0.0 : it->second;
}

RegistryReading
readRegistry()
{
    irtherm::obs::MetricsRegistry &reg =
        irtherm::obs::MetricsRegistry::global();
    RegistryReading r;
    for (const char *name : kCounters) {
        r.values[std::string("counter:") + name] =
            static_cast<double>(reg.counter(name).value());
    }
    for (const char *name : kTimers) {
        const irtherm::obs::Timer &t = reg.timer(name);
        r.values[std::string("timer_s:") + name] = t.totalSeconds();
        r.values[std::string("timer_n:") + name] =
            static_cast<double>(t.count());
    }
    return r;
}

RegistryReading
operator-(const RegistryReading &after, const RegistryReading &before)
{
    RegistryReading d = after;
    for (auto &[key, value] : d.values) {
        const auto it = before.values.find(key);
        if (it != before.values.end())
            value -= it->second;
    }
    return d;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

} // namespace irbench
