/**
 * @file
 * The benchmark's own timers: spans around calls into the program's
 * layers, kept in memory, plus the pieces every workload shares
 * (oracle check counting, registry reads, quantiles).
 *
 * No span lives inside the program: each one wraps a single call the
 * benchmark makes into a layer's public function, under the workload
 * phase that made it. Layer spans never nest, so the time of an
 * iteration that no span covers is the benchmark's own glue.
 */

#ifndef IRBENCH_TRACE_HH
#define IRBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace irbench
{

/** Monotonic seconds (std::chrono::steady_clock). */
inline double
monotonic()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call into a program layer. */
struct Span
{
    const char *metric = ""; ///< per-layer metric the call counts toward
    std::size_t phase = 0;   ///< index into Tracer::phaseNames()
    double start = 0.0;      ///< monotonic seconds
    double end = 0.0;
    /** numeric.cg.solve_time_s the program accrued inside the call. */
    double cgSeconds = 0.0;
};

/**
 * Span recorder for one run. Set-up calls are always timed (they make
 * up setup_s); layer calls are timed only when tracing.
 */
class Tracer
{
  public:
    /** Start a new iteration: clears spans, set-up time and phase. */
    void beginIteration(bool traced);

    /** Name the workload phase that owns the following calls. */
    void phase(const std::string &name);

    /** Time a call into a layer (recorded only when tracing). */
    template <class F>
    decltype(auto)
    layer(const char *metric, F &&f)
    {
        const Guard g(*this, metric, false);
        return f();
    }

    /** Time a set-up call; always counted toward setup_s. */
    template <class F>
    decltype(auto)
    setup(const char *metric, F &&f)
    {
        const Guard g(*this, metric, true);
        return f();
    }

    /** Set-up seconds of the current iteration. */
    double setupSeconds() const { return setupTotal; }

    const std::vector<Span> &spans() const { return iterationSpans; }
    const std::vector<std::string> &phaseNames() const { return phases; }

    /** Wall seconds of each phase of the last iteration. */
    std::vector<double> phaseSeconds() const;

    /** Close the iteration; its spans stay until the next one. */
    void endIteration();

  private:
    struct Guard
    {
        Guard(Tracer &t, const char *metric, bool setup);
        ~Guard();
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

        Tracer &tracer;
        const char *metric;
        bool setup;
        bool active;
        double start = 0.0;
        double cgStart = 0.0;
    };

    bool tracing = false;
    double setupTotal = 0.0;
    std::size_t currentPhase = 0;
    std::vector<std::string> phases{"(none)"};
    std::vector<double> phaseStarts{0.0};
    double iterationEnd = 0.0;
    std::vector<Span> iterationSpans;
};

/**
 * Per-layer sums of one traced iteration's spans: total seconds,
 * seconds spent in numeric.cg inside the calls, and call counts.
 */
struct LayerSums
{
    std::map<std::string, double> seconds;
    std::map<std::string, double> cgSeconds;
    std::map<std::string, std::size_t> calls;
    /** Per-call durations of the named metrics (seconds). */
    std::map<std::string, std::vector<double>> durations;
    double covered = 0.0; ///< sum of every span's duration
};

LayerSums sumLayers(const std::vector<Span> &spans);

/** Oracle and job accounting that feeds attempted / failed. */
class Checks
{
  public:
    /** Count one operation and log its outcome to stderr. */
    void expect(bool ok, const std::string &what);

    /** Count @p tried operations of which @p bad failed. */
    void tally(std::size_t tried, std::size_t bad,
               const std::string &what);

    std::size_t attempted() const { return tries; }
    std::size_t failed() const { return failures; }

  private:
    std::size_t tries = 0;
    std::size_t failures = 0;
};

/** @p v with 4 significant digits, for check messages. */
std::string num(double v);

/** Values read from obs::MetricsRegistry::global(). */
struct RegistryReading
{
    double counter(const std::string &name) const;
    double timerSeconds(const std::string &name) const;
    double timerCount(const std::string &name) const;

    std::map<std::string, double> values;
};

/** Read the registry counters and timers the benchmark reports. */
RegistryReading readRegistry();

/** @p after minus @p before, per value. */
RegistryReading operator-(const RegistryReading &after,
                          const RegistryReading &before);

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

/** Median of @p values; 0 for no samples. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Per-layer metrics of one iteration, by name. */
using MetricMap = std::map<std::string, double>;

} // namespace irbench

#endif // IRBENCH_TRACE_HH
