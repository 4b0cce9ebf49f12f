/**
 * @file
 * Exporters for the metrics registry and the span recorder.
 *
 * Formats:
 *  - JSON stats document (schema "irtherm.stats.v1"): one object
 *    with counters / gauges / timers / histograms sections keyed by
 *    metric name. Histograms list only their non-empty buckets.
 *  - CSV flat dump via the base/table machinery: one row per metric
 *    with name, kind, and summary values.
 *  - Chrome/Perfetto trace_event JSON: spans as matched B/E duration
 *    pairs, instants as thread-scoped "i" events, plus
 *    process/thread name metadata, loadable directly in
 *    chrome://tracing or Perfetto. One builder (TraceEventDocument)
 *    renders both a process's own trace and the fleet's merged one.
 *  - Prometheus text exposition format for the /metrics endpoint.
 *  - Human summary: aligned TextTable for end-of-run CLI output.
 */

#ifndef IRTHERM_OBS_EXPORT_HH
#define IRTHERM_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"

namespace irtherm::obs
{

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Shortest JSON spelling of @p v: the "%g" form when it parses back
 * to exactly @p v, else "%.17g"; "null" when @p v is not finite.
 */
std::string jsonNumber(double v);

/**
 * "%.17g" of @p v, byte for byte, which round-trips every finite
 * double (the journal's and checkpoints' form). Non-finite values
 * print as printf prints them: "nan", "-nan", "inf", "-inf".
 */
std::string jsonNumberExact(double v);

/** Serialize the registry as an "irtherm.stats.v1" JSON document. */
std::string metricsToJson(const MetricsRegistry &reg);

/** Write metricsToJson(reg) to @p os. */
void writeMetricsJson(std::ostream &os, const MetricsRegistry &reg);

/** One CSV row per metric: name, kind, count, value, mean, min, max. */
void writeMetricsCsv(std::ostream &os, const MetricsRegistry &reg);

/** `"key":value,...` members for @p fields, in order (no braces). */
std::string jsonMembers(const std::vector<EventField> &fields);

/**
 * One Chrome/Perfetto trace_event document under assembly. Records
 * and name metadata may be added in any order; json() sorts them so
 * viewers nest the duration events: metadata first, then per
 * timestamp every "E" (deepest first) ahead of every "B" (shallowest
 * first) ahead of every "i". Timestamps are microseconds on the
 * shared trace epoch.
 */
class TraceEventDocument
{
  public:
    /** "M" process_name metadata for @p pid. */
    void processName(int pid, const std::string &name);

    /** "M" thread_name metadata for (@p pid, @p tid). */
    void threadName(int pid, std::uint32_t tid,
                    const std::string &name);

    /**
     * @p s on (@p pid, s.threadIndex): a span as a "B"/"E" pair whose
     * "B" args carry id, parent and attrs; an instant as one
     * thread-scoped "i" event whose args carry parent and attrs.
     * @p extraArgs (rendered `,"key":value` members) ends the args.
     */
    void add(int pid, const SpanRecord &s,
             const std::string &extraArgs = "");

    /**
     * Every thread label and buffered record of @p rec under @p pid;
     * records with no parent get @p rootArgs as their extraArgs.
     */
    void addRecorder(int pid, const SpanRecorder &rec,
                     const std::string &rootArgs = "");

    /**
     * The document. The wall-clock instant of the trace epoch rides
     * along as a top-level "wall_start_unix_s" field (ignored by
     * viewers, kept for tools), followed by @p topLevel (rendered
     * `,"key":value` members).
     */
    std::string json(const std::string &topLevel = "") const;

  private:
    struct Entry
    {
        double tsUs = 0.0;
        int phaseOrder = 0; ///< M=0, E=1, B=2, i=3 at equal ts
        int depthKey = 0;   ///< B: depth asc; E: -depth (deepest first)
        std::string json;
    };
    std::vector<Entry> entries;
};

/**
 * The recorder's buffered spans and instants as a trace_event
 * document: pid 1, one track per recorded thread.
 */
std::string spansToTraceJson(const SpanRecorder &rec);

/** Write spansToTraceJson() to @p os. */
void writeSpansTraceJson(std::ostream &os, const SpanRecorder &rec);

/**
 * Serialize the registry in Prometheus text exposition format:
 * counters as `<name>_total`, gauges verbatim, timers as summaries
 * with p50/p95/p99 quantile lines, histograms with cumulative
 * `_bucket{le=...}` lines. Metric names are sanitized (dots become
 * underscores) and prefixed `irtherm_`.
 */
std::string metricsToPrometheus(const MetricsRegistry &reg);

/** Aligned human-readable registry summary (CLI end-of-run). */
void printMetricsSummary(std::ostream &os, const MetricsRegistry &reg);

} // namespace irtherm::obs

#endif // IRTHERM_OBS_EXPORT_HH
