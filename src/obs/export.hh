/**
 * @file
 * Exporters for the metrics registry and the event trace.
 *
 * Formats:
 *  - JSON stats document (schema "irtherm.stats.v1"): one object
 *    with counters / gauges / timers / histograms sections keyed by
 *    metric name. Histograms list only their non-empty buckets.
 *  - CSV flat dump via the base/table machinery: one row per metric
 *    with name, kind, and summary values.
 *  - JSONL trace: a meta header line (schema + wall-clock start of
 *    the shared trace epoch), then one JSON object per line per
 *    event, in recording order.
 *  - Chrome/Perfetto trace_event JSON: spans as matched B/E duration
 *    pairs (plus thread_name metadata and optional event-trace
 *    instants), loadable directly in chrome://tracing or Perfetto.
 *  - Prometheus text exposition format for the /metrics endpoint.
 *  - Human summary: aligned TextTable for end-of-run CLI output.
 */

#ifndef IRTHERM_OBS_EXPORT_HH
#define IRTHERM_OBS_EXPORT_HH

#include <ostream>
#include <string>

#include "obs/event_trace.hh"
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

/** Meta header line, then one JSON object per buffered event. */
void writeTraceJsonl(std::ostream &os, const EventTrace &trace);

/**
 * Serialize buffered spans as a Chrome/Perfetto trace_event JSON
 * document: "B"/"E" duration pairs per span (ts in microseconds on
 * the shared trace epoch), "M" thread_name metadata from the
 * recorder's thread labels, and — when @p overlay is non-null — the
 * event trace as "i" instant events on the same timeline. The
 * wall-clock instant of the epoch rides along as a top-level
 * "wall_start_unix_s" field (ignored by viewers, kept for tools).
 */
std::string spansToTraceJson(const SpanRecorder &rec,
                             const EventTrace *overlay = nullptr);

/** Write spansToTraceJson() to @p os. */
void writeSpansTraceJson(std::ostream &os, const SpanRecorder &rec,
                         const EventTrace *overlay = nullptr);

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
