#include "obs/export.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "base/fault_injection.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "obs/trace_clock.hh"

namespace irtherm::obs
{

namespace
{

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

void
appendHistogramJson(std::ostringstream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count()
       << ",\"sum\":" << jsonNumber(h.sum())
       << ",\"mean\":" << jsonNumber(h.mean());
    if (h.count() > 0) {
        os << ",\"min\":" << jsonNumber(h.min())
           << ",\"max\":" << jsonNumber(h.max())
           << ",\"p50\":" << jsonNumber(histogramQuantile(h, 0.50))
           << ",\"p95\":" << jsonNumber(histogramQuantile(h, 0.95))
           << ",\"p99\":" << jsonNumber(histogramQuantile(h, 0.99));
    }
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
        const std::uint64_t c = h.bucketCount(i);
        if (c == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"lo\":" << jsonNumber(Histogram::bucketLowerBound(i))
           << ",\"hi\":" << jsonNumber(Histogram::bucketUpperBound(i))
           << ",\"count\":" << c << "}";
    }
    os << "]}";
}

} // namespace

std::string
jsonNumberExact(double v)
{
    // to_chars with an explicit precision is specified as printf's
    // conversion, without printf's format parsing and locale lookups.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 6);
    double back = 0.0;
    std::from_chars(buf, res.ptr, back);
    return back == v ? std::string(buf, res.ptr) : jsonNumberExact(v);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/**
 * Pull the thread pool's internal counters (base/ cannot depend on
 * obs/, so the pool keeps its own atomics) into gauges at export
 * time. Only the global registry gets them — custom registries used
 * in tests stay exactly as their owners populated them.
 */
void
syncThreadPoolGauges(const MetricsRegistry &reg)
{
    if (&reg != &MetricsRegistry::global())
        return;
    MetricsRegistry &g = MetricsRegistry::global();
    const ThreadPool::Stats s = ThreadPool::cumulativeStats();
    g.gauge("base.pool.threads")
        .set(static_cast<double>(ThreadPool::plannedGlobalThreads()));
    g.gauge("base.pool.parallel_regions")
        .set(static_cast<double>(s.parallelRegions));
    g.gauge("base.pool.chunks").set(static_cast<double>(s.chunks));
    g.gauge("base.pool.serial_fallbacks")
        .set(static_cast<double>(s.serialFallbacks));
    g.gauge("base.pool.region_time_s")
        .set(1e-9 * static_cast<double>(s.regionNanos));
    // Same pattern for the fault injector (also in base/): surface
    // how many faults actually fired so an instrumented run's stats
    // dump proves whether the injection campaign reached its targets.
    g.gauge("resilience.faults.injected")
        .set(static_cast<double>(FaultInjector::global().fired()));
}

} // namespace

std::string
metricsToJson(const MetricsRegistry &reg)
{
    syncThreadPoolGauges(reg);
    const auto names = reg.names();

    std::ostringstream os;
    os << "{\"schema\":\"irtherm.stats.v1\",\"metrics_enabled\":"
       << (kMetricsEnabled ? "true" : "false")
       << ",\"wall_start_unix_s\":"
       << jsonNumber(wallClockStartUnixSeconds());

    for (const MetricKind kind :
         {MetricKind::Counter, MetricKind::Gauge, MetricKind::Timer,
          MetricKind::Histogram}) {
        switch (kind) {
          case MetricKind::Counter:
            os << ",\"counters\":{";
            break;
          case MetricKind::Gauge:
            os << ",\"gauges\":{";
            break;
          case MetricKind::Timer:
            os << ",\"timers\":{";
            break;
          case MetricKind::Histogram:
            os << ",\"histograms\":{";
            break;
        }
        bool first = true;
        for (const auto &[name, k] : names) {
            if (k != kind)
                continue;
            if (!first)
                os << ",";
            first = false;
            os << jsonString(name) << ":";
            switch (kind) {
              case MetricKind::Counter:
                os << reg.counterAt(name).value();
                break;
              case MetricKind::Gauge:
                os << jsonNumber(reg.gaugeAt(name).value());
                break;
              case MetricKind::Timer: {
                const Timer &t = reg.timerAt(name);
                const Histogram &d = t.distribution();
                os << "{\"count\":" << t.count()
                   << ",\"total_s\":" << jsonNumber(t.totalSeconds())
                   << ",\"mean_s\":" << jsonNumber(t.meanSeconds());
                if (d.count() > 0) {
                    os << ",\"p50_s\":"
                       << jsonNumber(histogramQuantile(d, 0.50))
                       << ",\"p95_s\":"
                       << jsonNumber(histogramQuantile(d, 0.95))
                       << ",\"p99_s\":"
                       << jsonNumber(histogramQuantile(d, 0.99));
                }
                os << "}";
                break;
              }
              case MetricKind::Histogram:
                appendHistogramJson(os, reg.histogramAt(name));
                break;
            }
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

void
writeMetricsJson(std::ostream &os, const MetricsRegistry &reg)
{
    os << metricsToJson(reg) << "\n";
}

namespace
{

/** Uniform per-metric summary row: count, value, mean, p95, min,
 *  max. */
struct MetricRow
{
    std::string kind;
    std::string count;
    std::string value;
    std::string mean;
    std::string p95;
    std::string min;
    std::string max;
};

MetricRow
summarize(const MetricsRegistry &reg, const std::string &name,
          MetricKind kind)
{
    MetricRow row;
    switch (kind) {
      case MetricKind::Counter:
        row.kind = "counter";
        row.value = std::to_string(reg.counterAt(name).value());
        break;
      case MetricKind::Gauge:
        row.kind = "gauge";
        row.value = jsonNumber(reg.gaugeAt(name).value());
        break;
      case MetricKind::Timer: {
        const Timer &t = reg.timerAt(name);
        row.kind = "timer";
        row.count = std::to_string(t.count());
        row.value = jsonNumber(t.totalSeconds());
        row.mean = jsonNumber(t.meanSeconds());
        if (t.distribution().count() > 0)
            row.p95 =
                jsonNumber(histogramQuantile(t.distribution(), 0.95));
        break;
      }
      case MetricKind::Histogram: {
        const Histogram &h = reg.histogramAt(name);
        row.kind = "histogram";
        row.count = std::to_string(h.count());
        row.value = jsonNumber(h.sum());
        row.mean = jsonNumber(h.mean());
        if (h.count() > 0) {
            row.p95 = jsonNumber(histogramQuantile(h, 0.95));
            row.min = jsonNumber(h.min());
            row.max = jsonNumber(h.max());
        }
        break;
      }
    }
    return row;
}

TextTable
metricsTable(const MetricsRegistry &reg)
{
    TextTable t({"metric", "kind", "count", "value", "mean", "p95",
                 "min", "max"});
    for (const auto &[name, kind] : reg.names()) {
        const MetricRow row = summarize(reg, name, kind);
        t.addRow({name, row.kind, row.count, row.value, row.mean,
                  row.p95, row.min, row.max});
    }
    return t;
}

} // namespace

void
writeMetricsCsv(std::ostream &os, const MetricsRegistry &reg)
{
    syncThreadPoolGauges(reg);
    metricsTable(reg).printCsv(os);
}

void
printMetricsSummary(std::ostream &os, const MetricsRegistry &reg)
{
    syncThreadPoolGauges(reg);
    metricsTable(reg).print(os);
}

std::string
jsonMembers(const std::vector<EventField> &fields)
{
    std::string out;
    for (const EventField &f : fields) {
        if (!out.empty())
            out += ',';
        out += jsonString(f.key) + ":" +
               (f.numeric ? jsonNumber(f.num) : jsonString(f.text));
    }
    return out;
}

void
TraceEventDocument::processName(int pid, const std::string &name)
{
    entries.push_back(
        {0.0, 0, 0,
         "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
             jsonString(name) + "}}"});
}

void
TraceEventDocument::threadName(int pid, std::uint32_t tid,
                               const std::string &name)
{
    entries.push_back(
        {0.0, 0, 0,
         "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":" + jsonString(name) + "}}"});
}

void
TraceEventDocument::add(int pid, const SpanRecord &s,
                        const std::string &extraArgs)
{
    const std::string track = ",\"pid\":" + std::to_string(pid) +
                              ",\"tid\":" +
                              std::to_string(s.threadIndex);
    std::string args = "\"parent\":" + std::to_string(s.parentId);
    if (!s.attrs.empty())
        args += "," + jsonMembers(s.attrs);
    args += extraArgs;
    const double beginUs = s.startSeconds * 1e6;
    if (s.instant) {
        entries.push_back(
            {beginUs, 3, 0,
             "{\"ph\":\"i\",\"s\":\"t\",\"name\":" +
                 jsonString(s.name) + ",\"cat\":\"event\"" + track +
                 ",\"ts\":" + jsonNumber(beginUs) + ",\"args\":{" +
                 args + "}}"});
        return;
    }
    const double endUs = (s.startSeconds + s.durationSeconds) * 1e6;
    const int depth = static_cast<int>(s.depth);
    entries.push_back(
        {beginUs, 2, depth,
         "{\"ph\":\"B\",\"name\":" + jsonString(s.name) +
             ",\"cat\":\"span\"" + track + ",\"ts\":" +
             jsonNumber(beginUs) + ",\"args\":{\"id\":" +
             std::to_string(s.id) + "," + args + "}}"});
    entries.push_back({endUs, 1, -depth,
                       "{\"ph\":\"E\",\"name\":" + jsonString(s.name) +
                           ",\"cat\":\"span\"" + track + ",\"ts\":" +
                           jsonNumber(endUs) + "}"});
}

void
TraceEventDocument::addRecorder(int pid, const SpanRecorder &rec,
                                const std::string &rootArgs)
{
    // chrome://tracing keys rows on (pid, tid); unnamed threads fall
    // back to "thread <i>".
    for (const auto &[index, label] : rec.threadLabels()) {
        threadName(pid, index,
                   label.empty() ? "thread " + std::to_string(index)
                                 : label);
    }
    for (const SpanRecord &s : rec.snapshot())
        add(pid, s, s.parentId == 0 ? rootArgs : "");
}

std::string
TraceEventDocument::json(const std::string &topLevel) const
{
    std::vector<const Entry *> order;
    order.reserve(entries.size());
    for (const Entry &e : entries)
        order.push_back(&e);
    std::stable_sort(order.begin(), order.end(),
                     [](const Entry *a, const Entry *b) {
                         if (a->tsUs != b->tsUs)
                             return a->tsUs < b->tsUs;
                         if (a->phaseOrder != b->phaseOrder)
                             return a->phaseOrder < b->phaseOrder;
                         return a->depthKey < b->depthKey;
                     });

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"wall_start_unix_s\":"
       << jsonNumber(wallClockStartUnixSeconds()) << topLevel
       << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\n" << order[i]->json;
    }
    os << "\n]}\n";
    return os.str();
}

std::string
spansToTraceJson(const SpanRecorder &rec)
{
    TraceEventDocument doc;
    doc.addRecorder(1, rec);
    return doc.json();
}

void
writeSpansTraceJson(std::ostream &os, const SpanRecorder &rec)
{
    os << spansToTraceJson(rec);
}

namespace
{

/** Prometheus sample value (the format spells infinities +Inf). */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return jsonNumber(v);
}

/** irtherm_ prefix plus [a-zA-Z0-9_:] body, dots to underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "irtherm_";
    out.reserve(out.size() + name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/**
 * "# HELP <exposed> <text>" line. Help text is synthesized from the
 * registry's dotted name — the registry stores no doc strings, but
 * scrapers (and promtool check metrics) want the line present. HELP
 * text escapes only backslash and newline per the exposition format;
 * dotted names contain neither.
 */
std::string
promHelp(const std::string &exposed, const std::string &dottedName,
         const char *kindText)
{
    return "# HELP " + exposed + " irtherm " + kindText + " '" +
           dottedName + "'\n";
}

} // namespace

std::string
metricsToPrometheus(const MetricsRegistry &reg)
{
    syncThreadPoolGauges(reg);
    std::ostringstream os;
    for (const auto &[name, kind] : reg.names()) {
        const std::string base = promName(name);
        switch (kind) {
          case MetricKind::Counter:
            os << promHelp(base + "_total", name, "counter")
               << "# TYPE " << base << "_total counter\n"
               << base << "_total "
               << reg.counterAt(name).value() << "\n";
            break;
          case MetricKind::Gauge:
            os << promHelp(base, name, "gauge")
               << "# TYPE " << base << " gauge\n"
               << base << " "
               << promNumber(reg.gaugeAt(name).value()) << "\n";
            break;
          case MetricKind::Timer: {
            const Timer &t = reg.timerAt(name);
            const Histogram &d = t.distribution();
            const std::string s = base + "_seconds";
            os << promHelp(s, name, "timer")
               << "# TYPE " << s << " summary\n";
            for (const double q : {0.5, 0.95, 0.99}) {
                os << s << "{quantile=\"" << promNumber(q) << "\"} "
                   << promNumber(d.count() > 0
                                     ? histogramQuantile(d, q)
                                     : 0.0)
                   << "\n";
            }
            os << s << "_sum " << promNumber(t.totalSeconds()) << "\n"
               << s << "_count " << t.count() << "\n";
            break;
          }
          case MetricKind::Histogram: {
            const Histogram &h = reg.histogramAt(name);
            os << promHelp(base, name, "histogram")
               << "# TYPE " << base << " histogram\n";
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < Histogram::kBucketCount;
                 ++i) {
                const std::uint64_t c = h.bucketCount(i);
                if (c == 0)
                    continue;
                cum += c;
                os << base << "_bucket{le=\""
                   << promNumber(Histogram::bucketUpperBound(i))
                   << "\"} " << cum << "\n";
            }
            os << base << "_bucket{le=\"+Inf\"} " << h.count() << "\n"
               << base << "_sum " << promNumber(h.sum()) << "\n"
               << base << "_count " << h.count() << "\n";
            break;
          }
        }
    }
    return os.str();
}

} // namespace irtherm::obs
