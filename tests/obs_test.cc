/**
 * @file
 * Observability layer: metrics registry semantics, histogram
 * bucketing, JSON/CSV export, the span recorder's ring, tails and
 * instants, and the pluggable logging sink.
 *
 * Value assertions are skipped when the instrumentation is compiled
 * out (IRTHERM_ENABLE_METRICS=OFF) — update methods are no-ops then
 * by design — but registration, export, and schema stability are
 * asserted in both configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

using namespace irtherm;

namespace
{

/**
 * Minimal recursive-descent JSON syntax checker; accepts exactly the
 * RFC 8259 grammar (no trailing garbage). Returns false rather than
 * throwing so EXPECT_TRUE reports the offending document.
 */
class JsonChecker
{
  public:
    static bool
    valid(const std::string &text)
    {
        JsonChecker c(text);
        c.skipWs();
        if (!c.value())
            return false;
        c.skipWs();
        return c.pos == text.size();
    }

  private:
    explicit JsonChecker(const std::string &t) : s(t) {}

    const std::string &s;
    std::size_t pos = 0;

    bool eof() const { return pos >= s.size(); }
    char peek() const { return s[pos]; }

    void
    skipWs()
    {
        while (!eof() && (s[pos] == ' ' || s[pos] == '\t' ||
                          s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (s.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    bool
    string()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos;
                if (eof())
                    return false;
                const char e = peek();
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (eof() || !std::isxdigit(
                                         static_cast<unsigned char>(
                                             peek())))
                            return false;
                    }
                } else if (!std::string("\"\\/bfnrt").find(e) &&
                           e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return false;
                }
            }
            ++pos;
        }
        if (eof())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (!eof() && peek() == '-')
            ++pos;
        while (!eof() && std::isdigit(
                             static_cast<unsigned char>(peek())))
            ++pos;
        if (!eof() && peek() == '.') {
            ++pos;
            while (!eof() && std::isdigit(
                                 static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos;
            while (!eof() && std::isdigit(
                                 static_cast<unsigned char>(peek())))
                ++pos;
        }
        return pos > start;
    }

    bool
    value()
    {
        skipWs();
        if (eof())
            return false;
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return false;
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }
};

// ---------------------------------------------------------------
// MetricsRegistry semantics
// ---------------------------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSameInstrument)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("x.y.z");
    obs::Counter &b = reg.counter("x.y.z");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("x.y.z"));
    EXPECT_FALSE(reg.has("x.y"));
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    obs::MetricsRegistry reg;
    reg.counter("a.counter");
    EXPECT_THROW(reg.gauge("a.counter"), FatalError);
    EXPECT_THROW(reg.timer("a.counter"), FatalError);
    EXPECT_THROW(reg.histogram("a.counter"), FatalError);
}

TEST(MetricsRegistry, RejectsMalformedNames)
{
    obs::MetricsRegistry reg;
    EXPECT_THROW(reg.counter(""), FatalError);
    EXPECT_THROW(reg.counter("has space"), FatalError);
    EXPECT_THROW(reg.counter("has\"quote"), FatalError);
    EXPECT_THROW(reg.counter("has\nnewline"), FatalError);
}

TEST(MetricsRegistry, NamesAreSortedWithKinds)
{
    obs::MetricsRegistry reg;
    reg.timer("b.timer");
    reg.counter("a.counter");
    reg.histogram("c.hist");
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0].first, "a.counter");
    EXPECT_EQ(names[0].second, obs::MetricKind::Counter);
    EXPECT_EQ(names[1].first, "b.timer");
    EXPECT_EQ(names[1].second, obs::MetricKind::Timer);
    EXPECT_EQ(names[2].first, "c.hist");
    EXPECT_EQ(names[2].second, obs::MetricKind::Histogram);
}

TEST(MetricsRegistry, CounterGaugeTimerSemantics)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("t.c");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge &g = reg.gauge("t.g");
    g.set(3.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    obs::Timer &t = reg.timer("t.t");
    t.addNanos(1'000'000'000);
    t.addNanos(500'000'000);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_DOUBLE_EQ(t.totalSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(t.meanSeconds(), 0.75);
}

TEST(MetricsRegistry, ScopedTimerCountsInvocations)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Timer &t = reg.timer("t.scoped");
    {
        obs::ScopedTimer span(t);
    }
    {
        obs::ScopedTimer span(t);
    }
    EXPECT_EQ(t.count(), 2u);
    EXPECT_GE(t.totalSeconds(), 0.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("r.c");
    obs::Histogram &h = reg.histogram("r.h");
    c.add(7);
    h.observe(2.0);
    reg.reset();
    EXPECT_EQ(reg.size(), 2u); // still registered
    EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------

TEST(Histogram, NonPositiveValuesLandInUnderflowBucket)
{
    EXPECT_EQ(obs::Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(-1.0), 0u);
    // Below the smallest resolved power of two.
    EXPECT_EQ(obs::Histogram::bucketIndex(
                  std::ldexp(1.0, obs::Histogram::kMinExp - 3)),
              0u);
}

TEST(Histogram, BucketBoundsBracketTheValue)
{
    const double samples[] = {1e-9, 3.33e-6, 0.5,  1.0,
                              237.0, 1e5,    1e-12};
    for (double v : samples) {
        const std::size_t i = obs::Histogram::bucketIndex(v);
        ASSERT_GE(i, 1u) << v;
        ASSERT_LT(i, obs::Histogram::kBucketCount) << v;
        EXPECT_LE(obs::Histogram::bucketLowerBound(i), v) << v;
        EXPECT_LT(v, obs::Histogram::bucketUpperBound(i)) << v;
    }
}

TEST(Histogram, OverflowValuesLandInTopBucket)
{
    EXPECT_EQ(obs::Histogram::bucketIndex(
                  std::ldexp(1.0, obs::Histogram::kMaxExp + 5)),
              obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, TracksCountSumMinMaxMean)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::Histogram h;
    h.observe(1.0);
    h.observe(2.0);
    h.observe(9.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 12.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    // 1.0 and 2.0(exclusive upper) differ by one bucket from 9.0.
    EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(1.0)), 1u);
    EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(9.0)), 1u);
}

// ---------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------

TEST(Export, StatsJsonIsValidAndCarriesSchemaAndNames)
{
    obs::MetricsRegistry reg;
    reg.counter("numeric.test.steps").add(5);
    reg.gauge("core.test.sim_time_s").set(1.25);
    reg.timer("cli.test.phase_time").addNanos(2'000'000);
    reg.histogram("numeric.test.step_size_s").observe(3.33e-6);

    const std::string doc = obs::metricsToJson(reg);
    EXPECT_TRUE(JsonChecker::valid(doc)) << doc;
    EXPECT_NE(doc.find("\"irtherm.stats.v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"numeric.test.steps\""), std::string::npos);
    EXPECT_NE(doc.find("\"core.test.sim_time_s\""), std::string::npos);
    EXPECT_NE(doc.find("\"cli.test.phase_time\""), std::string::npos);
    EXPECT_NE(doc.find("\"numeric.test.step_size_s\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"metrics_enabled\""), std::string::npos);
}

TEST(Export, StatsJsonValuesRoundTrip)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::MetricsRegistry reg;
    reg.counter("rt.count").add(12345);
    reg.gauge("rt.gauge").set(0.1); // not exactly representable
    const std::string doc = obs::metricsToJson(reg);
    EXPECT_NE(doc.find("12345"), std::string::npos);
    EXPECT_NE(doc.find("0.1"), std::string::npos);
}

TEST(Export, CsvHasHeaderAndOneRowPerMetric)
{
    obs::MetricsRegistry reg;
    reg.counter("csv.a").add(1);
    reg.gauge("csv.b").set(2.0);
    std::ostringstream os;
    obs::writeMetricsCsv(os, reg);
    const std::string text = os.str();
    std::size_t lines = 0;
    for (char ch : text)
        lines += ch == '\n';
    EXPECT_EQ(lines, 3u) << text; // header + 2 rows
    EXPECT_NE(text.find("metric"), std::string::npos);
    EXPECT_NE(text.find("csv.a"), std::string::npos);
}

TEST(Export, CsvQuotesCellsContainingCommas)
{
    obs::MetricsRegistry reg;
    reg.counter("weird,name").add(1);
    std::ostringstream os;
    obs::writeMetricsCsv(os, reg);
    EXPECT_NE(os.str().find("\"weird,name\""), std::string::npos)
        << os.str();
}

TEST(Export, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

/** The journal's number form, as printf spells it. */
std::string
printf17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The telemetry number form: "%g" when it round-trips, else
 *  "%.17g", null when not finite. */
std::string
printfShortest(double v)
{
    if (!std::isfinite(v))
        return "null";
    char shortBuf[40];
    std::snprintf(shortBuf, sizeof(shortBuf), "%g", v);
    double back = 0.0;
    std::sscanf(shortBuf, "%lf", &back);
    return back == v ? shortBuf : printf17(v);
}

/** Seeded random bit patterns plus the edge cases of both forms. */
std::vector<double>
numberCorpus()
{
    std::vector<double> vals = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, 1e-4, 123456.0, 1234567.0,
        1e15, 1e16, 1e17, 1e21, 1e22, 9007199254740993.0, 2.5, 1e100,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (int i = -1100; i <= 1100; ++i)
        vals.push_back(static_cast<double>(i)); // integers
    SplitMix64 rng(0x6a736f6eULL);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        vals.push_back(v); // every exponent, subnormals, NaN payloads
        vals.push_back(rng.uniform() * 100.0); // temperature-like
    }
    return vals;
}

TEST(Export, JsonNumberExactMatchesPrintf17ByteForByte)
{
    for (const double v : numberCorpus())
        ASSERT_EQ(obs::jsonNumberExact(v), printf17(v)) << printf17(v);
}

TEST(Export, JsonNumberMatchesShortestPrintfFormByteForByte)
{
    for (const double v : numberCorpus())
        ASSERT_EQ(obs::jsonNumber(v), printfShortest(v)) << printf17(v);
    EXPECT_EQ(obs::jsonNumber(0.1), "0.1");
    EXPECT_EQ(obs::jsonNumber(1.0 / 3.0), "0.33333333333333331");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(-HUGE_VAL), "null");
}

// ---------------------------------------------------------------
// SpanRecorder: ring, capacity, tails, instants
// ---------------------------------------------------------------

namespace
{

obs::SpanRecord
numbered(int i)
{
    obs::SpanRecord r;
    r.id = static_cast<std::uint64_t>(i) + 1;
    r.name = "t.r" + std::to_string(i);
    return r;
}

/** Restores the global recorder to off, empty, default capacity. */
struct GlobalRecorderGuard
{
    ~GlobalRecorderGuard()
    {
        obs::SpanRecorder &g = obs::SpanRecorder::global();
        g.setEnabled(false);
        g.setCapacity(obs::SpanRecorder::kDefaultCapacity);
        g.clear();
    }
};

} // namespace

TEST(SpanRecorder, SetCapacityDiscardsAndClearZeroes)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    obs::SpanRecorder rec(4);
    rec.setEnabled(true);
    rec.record(numbered(0));
    rec.setCapacity(2);
    EXPECT_EQ(rec.capacity(), 2u);
    EXPECT_EQ(rec.size(), 0u);

    for (int i = 1; i < 4; ++i)
        rec.record(numbered(i));
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(SpanRecorder, ZeroCapacityIsFatal)
{
    EXPECT_THROW(obs::SpanRecorder rec(0), FatalError);
    obs::SpanRecorder rec(1);
    EXPECT_THROW(rec.setCapacity(0), FatalError);
}

TEST(SpanRecorder, TailReturnsExactlyTheRecordsPastTheWatermark)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    // (k recorded before the first tail, m after it, ring capacity):
    // no overflow, overflow of only old records, and overflow into
    // the new ones.
    struct Case
    {
        int k;
        int m;
        std::size_t cap;
    };
    for (const Case c : {Case{3, 4, 16}, Case{5, 3, 4}, Case{2, 7, 4},
                         Case{0, 0, 4}}) {
        SCOPED_TRACE("k=" + std::to_string(c.k) +
                     " m=" + std::to_string(c.m) +
                     " cap=" + std::to_string(c.cap));
        obs::SpanRecorder rec(c.cap);
        rec.setEnabled(true);
        for (int i = 0; i < c.k; ++i)
            rec.record(numbered(i));
        const obs::SpanRecorder::Tail first = rec.tail(0);
        EXPECT_EQ(first.watermark, static_cast<std::uint64_t>(c.k));
        EXPECT_EQ(first.records.size(),
                  std::min<std::size_t>(c.k, c.cap));
        EXPECT_EQ(first.overwritten, c.k - first.records.size());

        for (int i = c.k; i < c.k + c.m; ++i)
            rec.record(numbered(i));
        const obs::SpanRecorder::Tail next = rec.tail(first.watermark);
        const std::size_t kept = std::min<std::size_t>(c.m, c.cap);
        EXPECT_EQ(next.watermark,
                  static_cast<std::uint64_t>(c.k + c.m));
        EXPECT_EQ(next.overwritten, c.m - kept);
        ASSERT_EQ(next.records.size(), kept);
        // The newest `kept` of the m new records, oldest first.
        for (std::size_t j = 0; j < kept; ++j) {
            EXPECT_EQ(next.records[j].name,
                      "t.r" + std::to_string(c.k + c.m - kept + j));
        }
        // Nothing new: an empty tail at the same watermark.
        const obs::SpanRecorder::Tail idle = rec.tail(next.watermark);
        EXPECT_TRUE(idle.records.empty());
        EXPECT_EQ(idle.overwritten, 0u);
        EXPECT_EQ(idle.watermark, next.watermark);
    }
}

TEST(SpanRecorder, DisabledRecorderRecordsNoInstant)
{
    GlobalRecorderGuard guard;
    obs::SpanRecorder &g = obs::SpanRecorder::global();
    g.clear();
    g.setEnabled(false);
    IRTHERM_EVENT("t.dark", {"x", 1});
    obs::SpanRecorder::recordInstant("t.dark_direct", {{"x", 2}});
    EXPECT_EQ(g.size(), 0u);
    EXPECT_EQ(g.recorded(), 0u);
}

TEST(SpanRecorder, EventMacroRecordsAnInstantOnlyWhileEnabled)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "instrumentation compiled out";
    GlobalRecorderGuard guard;
    obs::SpanRecorder &g = obs::SpanRecorder::global();
    g.clear();
    IRTHERM_EVENT("t.off", {"x", 1});
    EXPECT_EQ(g.size(), 0u);

    g.setEnabled(true);
    IRTHERM_EVENT("t.on", {"x", 2}, {"note", "line\nbreak"});
    g.setEnabled(false);
    const std::vector<obs::SpanRecord> recs = g.snapshot();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].name, "t.on");
    EXPECT_TRUE(recs[0].instant);
    EXPECT_EQ(recs[0].durationSeconds, 0.0);
    EXPECT_EQ(recs[0].parentId, 0u);
    ASSERT_EQ(recs[0].attrs.size(), 2u);
    EXPECT_DOUBLE_EQ(recs[0].attrs[0].num, 2.0);
    EXPECT_EQ(recs[0].attrs[1].text, "line\nbreak");
}

// ---------------------------------------------------------------
// Logging sink / levels
// ---------------------------------------------------------------

/** Restores sink, level, and quiet state on scope exit. */
class LogStateGuard
{
  public:
    LogStateGuard() : saved(setLogSink({})), level(logLevel())
    {
        setLogSink(saved);
    }
    ~LogStateGuard()
    {
        setLogSink(saved);
        setLogLevel(level);
        setQuiet(false);
    }

  private:
    LogSink saved;
    LogLevel level;
};

TEST(Logging, SinkSwapCapturesAndRestores)
{
    LogStateGuard guard;
    std::vector<std::string> captured;
    setLogSink([&](LogLevel, const std::string &msg) {
        captured.push_back(msg);
    });
    warn("value is ", 42, " exactly");
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "value is 42 exactly");

    // Empty function restores the default stderr sink; nothing more
    // lands in the captured vector.
    setLogSink({});
    setQuiet(true); // keep the default sink silent for this emit
    warn("not captured");
    EXPECT_EQ(captured.size(), 1u);
}

TEST(Logging, LevelThresholdFiltersBelow)
{
    LogStateGuard guard;
    std::vector<LogLevel> seen;
    setLogSink([&](LogLevel level, const std::string &) {
        seen.push_back(level);
    });
    setLogLevel(LogLevel::Warn);
    debugLog("dropped");
    inform("dropped");
    warn("kept");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], LogLevel::Warn);

    setLogLevel(LogLevel::Silent);
    warn("dropped");
    EXPECT_EQ(seen.size(), 1u);
}

TEST(Logging, QuietSuppressesBelowError)
{
    LogStateGuard guard;
    std::size_t hits = 0;
    setLogSink([&](LogLevel, const std::string &) { ++hits; });
    setQuiet(true);
    warn("suppressed");
    inform("suppressed");
    EXPECT_EQ(hits, 0u);
    logMessage(LogLevel::Error, "errors still pass");
    EXPECT_EQ(hits, 1u);
    setQuiet(false);
    warn("back");
    EXPECT_EQ(hits, 2u);
}

TEST(Logging, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("silent"), LogLevel::Silent);
    EXPECT_THROW(parseLogLevel("chatty"), FatalError);
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

} // namespace
