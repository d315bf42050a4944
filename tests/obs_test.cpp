// Unit tests for catalyst::obs: the seqlock ring buffer, Span recording
// under an injected FakeClock, the metrics registry and its power-of-two
// histogram geometry, and the exporters (validated by round-tripping the
// emitted JSON through the json library's strict parser).
#include "obs/export.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "faults/faults.hpp"
#include "json/json.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace catalyst::obs {
namespace {

SpanRecord make_rec(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t tid = 1) {
  SpanRecord rec{};
  std::snprintf(rec.name, sizeof rec.name, "%s", name);
  rec.args[0] = '\0';
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.thread_id = tid;
  return rec;
}

/// Every test starts and ends with a quiet, clock-restored global tracer so
/// process-wide state never leaks between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_world(); }
  void TearDown() override { reset_world(); }

  static void reset_world() {
    Tracer::instance().enable(false);
    Tracer::instance().set_clock(nullptr);
    Tracer::instance().reset();
    Metrics::instance().reset();
  }
};

TEST_F(ObsTest, TraceBufferRoundTripsRecordsInOrder) {
  TraceBuffer buf(8);
  buf.publish(make_rec("a", 0, 10));
  buf.publish(make_rec("b", 10, 20));
  buf.publish(make_rec("c", 20, 30));
  const auto spans = buf.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_STREQ(spans[1].name, "b");
  EXPECT_STREQ(spans[2].name, "c");
  EXPECT_EQ(spans[2].end_ns, 30);
  EXPECT_EQ(buf.published(), 3u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST_F(ObsTest, TraceBufferWrapKeepsNewestAndCountsDropped) {
  TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    const std::string name = "s" + std::to_string(i);
    buf.publish(make_rec(name.c_str(), i, i + 1));
  }
  EXPECT_EQ(buf.published(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto spans = buf.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first among the survivors: s6..s9.
  EXPECT_STREQ(spans[0].name, "s6");
  EXPECT_STREQ(spans[3].name, "s9");
}

TEST_F(ObsTest, TraceBufferConcurrentPublishLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  TraceBuffer buf(1024);  // capacity > total: nothing may be dropped
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&buf, t] {
      const std::string name = "thread" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        buf.publish(make_rec(name.c_str(), i, i + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(buf.published(), kThreads * kPerThread);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto spans = buf.snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every record must be intact (a valid thread name, consistent interval) --
  // a torn copy would show a mangled name or end < start.
  for (const auto& rec : spans) {
    EXPECT_EQ(std::string(rec.name).rfind("thread", 0), 0u) << rec.name;
    EXPECT_EQ(rec.end_ns, rec.start_ns + 1);
  }
}

/// This process's resident set in bytes (/proc/self/statm, read only), or 0
/// where the file does not exist.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int read = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  if (read != 2) return 0;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The record storage is never initialized (I6), so a default-capacity ring
// makes resident only its seq words and the pages its spans land on -- not
// the 18 MB a value-initialized slot array would write.
TEST_F(ObsTest, TraceBufferRecordPagesStayUnfaultedUntilSpansLand) {
  const std::size_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "/proc/self/statm is not readable";
  auto buf = std::make_unique<TraceBuffer>();
  for (int i = 0; i < 16; ++i) buf->publish(make_rec("early", i, i + 1));
  const std::size_t after = resident_bytes();
  const std::size_t record_bytes =
      TraceBuffer::kDefaultCapacity * sizeof(SpanRecord);
  EXPECT_LT(after > before ? after - before : 0, record_bytes / 4)
      << "resident " << before << " -> " << after << " bytes";
  EXPECT_EQ(buf->snapshot().size(), 16u);
}

TEST_F(ObsTest, TraceBufferUnwrittenSlotsNeverSurface) {
  TraceBuffer buf;
  ASSERT_EQ(buf.capacity(), TraceBuffer::kDefaultCapacity);
  buf.publish(make_rec("a", 0, 10));
  buf.publish(make_rec("b", 10, 20));
  buf.publish(make_rec("c", 20, 30));
  auto spans = buf.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_STREQ(spans[1].name, "b");
  EXPECT_STREQ(spans[2].name, "c");

  // clear() zeroes the seq words only; the old record bytes stay behind
  // and must not come back.
  buf.clear();
  EXPECT_TRUE(buf.snapshot().empty());

  const std::size_t cap = buf.capacity();
  for (std::size_t i = 0; i < cap + 3; ++i) {
    const auto t = static_cast<std::int64_t>(i);
    buf.publish(make_rec("wrap", t, t + 1));
  }
  EXPECT_EQ(buf.dropped(), 3u);
  spans = buf.snapshot();
  ASSERT_EQ(spans.size(), cap);
  for (std::size_t i = 0; i < cap; ++i) {
    ASSERT_EQ(spans[i].start_ns, static_cast<std::int64_t>(i + 3)) << i;
  }
}

// Writers stay below the capacity, so no slot is written twice: every
// record the reader copies was published before the even seq it saw, and a
// reader that sees an empty or mid-write slot skips it (I2, I6).
TEST_F(ObsTest, TraceBufferSnapshotDuringConcurrentPublishSeesWholeRecords) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4096;
  static_assert(kWriters * kPerWriter < TraceBuffer::kDefaultCapacity);
  TraceBuffer buf;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&buf, &running, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "w%d.%d", w, i);
        const std::int64_t start = std::int64_t{w} * 1000000 + i;
        SpanRecord rec = make_rec(name, start, start + 1,
                                  static_cast<std::uint32_t>(w + 1));
        std::snprintf(rec.args, sizeof rec.args, "w=%d;i=%d;", w, i);
        buf.publish(rec);
      }
      running.fetch_sub(1);
    });
  }
  std::size_t checked = 0;
  const auto check = [&checked](const std::vector<SpanRecord>& spans) {
    for (const SpanRecord& rec : spans) {
      int w = -1;
      int i = -1;
      int aw = -2;
      int ai = -2;
      ASSERT_EQ(std::sscanf(rec.name, "w%d.%d", &w, &i), 2) << rec.name;
      ASSERT_EQ(std::sscanf(rec.args, "w=%d;i=%d;", &aw, &ai), 2) << rec.args;
      ASSERT_EQ(aw, w) << rec.name << " / " << rec.args;
      ASSERT_EQ(ai, i) << rec.name << " / " << rec.args;
      ASSERT_EQ(rec.start_ns, std::int64_t{w} * 1000000 + i) << rec.name;
      ASSERT_EQ(rec.end_ns, rec.start_ns + 1) << rec.name;
      ASSERT_EQ(rec.thread_id, static_cast<std::uint32_t>(w + 1)) << rec.name;
      ++checked;
    }
  };
  while (running.load() > 0) {
    check(buf.snapshot());
    if (HasFatalFailure()) break;
  }
  for (auto& t : writers) t.join();
  const auto all = buf.snapshot();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  check(all);
  EXPECT_GE(checked, all.size());
}

TEST_F(ObsTest, ThisThreadIdIsStablePerThreadAndUniqueAcross) {
  const std::uint32_t mine = this_thread_id();
  EXPECT_EQ(this_thread_id(), mine);
  std::uint32_t other = 0;
  std::thread([&other] { other = this_thread_id(); }).join();
  EXPECT_NE(other, mine);
  EXPECT_NE(other, 0u);
}

TEST_F(ObsTest, SpanUnderFakeClockIsDeterministic) {
  faults::FakeClock clock;  // virtual time: each now() reads then +1us
  Tracer::instance().set_clock(&clock);
  Tracer::instance().enable(true);
  {
    Span span("unit.test");
    span.arg("k", 42);
  }
  const auto spans = Tracer::instance().buffer().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "unit.test");
  EXPECT_STREQ(spans[0].args, "k=42;");
  EXPECT_EQ(spans[0].start_ns, 0);
  EXPECT_EQ(spans[0].end_ns, 1000);  // exactly one virtual microsecond later
  EXPECT_NE(spans[0].thread_id, 0u);
}

TEST_F(ObsTest, SpanDurationIsReusableAfterEnd) {
  faults::FakeClock clock;
  Tracer::instance().set_clock(&clock);
  Tracer::instance().enable(true);
  Span span("timed");
  EXPECT_EQ(span.duration_ns(), 0);  // not ended yet
  clock.sleep_for(std::chrono::microseconds(5));
  span.end();
  EXPECT_EQ(span.duration_ns(), 6000);  // 5us slept + 1us now() tick
  span.end();                           // idempotent
  EXPECT_EQ(Tracer::instance().buffer().published(), 1u);
}

TEST_F(ObsTest, SpanIsInertWhenDisabledOrUnnamed) {
  Tracer::instance().enable(false);
  {
    Span span("ignored");
    EXPECT_FALSE(span.active());
    span.arg("k", 1);
  }
  Tracer::instance().enable(true);
  {
    Span span(nullptr);  // the "no span on the happy path" idiom
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Tracer::instance().buffer().published(), 0u);
}

TEST_F(ObsTest, SpanArgsFormatAndSanitizeEveryType) {
  faults::FakeClock clock;
  Tracer::instance().set_clock(&clock);
  Tracer::instance().enable(true);
  {
    Span span("args");
    span.arg("flag", true);
    span.arg("x", 0.5);
    span.arg("n", std::uint64_t{7});
    span.arg("s", std::string("a;b=c"));  // separators must be neutralized
  }
  const auto spans = Tracer::instance().buffer().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].args, "flag=true;x=0.5;n=7;s=a_b_c;");
}

TEST_F(ObsTest, CountAndObserveAreGatedOnEnabled) {
  count("gated", 5);  // disabled: must not register
  EXPECT_EQ(Metrics::instance().snapshot().counter("gated"), 0u);
  Tracer::instance().enable(true);
  count("gated", 5);
  observe("lat", 3.0);
  const auto snap = Metrics::instance().snapshot();
  EXPECT_EQ(snap.counter("gated"), 5u);
  ASSERT_NE(snap.histogram("lat"), nullptr);
  EXPECT_EQ(snap.histogram("lat")->total_count, 1u);
}

TEST_F(ObsTest, HistogramBucketGeometry) {
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-3.5), 0u);
  EXPECT_EQ(histogram_upper_bound(0), 0.0);
  // Buckets are monotone in the value and the bound round-trips: the upper
  // bound of bucket i lands in bucket i (bounds are inclusive).
  std::size_t prev = 0;
  for (double v = 1e-7; v < 1e13; v *= 3.7) {
    const std::size_t b = histogram_bucket(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, kNumBuckets);
    prev = b;
  }
  for (std::size_t i = 1; i + 1 < kNumBuckets; ++i) {
    EXPECT_EQ(histogram_bucket(histogram_upper_bound(i)), i) << i;
  }
  EXPECT_TRUE(std::isinf(histogram_upper_bound(kNumBuckets - 1)));
  EXPECT_EQ(histogram_bucket(1e300), kNumBuckets - 1);
}

TEST_F(ObsTest, MetricsRegistryAggregatesAndSorts) {
  Metrics& m = Metrics::instance();
  m.add("zeta", 1);
  m.add("alpha", 2);
  m.add("alpha", 3);
  m.observe("h", 2.0);
  m.observe("h", 8.0);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");  // deterministic export order
  EXPECT_EQ(snap.counter("alpha"), 5u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  const HistogramSnapshot* h = snap.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 10.0);
  EXPECT_DOUBLE_EQ(h->min, 2.0);
  EXPECT_DOUBLE_EQ(h->max, 8.0);
  m.reset();
  EXPECT_TRUE(m.snapshot().counters.empty());
}

TEST_F(ObsTest, ConfigHashIsStableHex) {
  const std::string h = config_hash("branch|machine=saphira-cpu|tau=1e-10");
  EXPECT_EQ(h.size(), 16u);
  for (const char c : h) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << c;
  }
  EXPECT_EQ(config_hash("branch|machine=saphira-cpu|tau=1e-10"), h);
  EXPECT_NE(config_hash("branch|machine=saphira-cpu|tau=1e-9"), h);
}

TEST_F(ObsTest, AggregateStageTimingsSumsAndOrdersByFirstStart) {
  const std::vector<SpanRecord> spans = {
      make_rec("stage.qrcp", 200, 300),
      make_rec("stage.collect", 0, 100),
      make_rec("other.span", 50, 60),     // not a stage: ignored
      make_rec("stage.collect", 400, 500),
  };
  const auto stages = aggregate_stage_timings(spans);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "collect");  // first start 0 beats qrcp's 200
  EXPECT_EQ(stages[0].wall_ns, 200);     // both collect spans summed
  EXPECT_EQ(stages[1].name, "qrcp");
  EXPECT_EQ(stages[1].wall_ns, 100);
}

TEST_F(ObsTest, ChromeTraceExportIsStrictJsonWithNormalizedTimes) {
  Metrics::instance().add("collect.retries", 3);
  const std::vector<SpanRecord> spans = {
      make_rec("stage.collect", 5000, 9000, 1),
      make_rec("stage.qrcp", 11000, 12000, 2),
  };
  const auto text = to_chrome_trace(spans, Metrics::instance().snapshot());
  const auto doc = json::parse(text);  // throws on any malformation
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(std::size_t{0}).at("ph").as_string(), "X");
  EXPECT_EQ(events.at(std::size_t{0}).at("name").as_string(), "stage.collect");
  // Timestamps are microseconds normalized to the earliest span.
  EXPECT_DOUBLE_EQ(events.at(std::size_t{0}).at("ts").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(events.at(std::size_t{0}).at("dur").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(events.at(std::size_t{1}).at("ts").as_number(), 6.0);
  EXPECT_DOUBLE_EQ(
      doc.at("otherData").at("counters").at("collect.retries").as_number(),
      3.0);
}

TEST_F(ObsTest, TraceIdsPastTwoToThe53AreExact) {
  // 2^63 + 1 has no double: read through strtod it would come out as
  // 9.2233720368547758e+18 and name a different request.
  constexpr std::uint64_t kId = (std::uint64_t{1} << 63) + 1;
  SpanRecord rec = make_rec("service.request", 100, 200);
  std::snprintf(rec.args, sizeof rec.args, "trace=%llu;",
                static_cast<unsigned long long>(kId));
  std::size_t matched = 0;
  const auto trace =
      json::parse(trace_fragment_json({rec, make_rec("other", 0, 1)}, kId,
                                      &matched));
  EXPECT_EQ(matched, 1u);
  ASSERT_EQ(trace.at("traceEvents").size(), 1u);
  EXPECT_EQ(trace.at("traceEvents").at(0).at("args").at("trace").as_u64(),
            kId);

  FlightRecord flight;
  flight.trace_id = kId;
  flight.verdict = "ok";
  const auto dump = json::parse(to_flight_json({flight}, 1, 4));
  EXPECT_EQ(dump.at("records").at(0).at("trace_id").as_u64(), kId);
}

TEST_F(ObsTest, RunManifestExportIsStrictJson) {
  RunManifest m;
  m.tool = "catalyst analyze";
  m.category = "branch";
  m.machine = "saphira-cpu";
  m.git_sha = "deadbeef";
  m.config = "branch|machine=saphira-cpu";
  m.config_hash = config_hash(m.config);
  m.tau = 1e-10;
  m.alpha = 0.5;
  m.repetitions = 10;
  m.stages = {{"collect", 1000}, {"qrcp", 500}};
  m.funnel = {{"measured", 100}, {"noise_kept", 20}, {"selected", 4}};
  m.spans_published = 42;
  const auto doc = json::parse(to_run_manifest(m));
  EXPECT_EQ(doc.at("format").as_string(), kRunManifestFormat);
  EXPECT_EQ(doc.at("git_sha").as_string(), "deadbeef");
  EXPECT_DOUBLE_EQ(doc.at("tau").as_number(), 1e-10);
  ASSERT_EQ(doc.at("stages").size(), 2u);
  EXPECT_EQ(doc.at("stages").at(std::size_t{0}).at("name").as_string(),
            "collect");
  EXPECT_DOUBLE_EQ(doc.at("funnel").at("measured").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(doc.at("spans_published").as_number(), 42.0);
}

TEST_F(ObsTest, FormatStatsMentionsEveryIngredient) {
  Metrics::instance().add("collect.retries", 7);
  Metrics::instance().observe("qrcp.pivot_score", 1.5);
  const std::vector<StageTiming> stages = {{"collect", 2'000'000}};
  const auto text =
      format_stats(Metrics::instance().snapshot(), stages, 10, 1);
  EXPECT_NE(text.find("collect"), std::string::npos);
  EXPECT_NE(text.find("collect.retries"), std::string::npos);
  EXPECT_NE(text.find("qrcp.pivot_score"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);  // spans published
}

}  // namespace
}  // namespace catalyst::obs
