// The export surface (OpenMetrics rendering + atomic file write) and the
// SLO evaluator: every objective kind, the failure modes (missing
// histogram, zero lookups, no trace pairs), and the report JSON that
// tools/bench_report.py merges into BENCH_keynote.json.
#include "obs/export.hpp"
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace mwsec::obs {
namespace {

Registry::Snapshot snapshot_with(
    std::vector<std::pair<std::string, std::uint64_t>> counters,
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms = {}) {
  Registry::Snapshot s;
  s.counters = std::move(counters);
  s.histograms = std::move(histograms);
  return s;
}

Histogram::Snapshot small_histogram() {
  Histogram::Snapshot h;
  h.bounds = {1.0, 10.0};
  h.buckets = {2, 3, 4};  // 2 <= 1, 3 in (1,10], 4 overflow
  h.count = 9;
  h.sum = 25.5;
  h.min = 0.5;
  h.max = 42.0;
  h.p50 = 8.0;
  h.p95 = 40.0;
  h.p99 = 42.0;
  return h;
}

TEST(OpenMetricsTest, NamesArePrefixedAndSanitized) {
  EXPECT_EQ(openmetrics_name("authz.decide_us"), "mwsec_authz_decide_us");
  EXPECT_EQ(openmetrics_name("webcom.decision-cache"),
            "mwsec_webcom_decision_cache");
  EXPECT_EQ(openmetrics_name("already_clean_09"), "mwsec_already_clean_09");
}

TEST(OpenMetricsTest, CountersRenderWithTypeAndTotalSuffix) {
  auto body = render_openmetrics(snapshot_with({{"net.sent", 5}}));
  EXPECT_NE(body.find("# TYPE mwsec_net_sent counter\n"), std::string::npos);
  EXPECT_NE(body.find("mwsec_net_sent_total 5\n"), std::string::npos);
  // OpenMetrics requires the terminator as the final line.
  EXPECT_TRUE(body.ends_with("# EOF\n"));
}

TEST(OpenMetricsTest, GaugesRenderTheirSignedValue) {
  Registry::Snapshot s;
  s.gauges = {{"queue.depth", -3}};
  auto body = render_openmetrics(s);
  EXPECT_NE(body.find("# TYPE mwsec_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(body.find("mwsec_queue_depth -3\n"), std::string::npos);
}

TEST(OpenMetricsTest, HistogramBucketsAreCumulative) {
  auto body = render_openmetrics(
      snapshot_with({}, {{"authz.decide_us", small_histogram()}}));
  const std::string n = "mwsec_authz_decide_us";
  EXPECT_NE(body.find("# TYPE " + n + " histogram\n"), std::string::npos);
  // Bucket counts accumulate: 2, then 2+3, then the total under +Inf.
  EXPECT_NE(body.find(n + "_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(body.find(n + "_bucket{le=\"10\"} 5\n"), std::string::npos);
  EXPECT_NE(body.find(n + "_bucket{le=\"+Inf\"} 9\n"), std::string::npos);
  EXPECT_NE(body.find(n + "_sum 25.5\n"), std::string::npos);
  EXPECT_NE(body.find(n + "_count 9\n"), std::string::npos);
}

TEST(OpenMetricsTest, FileWriteLandsAtomicallyAtTheFinalPath) {
  const std::string path =
      ::testing::TempDir() + "mwsec_export_test_metrics.prom";
  auto snapshot = snapshot_with({{"net.sent", 7}});
  auto status = write_openmetrics_file(path, snapshot);
  ASSERT_TRUE(status.ok()) << status.error().message;
  std::ifstream in(path);
  std::stringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), render_openmetrics(snapshot));
  // The staging file must not survive the rename.
  EXPECT_EQ(std::ifstream(path + ".tmp").good(), false);
  std::remove(path.c_str());
}

TEST(OpenMetricsTest, FileWriteToUnwritablePathReportsAnError) {
  auto status = write_openmetrics_file(
      "/nonexistent-dir-mwsec/metrics.prom", snapshot_with({}));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("openmetrics"), std::string::npos);
}

// --- SLO evaluator ---------------------------------------------------------

SloReport eval(std::vector<SloObjective> objectives,
               const Registry::Snapshot& snapshot,
               const std::vector<SpanRecord>& spans = {}) {
  return evaluate_slo(objectives, snapshot, spans);
}

TEST(SloTest, HistogramP99ComparesAgainstTheThreshold) {
  auto snapshot = snapshot_with({}, {{"authz.decide_us", small_histogram()}});
  auto ok = eval({{"p99", SloObjective::Kind::kHistogramP99Max,
                   "authz.decide_us", "", 100.0}},
                 snapshot);
  ASSERT_EQ(ok.results.size(), 1u);
  EXPECT_TRUE(ok.results[0].pass);
  EXPECT_DOUBLE_EQ(ok.results[0].value, 42.0);
  auto bad = eval({{"p99", SloObjective::Kind::kHistogramP99Max,
                    "authz.decide_us", "", 10.0}},
                  snapshot);
  EXPECT_FALSE(bad.results[0].pass);
  EXPECT_FALSE(bad.pass());
}

TEST(SloTest, MissingOrEmptyHistogramFailsLoudly) {
  auto report = eval({{"p99", SloObjective::Kind::kHistogramP99Max,
                       "no.such.histogram", "", 100.0}},
                     snapshot_with({}));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].pass);
  EXPECT_NE(report.results[0].detail.find("missing or empty"),
            std::string::npos);
}

TEST(SloTest, HitRateDividesHitsByAllLookups) {
  auto snapshot = snapshot_with({{"cache.hits", 6}, {"cache.misses", 4}});
  auto ok = eval({{"rate", SloObjective::Kind::kHitRateMin, "cache.hits",
                   "cache.misses", 0.5}},
                 snapshot);
  EXPECT_TRUE(ok.results[0].pass);
  EXPECT_DOUBLE_EQ(ok.results[0].value, 0.6);
  auto bad = eval({{"rate", SloObjective::Kind::kHitRateMin, "cache.hits",
                    "cache.misses", 0.7}},
                  snapshot);
  EXPECT_FALSE(bad.results[0].pass);
}

TEST(SloTest, HitRateWithZeroLookupsFails) {
  auto report = eval({{"rate", SloObjective::Kind::kHitRateMin, "cache.hits",
                       "cache.misses", 0.1}},
                     snapshot_with({}));
  EXPECT_FALSE(report.results[0].pass);
  EXPECT_NE(report.results[0].detail.find("no lookups"), std::string::npos);
}

TEST(SloTest, CounterFloorsAndCeilings) {
  auto snapshot = snapshot_with({{"denied", 2}, {"errors", 1}});
  auto report = eval(
      {{"denied", SloObjective::Kind::kCounterAtLeast, "denied", "", 1.0},
       {"errors", SloObjective::Kind::kCounterAtMost, "errors", "", 0.0}},
      snapshot);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].pass);   // 2 >= 1
  EXPECT_FALSE(report.results[1].pass);  // 1 > 0
  EXPECT_FALSE(report.pass());
}

SpanRecord span(std::string name, std::uint64_t trace, std::uint64_t start_ns,
                std::uint64_t duration_ns) {
  SpanRecord s;
  s.name = std::move(name);
  s.trace_id = trace;
  s.id = trace + start_ns;  // unique enough for the evaluator
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  return s;
}

TEST(SloTest, SpanGapMeasuresCauseStartToLatestEffectEnd) {
  // Trace 7: publish at t=1µs; two flips ending at t=102µs and t=51µs.
  // Trace 8: a publish with no flip — ignored, not a failure, as long as
  // some trace pairs them.
  std::vector<SpanRecord> spans = {
      span("sync.publish", 7, 1'000, 10),
      span("authz.verdict_flip", 7, 101'000, 1'000),
      span("authz.verdict_flip", 7, 50'000, 1'000),
      span("sync.publish", 8, 5'000, 10),
  };
  auto report = eval({{"lag", SloObjective::Kind::kSpanGapMax, "sync.publish",
                       "authz.verdict_flip", 200.0}},
                     snapshot_with({}), spans);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].pass);
  // (101000 + 1000 - 1000) ns = 101 µs.
  EXPECT_DOUBLE_EQ(report.results[0].value, 101.0);
  EXPECT_NE(report.results[0].detail.find("1 trace"), std::string::npos);

  auto tight = eval({{"lag", SloObjective::Kind::kSpanGapMax, "sync.publish",
                      "authz.verdict_flip", 50.0}},
                    snapshot_with({}), spans);
  EXPECT_FALSE(tight.results[0].pass);
}

TEST(SloTest, SpanGapWithNoPairedTraceFails) {
  std::vector<SpanRecord> spans = {span("sync.publish", 7, 1'000, 10)};
  auto report = eval({{"lag", SloObjective::Kind::kSpanGapMax, "sync.publish",
                       "authz.verdict_flip", 1e9}},
                     snapshot_with({}), spans);
  EXPECT_FALSE(report.results[0].pass);
  EXPECT_NE(report.results[0].detail.find("no trace pairs"),
            std::string::npos);
}

TEST(SloTest, ReportJsonCarriesEveryObjective) {
  auto snapshot = snapshot_with({{"denied", 2}});
  auto report = eval(
      {{"denied_after_revocation", SloObjective::Kind::kCounterAtLeast,
        "denied", "", 1.0}},
      snapshot);
  EXPECT_TRUE(report.pass());
  auto json = report.to_json();
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"denied_after_revocation\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter_at_least\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":2"), std::string::npos);
  EXPECT_NE(json.find("\"threshold\":1"), std::string::npos);
}

TEST(SloTest, ReportJsonEscapesControlBytesInNamesAndDetails) {
  // A raw newline inside a JSON string is invalid JSON: the report must
  // stay parseable whatever an objective's detail says.
  SloReport report;
  SloResult r;
  r.name = "lag\tp99";
  r.kind = "span_gap_max_us";
  r.detail = "no trace pairs\nsee \"sync.publish\"";
  report.results.push_back(r);
  const auto json = report.to_json();
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << json;
  EXPECT_NE(json.find("\"name\":\"lag\\tp99\""), std::string::npos);
  EXPECT_NE(
      json.find("\"detail\":\"no trace pairs\\nsee \\\"sync.publish\\\"\""),
      std::string::npos)
      << json;
}

TEST(SloTest, DefaultObjectivesCoverTheRevocationScenario) {
  auto objectives = default_slo_objectives();
  ASSERT_EQ(objectives.size(), 5u);
  std::vector<std::string> names;
  for (const auto& o : objectives) names.push_back(o.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "decide_p99_us"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "revoke_propagation_us"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "decision_cache_hit_rate"),
            names.end());
  // Evaluating them on an empty run fails every objective — the SLOs
  // demand evidence, they do not vacuously pass.
  auto report = eval(objectives, snapshot_with({}));
  EXPECT_FALSE(report.pass());
}

}  // namespace
}  // namespace mwsec::obs
