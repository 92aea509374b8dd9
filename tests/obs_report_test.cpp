// Metrics registry (src/obs) and core helper tests: metric semantics,
// registration rules, escaping, strict number parsing, and the
// byte-identical-for-identical-seeds determinism contract of a run's
// record.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/mobidist.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

using net::MhId;
using net::NetConfig;
using net::Network;

// --------------------------------------------------------------------------
// Counter / Gauge / Histogram semantics
// --------------------------------------------------------------------------

TEST(Counter, IncrementAndImplicitConversion) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  ++counter;
  counter += 4;
  counter.inc();
  EXPECT_EQ(counter.value(), 6u);
  const std::uint64_t as_int = counter;  // shim for the old uint64_t fields
  EXPECT_EQ(as_int, 6u);
  EXPECT_EQ(counter, 6u);
}

TEST(Gauge, SetAddAndHighWaterMark) {
  obs::Gauge gauge;
  gauge.set(5);
  gauge.add(-8);
  EXPECT_EQ(gauge.value(), -3);
  gauge.set_max(10);
  gauge.set_max(2);  // below the mark: no effect
  EXPECT_EQ(gauge.value(), 10);
}

TEST(Histogram, BucketsSamplesAndTracksMoments) {
  obs::Histogram hist({1, 4, 16});
  hist.record(0);
  hist.record(1);   // both land in the <=1 bucket
  hist.record(3);   // <=4
  hist.record(16);  // <=16
  hist.record(99);  // overflow
  const auto& counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 119u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 99u);
  EXPECT_DOUBLE_EQ(hist.mean(), 119.0 / 5.0);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  obs::Histogram hist(obs::latency_buckets());
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({3, 3}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({5, 2}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(Registry, RegistrationIsIdempotentAndReferencesAreStable) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x.count");
  ++a;
  // Register many more metrics; `a` must stay valid (node-based storage).
  for (int i = 0; i < 100; ++i) registry.counter("fill." + std::to_string(i));
  obs::Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);

  obs::Histogram& h1 = registry.histogram("x.hist", {1, 2, 3});
  obs::Histogram& h2 = registry.histogram("x.hist", {9, 99});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);
}

TEST(Registry, CrossKindNameCollisionThrows) {
  obs::Registry registry;
  registry.counter("dual");
  EXPECT_THROW(registry.gauge("dual"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("dual", {1}), std::invalid_argument);
}

// Shard-local telemetry is folded into slice 0 after a sharded run;
// merge_from is the whole mechanism, so the fold must be a plain sum
// per metric kind (and must not care which side registered a name).
TEST(Registry, MergeFromFoldsEveryMetricKind) {
  obs::Registry a;
  obs::Registry b;
  a.counter("msgs") += 3;
  b.counter("msgs") += 4;
  b.counter("only_b") += 2;
  a.gauge("depth").add(5);
  b.gauge("depth").add(7);
  a.histogram("lat", {1, 4}).record(1);
  b.histogram("lat", {1, 4}).record(3);
  b.histogram("lat", {1, 4}).record(99);

  a.merge_from(b);
  EXPECT_EQ(a.counter("msgs").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 2u);
  EXPECT_EQ(a.gauge("depth").value(), 12);
  const auto& hist = a.histogram("lat", {1, 4});
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 103u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 99u);
}

TEST(Histogram, MergeFromRequiresMatchingBounds) {
  obs::Histogram a({1, 4});
  obs::Histogram b({1, 8});
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

// --------------------------------------------------------------------------
// JSON serialization
// --------------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(core::json_escape("plain"), "plain");
  EXPECT_EQ(core::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(core::json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(core::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(ParseNumber, AcceptsOnlyWholeInRangeUnsignedText) {
  EXPECT_EQ(core::parse_number<unsigned>("0"), 0u);
  EXPECT_EQ(core::parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(core::parse_number<double>("0.25"), 0.25);
  // atoi/strtoul/atof read each of these as some number.
  for (const char* bad : {"", "-1", "+5", "4x", " 4", "0x10", "4294967296"}) {
    EXPECT_FALSE(core::parse_number<std::uint32_t>(bad).has_value()) << bad;
  }
  for (const char* bad : {"abc", "-0.5", "nan", "inf", "1e400", "0.5%"}) {
    EXPECT_FALSE(core::parse_number<double>(bad).has_value()) << bad;
  }
}

// --------------------------------------------------------------------------
// Determinism: identical seeds => byte-identical run records
// --------------------------------------------------------------------------

std::string run_and_serialize(std::uint64_t seed) {
  NetConfig cfg;
  cfg.num_mss = 4;
  cfg.num_mh = 12;
  cfg.search = net::SearchMode::kBroadcast;
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 30;
  cfg.seed = seed;
  Network net(cfg);
  mutex::CsMonitor monitor;
  mutex::L2Mutex l2(net, monitor);
  mobility::MobilityConfig mob;
  mob.mean_pause = 20;
  mob.max_moves_per_host = 3;
  mobility::MobilityDriver driver(net, mob);
  net.start();
  driver.start();
  for (std::uint32_t i = 0; i < 12; ++i) {
    net.sched().schedule(1 + 2 * i, [&l2, i] { l2.request(MhId(i)); });
  }
  net.run();
  ExpectCleanEventStream(net);
  return run_record(net);
}

TEST(RunRecord, IdenticalSeedsSerializeByteIdentically) {
  const std::string first = run_and_serialize(4242);
  const std::string second = run_and_serialize(4242);
  EXPECT_EQ(first, second);
  // ...and the registry actually recorded activity (not trivially empty).
  EXPECT_NE(first.find("\nnet.handoffs="), std::string::npos);
  EXPECT_NE(first.find("\nmutex.cs_wait count="), std::string::npos);
}

TEST(RunRecord, DifferentSeedsDiverge) {
  EXPECT_NE(run_and_serialize(1), run_and_serialize(2));
}

}  // namespace
}  // namespace mobidist::test
