// src/exp unit + integration tests: scenario round-trips, grid
// expansion, deterministic seed derivation, thread-count-independent
// parallel execution, statistical aggregation, and the baseline
// regression gate (pass AND deliberate fail), and the paper's claims
// checked on the committed scenarios/*.json files (PaperClaims.*). The
// parallel suites carry the `sweep` ctest label so the TSan preset can
// select them.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/formulas.hpp"
#include "exp/exp.hpp"

namespace mobidist::test {
namespace {

using exp::MetricSummary;
using exp::ParallelRunner;
using exp::RunPlan;
using exp::ScenarioSpec;
using exp::SweepAxis;
using exp::SweepGrid;
using exp::SweepReport;

ScenarioSpec small_mutex_spec() {
  ScenarioSpec spec;
  spec.name = "exp_test";
  spec.workload = "mutex";
  spec.variant = "l2";
  spec.net.num_mss = 3;
  spec.net.num_mh = 6;
  spec.net.seed = 42;
  spec.params["requests"] = 4;
  spec.params["request_start"] = 1;
  spec.params["request_gap"] = 5;
  return spec;
}

// --- scenario specs --------------------------------------------------------

TEST(ExpScenario, ParsesEverySection) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "ring", "variant": "r2p",
    "topology": {"num_mss": 4, "num_mh": 8, "seed": 9, "search": "broadcast"},
    "latency": {"wired": 5, "wireless_min": 1, "wireless_max": 3},
    "cost": {"c_search": 7.5},
    "fault": {"wireless_loss": 0.05, "crashes": [{"mss": 1, "at": 120, "down_for": 80}],
              "partitions": [{"a": 0, "b": 2, "from": 10, "until": 20}]},
    "mobility": {"enabled": 1, "mean_pause": 25},
    "params": {"requests": 6}
  })");
  EXPECT_EQ(spec.workload, "ring");
  EXPECT_EQ(spec.variant, "r2p");
  EXPECT_EQ(spec.net.num_mss, 4u);
  EXPECT_EQ(spec.net.num_mh, 8u);
  EXPECT_EQ(spec.net.seed, 9u);
  EXPECT_EQ(spec.net.search, net::SearchMode::kBroadcast);
  EXPECT_EQ(spec.net.latency.wired_min, 5u);
  EXPECT_EQ(spec.net.latency.wired_max, 5u);
  EXPECT_EQ(spec.net.latency.wireless_max, 3u);
  EXPECT_DOUBLE_EQ(spec.cost.c_search, 7.5);
  EXPECT_DOUBLE_EQ(spec.fault.wireless_loss, 0.05);
  ASSERT_EQ(spec.fault.crashes.size(), 1u);
  EXPECT_EQ(spec.fault.crashes[0].at, 120u);
  ASSERT_EQ(spec.fault.partitions.size(), 1u);
  EXPECT_EQ(spec.fault.partitions[0].b, 2u);
  EXPECT_EQ(spec.fault.partitions[0].until, 20u);
  EXPECT_TRUE(spec.mobility);
  EXPECT_DOUBLE_EQ(spec.mob.mean_pause, 25.0);
  EXPECT_DOUBLE_EQ(spec.param("requests", 0), 6.0);
}

TEST(ExpScenario, JsonRoundTripIsStable) {
  // A scenario file is a set of dotted overrides grouped into sections
  // (what mobidist_gen writes); parsing it must build the spec the same
  // overrides build when applied one by one.
  auto flat = small_mutex_spec();
  exp::apply_override(flat, "fault.wireless_loss", exp::json::Value(0.1));
  exp::apply_override(flat, "mobility.enabled", exp::json::Value(true));
  const auto spec = exp::parse_scenario(R"({
    "name": "exp_test", "workload": "mutex", "variant": "l2",
    "topology": {"num_mss": 3, "num_mh": 6, "seed": 42},
    "fault": {"wireless_loss": 0.1},
    "mobility": {"enabled": true},
    "params": {"requests": 4, "request_start": 1, "request_gap": 5}
  })");
  EXPECT_DOUBLE_EQ(spec.fault.wireless_loss, 0.1);
  EXPECT_TRUE(spec.mobility);
  EXPECT_TRUE(spec == flat);
  flat.net.latency.search_max += 1;  // any field counts in the comparison
  EXPECT_FALSE(spec == flat);
}

TEST(ExpScenario, FormationSectionRoundTrips) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "mutex", "variant": "l2",
    "formation": {"flush_deadline": 16, "max_packet_msgs": 8, "max_packet_bytes": 2048}
  })");
  EXPECT_EQ(spec.net.formation.flush_deadline, 16u);
  EXPECT_EQ(spec.net.formation.max_packet_msgs, 8u);
  EXPECT_EQ(spec.net.formation.max_packet_bytes, 2048u);
  EXPECT_FALSE(spec.net.formation.passthrough());

  // A scenario without a formation section keeps the passthrough default.
  EXPECT_TRUE(exp::parse_scenario(R"({"name": "t"})").net.formation.passthrough());
}

TEST(ExpScenario, MobilityModelSectionRoundTrips) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "group_mobility", "variant": "location_view",
    "topology": {"num_mss": 8, "num_mh": 16},
    "mobility": {"enabled": 1, "pattern": "commuter", "regions": 8,
                 "phase_period": 400, "day_fraction": 0.25,
                 "crowd_fraction": 0.5, "crowd_period": 600, "crowd_dwell": 120,
                 "grid_width": 4}
  })");
  EXPECT_EQ(spec.mob.pattern, mobility::MovePattern::kCommuter);
  EXPECT_EQ(spec.mob.regions, 8u);
  EXPECT_EQ(spec.mob.phase_period, 400u);
  EXPECT_DOUBLE_EQ(spec.mob.day_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.mob.crowd_fraction, 0.5);
  EXPECT_EQ(spec.mob.crowd_period, 600u);
  EXPECT_EQ(spec.mob.crowd_dwell, 120u);
  EXPECT_EQ(spec.mob.grid_width, 4u);
}

TEST(ExpScenario, EveryPatternNameRoundTripsThroughJson) {
  for (const auto name : mobility::kMovePatternNames) {
    const auto spec = exp::parse_scenario(
        R"({"mobility": {"enabled": true, "pattern": ")" + std::string(name) + R"("}})");
    EXPECT_EQ(spec.mob.pattern, *mobility::pattern_from_name(name)) << name;
  }
}

TEST(ExpScenario, RejectsIntegersOutsideTheirFieldsRange) {
  // Each of these once parsed: u32 fields truncated mod 2^32 (4 MSS x 8
  // MH here) and doubles from 2^64 up were cast to uint64_t.
  const auto rejects = [](const char* doc, const char* key) {
    try {
      (void)exp::parse_scenario(doc);
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(key), std::string::npos) << err.what();
    }
  };
  rejects(R"({"topology": {"num_mss": 4294967300}})", "topology.num_mss");
  rejects(R"({"topology": {"num_mh": 4294967304}})", "topology.num_mh");
  rejects(R"({"topology": {"seed": 1e30}})", "topology.seed");
  rejects(R"({"latency": {"wired": 18446744073709551616}})", "latency.wired");
  rejects(R"({"fault": {"crashes": [{"mss": 4294967296, "at": 1, "down_for": 1}]}})",
          "fault.crashes.mss");

  // The largest values of each width still parse exactly.
  const auto spec = exp::parse_scenario(
      R"({"topology": {"num_mss": 4294967295, "seed": 18446744073709551615}})");
  EXPECT_EQ(spec.net.num_mss, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(spec.net.seed, std::numeric_limits<std::uint64_t>::max());

  auto huge = small_mutex_spec();
  huge.params["requests"] = 1e30;
  EXPECT_THROW((void)huge.param_u64("requests", 0), std::runtime_error);
}

TEST(ExpScenario, UnknownMobilityPatternEnumeratesTheValidNames) {
  try {
    (void)exp::parse_scenario(R"({
      "name": "t", "workload": "mutex", "variant": "l2",
      "mobility": {"pattern": "teleport"}
    })");
    FAIL() << "unknown pattern was accepted";
  } catch (const std::runtime_error& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("teleport"), std::string::npos) << message;
    // The error must list every pattern the library accepts — pinned so
    // the message can never drift out of sync with kMovePatternNames.
    for (const auto name : mobility::kMovePatternNames) {
      EXPECT_NE(message.find(name), std::string::npos)
          << "missing '" << name << "' in: " << message;
    }
  }
}

TEST(ExpJson, FormatDoubleIsRoundTripExact) {
  // Shortest-round-trip formatting: parsing the text back must yield
  // the exact bits, independent of locale, for awkward values that
  // "%.6f" either truncated (1e-7 -> 0.000000) or bloated.
  for (const double v : {0.1, 1.0 / 3.0, 1e-7, 6.02214076e23, -2.5, 0.0, 1234567.25}) {
    const auto text = exp::json::format_double(v);
    EXPECT_EQ(std::stod(text), v) << text;
    EXPECT_EQ(text.find(','), std::string::npos) << "locale leaked into: " << text;
  }
  // Non-finite values are not valid JSON numbers; they serialize null.
  EXPECT_EQ(exp::json::format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(exp::json::format_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ExpScenario, UnknownFieldThrows) {
  EXPECT_THROW(exp::parse_scenario(R"({"topology": {"num_mhs": 4}})"), std::runtime_error);
  EXPECT_THROW(exp::parse_scenario(R"({"wrokload": "mutex"})"), std::runtime_error);
  EXPECT_THROW(exp::parse_scenario(R"({"topolgy": {"num_mss": 4}})"), std::runtime_error);
  EXPECT_THROW(exp::parse_scenario(R"({"topology": {"placement": "random"}})"),
               std::runtime_error);
  EXPECT_THROW(exp::parse_scenario(R"({"topology": {"charge_search_for_local": false}})"),
               std::runtime_error);
}

// --- sweep grids -----------------------------------------------------------

TEST(ExpSweep, SeedDerivationIsDeterministicAndDistinct) {
  const auto a = exp::derive_seeds(42, 16);
  const auto b = exp::derive_seeds(42, 16);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
  EXPECT_NE(exp::derive_seeds(43, 1)[0], a[0]);
}

TEST(ExpSweep, ExpansionCrossesAxesWithSeedsInnermost) {
  SweepGrid grid;
  grid.seeds = {7, 8};
  grid.axes.push_back(SweepAxis::strings("variant", {"l1", "l2"}));
  grid.axes.push_back(SweepAxis::numbers("topology.num_mh", {6, 12}));
  const auto plans = grid.expand(small_mutex_spec());
  ASSERT_EQ(plans.size(), 8u);
  // Axes outermost-first, seeds innermost: runs of one cell are adjacent.
  EXPECT_EQ(plans[0].cell, plans[1].cell);
  EXPECT_NE(plans[1].cell, plans[2].cell);
  EXPECT_EQ(plans[0].seed, 7u);
  EXPECT_EQ(plans[1].seed, 8u);
  EXPECT_EQ(plans[0].spec.variant, "l1");
  EXPECT_EQ(plans[0].spec.net.num_mh, 6u);
  EXPECT_EQ(plans[7].spec.variant, "l2");
  EXPECT_EQ(plans[7].spec.net.num_mh, 12u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].index, i);
    EXPECT_EQ(plans[i].spec.net.seed, plans[i].seed);
  }
}

TEST(ExpSweep, UnknownAxisKeyThrows) {
  SweepGrid grid;
  grid.seeds = {1};
  grid.axes.push_back(SweepAxis::numbers("topology.num_mhs", {4}));
  EXPECT_THROW((void)grid.expand(small_mutex_spec()), std::runtime_error);
}

// A matrix above 2^20 runs is rejected before any plan is reserved,
// whether the cells alone overflow the limit or cells x seeds does.
TEST(ExpSweep, ExpansionRejectsMoreThanTwoToTheTwentyRuns) {
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1, 1024);
  grid.axes.push_back(SweepAxis::numbers("params.requests", std::vector<double>(1025, 1.0)));
  EXPECT_THROW((void)grid.expand(small_mutex_spec()), std::runtime_error);

  grid.seeds = {1};
  grid.axes.assign(3, SweepAxis::numbers("params.requests", std::vector<double>(2048, 1.0)));
  EXPECT_THROW((void)grid.expand(small_mutex_spec()), std::runtime_error);
}

// --- parallel runner -------------------------------------------------------

std::vector<RunPlan> smoke_plans() {
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  grid.axes.push_back(SweepAxis::strings("variant", {"l1", "l2"}));
  return grid.expand(small_mutex_spec());
}

TEST(ExpRunner, ResultsIndependentOfThreadCount) {
  const auto plans = smoke_plans();
  const auto serial = ParallelRunner(1).run(plans);
  const auto parallel = ParallelRunner(4).run(plans);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "plan " << i;
  }
  // The aggregated artifact is byte-identical too.
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  const auto a = exp::aggregate("t", grid, plans, serial);
  const auto b = exp::aggregate("t", grid, plans, parallel);
  EXPECT_EQ(a.deterministic_json(), b.deterministic_json());
}

TEST(ExpRunner, BackToBackRunsAreIsolated) {
  // Same plan executed twice with an unrelated workload in between must
  // produce identical metrics — no state leaks between Network
  // instances or through any process-global.
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.cell = "base";
  plan.seed = plan.spec.net.seed;
  const auto first = exp::run_scenario(plan);
  ASSERT_TRUE(first.ok) << first.error;

  RunPlan other;
  other.spec = small_mutex_spec();
  other.spec.workload = "ring";
  other.spec.variant = "r2";
  other.spec.params.clear();
  other.spec.params["requests"] = 3;
  other.cell = "other";
  other.seed = other.spec.net.seed;
  ASSERT_TRUE(exp::run_scenario(other).ok);

  const auto second = exp::run_scenario(plan);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.metrics, second.metrics);
}

// --- sharded-engine classification -----------------------------------------

ScenarioSpec small_scale_spec() {
  ScenarioSpec spec;
  spec.name = "exp_test_scale";
  spec.workload = "scale";
  spec.variant = "echo";
  spec.net.num_mss = 4;
  spec.net.num_mh = 8;
  spec.net.seed = 42;
  spec.params["pings"] = 6;
  spec.params["gap"] = 5;
  return spec;
}

TEST(ExpRunner, OnlyScaleIsShardSafe) {
  const auto& lib = exp::WorkloadLibrary::builtin();
  EXPECT_TRUE(lib.shard_safe("scale"));
  for (const auto& name : lib.names()) {
    if (name != "scale") {
      EXPECT_FALSE(lib.shard_safe(name)) << name << " marked shard-safe";
    }
  }
  EXPECT_FALSE(lib.shard_safe("no_such_workload"));
}

// A non-shard-safe workload must collapse --shards to the legacy engine:
// metrics identical to a shards=0 run, not an error and not a sharded
// run that would throw on the first move_to().
TEST(ExpRunner, ShardsCollapseToLegacyForUnsafeWorkloads) {
  RunPlan legacy;
  legacy.spec = small_mutex_spec();
  legacy.cell = "base";
  legacy.seed = legacy.spec.net.seed;
  const auto base = exp::run_scenario(legacy);
  ASSERT_TRUE(base.ok) << base.error;

  RunPlan sharded = legacy;
  sharded.spec.net.shards = 4;
  const auto collapsed = exp::run_scenario(sharded);
  ASSERT_TRUE(collapsed.ok) << collapsed.error;
  EXPECT_EQ(collapsed.metrics, base.metrics);
}

// Crash counts come from where the crash is emitted, not from the
// retained event ring: a run long enough to evict its early crash from
// the ring still reports it.
TEST(ExpRunner, CrashCountSurvivesRingEviction) {
  RunPlan plan;
  plan.spec.name = "evicted_crash";
  plan.spec.workload = "scale";
  plan.spec.variant = "echo";
  plan.spec.net.num_mss = 4;
  plan.spec.net.num_mh = 4096;
  plan.spec.params["pings"] = 16;
  plan.spec.fault.crashes.push_back({1, 2, 20});
  plan.spec.fault.evacuate_on_crash = false;
  plan.cell = "base";
  plan.seed = plan.spec.net.seed;
  const auto result = exp::run_scenario(plan);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.metrics.at("events.dropped"), 0.0);
  EXPECT_EQ(result.metrics.at("events.mss_crash"), 1.0);
  EXPECT_EQ(result.metrics.at("events.mss_recover"), 1.0);
}

// The shard-safe workload really runs sharded — and its metrics are
// the same for every shard count (the per-plan statement of the
// shard_independence gate).
TEST(ExpRunner, ScaleMetricsIdenticalForEveryShardCount) {
  RunPlan plan;
  plan.spec = small_scale_spec();
  plan.cell = "base";
  plan.seed = plan.spec.net.seed;
  plan.spec.net.shards = 1;
  const auto s1 = exp::run_scenario(plan);
  ASSERT_TRUE(s1.ok) << s1.error;
  ASSERT_GT(s1.metrics.at("events.emitted"), 0.0);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    plan.spec.net.shards = shards;
    const auto sn = exp::run_scenario(plan);
    ASSERT_TRUE(sn.ok) << sn.error;
    EXPECT_EQ(sn.metrics, s1.metrics) << "shards=" << shards;
  }
}

/// The base spec and sweep grid of a scenario file.
std::pair<ScenarioSpec, SweepGrid> load_scenario_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  const auto doc = exp::json::parse(text);
  if (!doc) throw std::runtime_error(path.string() + ": missing or malformed scenario file");
  auto spec = exp::scenario_from_json(*doc);
  auto grid = exp::sweep_from_json(*doc, spec.net.seed);
  return {std::move(spec), std::move(grid)};
}

// Every committed scenario passes every trace checker on a one-shard
// sharded engine, where wired hops ride the window mailbox and the check
// reads the canonical merged trace. The library marks every builtin
// shard-safe so no plan collapses to the legacy engine; only plans with
// background mobility or a fault profile are left out.
TEST(ExpRunner, EveryScenarioPassesItsCheckersOnOneShard) {
  const auto& builtin = exp::WorkloadLibrary::builtin();
  exp::WorkloadLibrary one_shard;
  for (const auto& name : builtin.names()) {
    one_shard.add(name, *builtin.find(name), /*shard_safe=*/true);
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MOBIDIST_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  std::size_t mobility_group_runs = 0;
  for (const auto& file : files) {
    const auto [spec, grid] = load_scenario_file(file);
    for (auto plan : grid.expand(spec)) {
      if (plan.spec.mobility || plan.spec.has_faults()) continue;
      plan.spec.net.shards = 1;
      const auto result = exp::run_scenario(plan, one_shard);
      EXPECT_TRUE(result.ok) << file.filename() << " " << plan.cell << " seed " << plan.seed
                             << ": " << result.error;
      if (spec.name == "mobility_group") ++mobility_group_runs;
    }
  }
  // mobility_group's builder moves its own members: all 18 runs count.
  EXPECT_EQ(mobility_group_runs, 18u);
}

TEST(ExpRunner, UnknownWorkloadFailsLoudly) {
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.spec.workload = "no_such_workload";
  plan.cell = "base";
  const auto result = exp::run_scenario(plan);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no_such_workload"), std::string::npos);
}

TEST(ExpRunner, UnwritableTraceDirFailsTheRunLoudly) {
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.cell = "base";
  ::setenv("MOBIDIST_TRACE_DIR", "/nonexistent/mobidist-trace-dir", 1);
  const auto result = exp::run_scenario(plan);
  ::unsetenv("MOBIDIST_TRACE_DIR");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot write /nonexistent/mobidist-trace-dir/"),
            std::string::npos)
      << result.error;
}

// --- aggregation -----------------------------------------------------------

TEST(ExpAggregate, SummaryStatistics) {
  const auto s = MetricSummary::of({4, 2, 1, 3, 100});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);   // nearest rank: ceil(0.50 * 5) = 3rd
  EXPECT_DOUBLE_EQ(s.p99, 100.0); // nearest rank: ceil(0.99 * 5) = 5th
  EXPECT_NEAR(s.stddev, 43.6176, 1e-3);  // sample (n-1) stddev

  const auto single = MetricSummary::of({7});
  EXPECT_EQ(single.n, 1u);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_DOUBLE_EQ(single.p99, 7.0);
}

TEST(ExpAggregate, FailedRunsAreExcludedFromStats) {
  SweepGrid grid;
  grid.seeds = {1, 2, 3};
  RunPlan plan;
  plan.spec = small_mutex_spec();
  std::vector<RunPlan> plans;
  std::vector<exp::RunResult> results;
  for (std::uint64_t seed : grid.seeds) {
    plan.cell = "c";
    plan.seed = seed;
    plan.index = plans.size();
    plans.push_back(plan);
    exp::RunResult r;
    r.index = plan.index;
    r.cell = "c";
    r.seed = seed;
    if (seed == 2) {
      r.ok = false;
      r.error = "checker failed";
    } else {
      r.ok = true;
      r.metrics["m"] = static_cast<double>(seed * 10);
    }
    results.push_back(std::move(r));
  }
  const auto report = exp::aggregate("t", grid, plans, results);
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& cell = report.cells[0];
  EXPECT_EQ(cell.failed, 1u);
  EXPECT_EQ(cell.seeds, (std::vector<std::uint64_t>{1, 3}));
  ASSERT_EQ(cell.errors.size(), 1u);
  ASSERT_EQ(cell.metrics.count("m"), 1u);
  EXPECT_DOUBLE_EQ(cell.metrics.at("m").mean, 20.0);
  EXPECT_EQ(cell.metrics.at("m").n, 2u);
}

// --- baseline regression gate ---------------------------------------------

SweepReport run_and_aggregate() {
  const auto plans = smoke_plans();
  const auto results = ParallelRunner(2).run(plans);
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  return exp::aggregate("gate", grid, plans, results);
}

TEST(ExpBaseline, SelfComparisonPasses) {
  const auto report = run_and_aggregate();
  const auto baseline = exp::json::parse(report.deterministic_json());
  ASSERT_TRUE(baseline.has_value());
  const auto cmp = exp::compare_to_baseline(report, *baseline, 0.02);
  EXPECT_TRUE(cmp.ok()) << cmp.incompatibility;
  EXPECT_GT(cmp.metrics_compared, 0u);
}

TEST(ExpBaseline, DeliberateRegressionFails) {
  const auto report = run_and_aggregate();
  const auto baseline = exp::json::parse(report.deterministic_json());
  ASSERT_TRUE(baseline.has_value());
  auto drifted = report;
  ASSERT_FALSE(drifted.cells.empty());
  ASSERT_FALSE(drifted.cells[0].metrics.empty());
  auto& mean = drifted.cells[0].metrics.at("cost.total").mean;
  mean = mean * 1.5 + 10.0;
  const auto cmp = exp::compare_to_baseline(drifted, *baseline, 0.02);
  ASSERT_TRUE(cmp.compatible);
  ASSERT_FALSE(cmp.regressions.empty());
  EXPECT_FALSE(cmp.ok());
  EXPECT_EQ(cmp.regressions[0].metric, "cost.total");
  EXPECT_GT(cmp.regressions[0].rel_delta, 0.02);
}

TEST(ExpBaseline, IncompatibleArtifactsAreRejectedNotPassed) {
  const auto report = run_and_aggregate();

  auto other_seeds = report;
  other_seeds.seeds.push_back(999);
  const auto seeds_baseline = exp::json::parse(other_seeds.deterministic_json());
  ASSERT_TRUE(seeds_baseline.has_value());
  const auto seeds_cmp = exp::compare_to_baseline(report, *seeds_baseline, 0.02);
  EXPECT_FALSE(seeds_cmp.compatible);
  EXPECT_FALSE(seeds_cmp.ok());

  auto text = report.deterministic_json();
  const auto pos = text.find("\"schema_version\":");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("\"schema_version\":1").size(), "\"schema_version\":99");
  const auto version_baseline = exp::json::parse(text);
  ASSERT_TRUE(version_baseline.has_value());
  const auto version_cmp = exp::compare_to_baseline(report, *version_baseline, 0.02);
  EXPECT_FALSE(version_cmp.compatible);
  EXPECT_NE(version_cmp.incompatibility.find("schema"), std::string::npos);
}

// --- the paper's claims, on the committed scenario files ------------------

// Each experiment of EXPERIMENTS.md is a scenarios/*.json file that
// mobidist_sweep runs; the tests below load the same files through the
// public exp API and check the claims its "Agreement" paragraph states,
// comparing cell means with each other and with the analysis:: closed
// forms. The files keep the default cost constants, which the tests
// read from a default cost::CostParams. Latencies are pinned (min ==
// max), so message counts are seed-free: E1 and E3 rerun on five
// derived seeds to prove that via stddev == 0.

/// Run scenarios/<file>.json (with `seeds` in place of the file's seed
/// list when given), require every run to pass its checkers, and
/// aggregate.
SweepReport run_scenario_file(const std::string& file, std::vector<std::uint64_t> seeds = {}) {
  auto [spec, grid] =
      load_scenario_file(std::filesystem::path(MOBIDIST_SCENARIO_DIR) / (file + ".json"));
  if (!seeds.empty()) grid.seeds = std::move(seeds);
  const auto plans = grid.expand(spec);
  const auto results = ParallelRunner(0).run(plans);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << file << " " << result.cell << " seed " << result.seed << ": "
                           << result.error;
  }
  return exp::aggregate(spec.name, grid, plans, results);
}

/// Summary of `metric` in `cell`; throws naming both when either is
/// missing, so a typo cannot read as a passing 0.
const MetricSummary& summary(const SweepReport& report, const std::string& cell,
                             std::string_view metric) {
  const auto* found = report.find_cell(cell);
  if (found == nullptr) throw std::runtime_error(report.name + ": no cell '" + cell + "'");
  const auto it = found->metrics.find(metric);
  if (it == found->metrics.end()) {
    throw std::runtime_error(report.name + ": cell '" + cell + "' has no metric '" +
                             std::string(metric) + "'");
  }
  return it->second;
}

double mean(const SweepReport& report, const std::string& cell, std::string_view metric) {
  return summary(report, cell, metric).mean;
}

/// The "key=value" part of a cell name, values labelled as the sweep does.
std::string axis(std::string_view key, double value) {
  return std::string(key) + "=" + exp::value_label(exp::json::Value(value));
}

// E1 (§3.1.1): one execution costs 3(N-1)(2c_w+c_s) under L1 and
// 3c_w+c_f+c_s+3(M-1)c_f under L2, exactly, so L2 is flat in N, L1 is
// flat in M, and L2 beats L1 in every cell.
TEST(PaperClaims, E1LamportCostsMatchClosedForms) {
  const cost::CostParams p;
  const auto report = run_scenario_file("e1_lamport_cost", exp::derive_seeds(7, 5));
  for (const std::uint32_t m : {4u, 8u, 16u, 32u}) {
    for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u, 256u}) {
      const std::string at = "," + axis("topology.num_mss", m) + "," + axis("topology.num_mh", n);
      SCOPED_TRACE(at);
      const auto& l1 = summary(report, "variant=l1" + at, "cost.total");
      const auto& l2 = summary(report, "variant=l2" + at, "cost.total");
      EXPECT_DOUBLE_EQ(l1.mean, analysis::l1_execution_cost(n, p));
      EXPECT_DOUBLE_EQ(l1.stddev, 0.0);
      EXPECT_DOUBLE_EQ(mean(report, "variant=l1" + at, "ledger.wireless_msgs"),
                       static_cast<double>(analysis::l1_wireless_hops(n)));
      EXPECT_DOUBLE_EQ(l2.mean, analysis::l2_execution_cost(m, p));
      EXPECT_DOUBLE_EQ(l2.stddev, 0.0);
      EXPECT_LT(l2.mean, l1.mean);
    }
  }
}

// E2 (§3.1.1 bullets): L1 sends 6(N-1) wireless messages, 3(N-1) at
// the initiator, and wakes every dozing peer twice (request and
// release); L2 sends 3, all at the initiator, and wakes nobody. Any
// disconnection stalls L1; L2 loses only a disconnected requester's
// own request.
TEST(PaperClaims, E2L1IsDozeHostileAndStallsOnDisconnection) {
  const auto energy = run_scenario_file("e2_wireless_energy");
  for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u}) {
    const std::string l1 = "variant=l1," + axis("topology.num_mh", n);
    const std::string l2 = "variant=l2," + axis("topology.num_mh", n);
    SCOPED_TRACE(n);
    EXPECT_EQ(mean(energy, l1, "ledger.wireless_msgs"),
              static_cast<double>(analysis::l1_wireless_hops(n)));
    EXPECT_EQ(mean(energy, l1, "workload.initiator_energy"),
              static_cast<double>(analysis::l1_initiator_energy(n)));
    EXPECT_EQ(mean(energy, l1, "net.doze_interruptions"), 2.0 * (n - 1));
    EXPECT_EQ(mean(energy, l2, "ledger.wireless_msgs"),
              static_cast<double>(analysis::l2_wireless_msgs()));
    EXPECT_EQ(mean(energy, l2, "workload.initiator_energy"),
              static_cast<double>(analysis::l2_wireless_msgs()));
    EXPECT_EQ(mean(energy, l2, "net.doze_interruptions"), 0.0);
  }

  // Two requesters (mh0, mh1); the unrelated mh9 or the requester mh0
  // disconnects before the grants.
  const auto disc = run_scenario_file("e2_disconnect");
  for (const double who : {9.0, 0.0}) {
    EXPECT_EQ(mean(disc, "variant=l1," + axis("params.disconnect_mh", who), "workload.completed"),
              0.0)
        << "L1 with mh" << who << " disconnected";
  }
  const std::string unrelated = "variant=l2," + axis("params.disconnect_mh", 9);
  EXPECT_EQ(mean(disc, unrelated, "workload.completed"), 2.0);
  EXPECT_EQ(mean(disc, unrelated, "workload.aborted"), 0.0);
  const std::string requester = "variant=l2," + axis("params.disconnect_mh", 0);
  EXPECT_EQ(mean(disc, requester, "workload.completed"), 1.0);
  EXPECT_EQ(mean(disc, requester, "workload.aborted"), 1.0);
}

// E3 (§3.1.2): an R1 traversal costs N(2c_w+c_s) whatever K is. R2
// costs K(3c_w+c_f+c_s)+Mc_f less K*c_f, because these requesters are
// stationary and the token's return to their MSS is a free self-relay.
// The crossover lands where the closed forms put it.
TEST(PaperClaims, E3R1IsIndependentOfKAndR2PaysPerRequest) {
  const cost::CostParams p;
  constexpr std::uint32_t kM = 4;
  const auto report = run_scenario_file("e3_ring_cost", exp::derive_seeds(7, 5));
  const std::uint64_t ks[] = {0, 1, 2, 4, 8, 16, 24, 32, 64};
  for (const std::uint32_t n : {4u, 8u, 16u, 32u, 64u}) {
    for (const std::uint64_t k : ks) {
      const std::string at = "," + axis("topology.num_mh", n) + "," +
                             axis("params.requests", static_cast<double>(k));
      SCOPED_TRACE(at);
      const auto& r1 = summary(report, "variant=r1" + at, "cost.total");
      const auto& r2 = summary(report, "variant=r2" + at, "cost.total");
      EXPECT_DOUBLE_EQ(r1.mean, analysis::r1_traversal_cost(n, p));
      EXPECT_DOUBLE_EQ(r1.stddev, 0.0);
      EXPECT_DOUBLE_EQ(r2.mean,
                       analysis::r2_cost(k, kM, p) - static_cast<double>(k) * p.c_fixed);
      EXPECT_DOUBLE_EQ(r2.stddev, 0.0);
    }
  }

  // N = 32: K* = (N(2c_w+c_s) - Mc_f) / (3c_w+c_f+c_s) is about 21.8.
  const double k_star = (analysis::r1_traversal_cost(32, p) - kM * p.c_fixed) /
                        (3 * p.c_wireless + p.c_fixed + p.c_search);
  EXPECT_GT(k_star, 16.0);
  EXPECT_LT(k_star, 24.0);
  for (const std::uint64_t k : ks) {
    const std::string at = "," + axis("topology.num_mh", 32) + "," +
                           axis("params.requests", static_cast<double>(k));
    const double r1 = mean(report, "variant=r1" + at, "cost.total");
    const double r2 = mean(report, "variant=r2" + at, "cost.total");
    if (static_cast<double>(k) < k_star) {
      EXPECT_LT(r2, r1) << "K=" << k;
    } else {
      EXPECT_GT(r2, r1) << "K=" << k;
    }
  }
}

// E4 (§3.1.2 "Variations"): a host chasing the token through all M
// cells is served at every one under R2, once under R2' unless it
// under-reports access_count, and once under R2'' regardless.
TEST(PaperClaims, E4R2PrimeCapsAnHonestChaserAndR2DoublePrimeALiar) {
  const auto report = run_scenario_file("e4_ring_fairness");
  const auto grants = [&](const std::string& variant, double malicious) {
    return mean(report, "variant=" + variant + "," + axis("params.malicious", malicious),
                "workload.grants_traversal1");
  };
  constexpr double kM = 4;
  EXPECT_EQ(grants("r2", 0), kM);
  EXPECT_EQ(grants("r2", 1), kM);
  EXPECT_EQ(grants("r2p", 0), 1.0);
  EXPECT_EQ(grants("r2p", 1), kM);
  EXPECT_EQ(grants("r2pp", 0), 1.0);
  EXPECT_EQ(grants("r2pp", 1), 1.0);
}

// E5 (§4): per group message, pure search costs (|G|-1)(2c_w+c_s) flat
// in mobility; always inform stays at or under (MOB/MSG+1)(|G|-1)
// (2c_w+c_f), within 2.5% (members co-located with the sender save a
// c_fixed); location view stays far below always inform and under its
// bound, except in the f = 0.1 row, where it sends the M->M' notice
// for every move while the bound books it only for significant ones
// (documented at about +10%).
TEST(PaperClaims, E5GroupStrategiesTrackTheirFormulas) {
  const cost::CostParams p;
  constexpr std::size_t kGroup = 5;  // the `group` workload's five clustered members
  constexpr double kMessages = 40;
  const auto report = run_scenario_file("e5_group_location");
  const double ratios[] = {0, 1, 2, 4, 8};
  const double fs[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  const auto cell = [](const std::string& variant, double ratio, double f) {
    return "variant=" + variant + "," + axis("params.mob_per_msg", ratio) + "," +
           axis("params.significant_fraction", f);
  };
  const auto per_msg = [&](const std::string& c) {
    return mean(report, c, "cost.total") / kMessages;
  };
  const auto lv_bound = [&](double ratio, double f) {
    const std::string c = cell("location_view", ratio, f);
    const double moves = mean(report, c, "workload.moves_scheduled");
    const double measured_f =
        moves > 0 ? mean(report, c, "workload.significant_moves") / moves : 0.0;
    return analysis::location_view_effective_bound(
        measured_f * ratio, static_cast<std::size_t>(mean(report, c, "workload.lv_max")),
        kGroup, p);
  };

  double last_ai = 0;
  for (const double ratio : ratios) {
    for (const double f : fs) {
      SCOPED_TRACE(cell("", ratio, f));
      EXPECT_EQ(per_msg(cell("pure_search", ratio, f)),
                analysis::pure_search_msg_cost(kGroup, p));
      const double ai = per_msg(cell("always_inform", ratio, f));
      const double ai_formula = analysis::always_inform_effective(ratio, kGroup, p);
      EXPECT_LE(ai, ai_formula);
      EXPECT_GE(ai, 0.975 * ai_formula);
      if (ratio > 0) {
        EXPECT_LT(per_msg(cell("location_view", ratio, f)), ai / 2);
      }
    }
    // Always inform pays for every move: it climbs with MOB/MSG.
    const double ai = per_msg(cell("always_inform", ratio, 0.5));
    EXPECT_GT(ai, last_ai);
    last_ai = ai;
    // The MOB/MSG sweep at f = 0.5: under the bound.
    EXPECT_LE(per_msg(cell("location_view", ratio, 0.5)), lv_bound(ratio, 0.5)) << ratio;
  }
  // The f sweep at MOB/MSG = 4: under the bound from f = 0.3 up, and
  // about 10% over it at f = 0.1.
  for (const double f : fs) {
    const double lv = per_msg(cell("location_view", 4, f));
    if (f > 0.2) {
      EXPECT_LE(lv, lv_bound(4, f)) << f;
    } else {
      EXPECT_GT(lv, lv_bound(4, f));
      EXPECT_LE(lv, 1.12 * lv_bound(4, f));
    }
  }
}

// E6 (§5): the local-MSS proxy pays nothing per move; the fixed home
// pays one inform per move and never searches; the lazy home (k = 3)
// informs on every third move of each host. Every scope completes all
// 8 requests.
TEST(PaperClaims, E6ProxyScopesTradeInformsForSearches) {
  constexpr double kRequests = 8;  // one per host
  const auto report = run_scenario_file("e6_proxy");
  const auto cell = [](const std::string& scope, double moves) {
    return "variant=" + scope + "," + axis("params.moves_per_request", moves);
  };
  const double still = mean(report, cell("local_mss", 0), "cost.total");
  for (const double moves : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    SCOPED_TRACE(moves);
    EXPECT_EQ(mean(report, cell("local_mss", moves), "cost.total"), still);
    EXPECT_EQ(mean(report, cell("local_mss", moves), "workload.informs"), 0.0);
    EXPECT_EQ(mean(report, cell("local_mss", moves), "ledger.searches"), 0.0);
    EXPECT_EQ(mean(report, cell("fixed_home", moves), "workload.informs"), kRequests * moves);
    EXPECT_EQ(mean(report, cell("fixed_home", moves), "ledger.searches"), 0.0);
    EXPECT_EQ(mean(report, cell("lazy_home", moves), "workload.informs"),
              kRequests * std::floor(moves / 3));
    for (const char* scope : {"local_mss", "fixed_home", "lazy_home"}) {
      EXPECT_EQ(mean(report, cell(scope, moves), "workload.completed"), kRequests) << scope;
    }
  }
  // Without mobility the fixed home proxy is free.
  EXPECT_EQ(mean(report, cell("fixed_home", 0), "cost.total"), still);
}

// A1: the oracle charges one abstract search and no fixed messages; a
// broadcast search really costs M+1 fixed messages (the paper's worst
// case), and more when a target in transit forces retried rounds.
TEST(PaperClaims, A1BroadcastSearchCostsMPlusOneFixedMessages) {
  const auto report = run_scenario_file("a1_search_modes");
  const auto cell = [](const char* mode, double m, double transit) {
    return std::string("topology.search=") + mode + "," + axis("topology.num_mss", m) + "," +
           axis("params.in_transit", transit);
  };
  for (const double m : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    SCOPED_TRACE(m);
    EXPECT_EQ(mean(report, cell("oracle", m, 0), "ledger.searches"), 1.0);
    EXPECT_EQ(mean(report, cell("oracle", m, 0), "ledger.fixed_msgs"), 0.0);
    EXPECT_EQ(mean(report, cell("broadcast", m, 0), "ledger.fixed_msgs"), m + 1);
    for (const char* mode : {"oracle", "broadcast"}) {
      EXPECT_EQ(mean(report, cell(mode, m, 1), "workload.delivered"), 1.0) << mode;
    }
    EXPECT_GT(mean(report, cell("broadcast", m, 1), "ledger.fixed_msgs"), m + 1);
  }
}

// A2 (§3.1.1 "fifo channels between MHs"): under jitter and mid-burst
// moves the resequencer delivers every message in order by holding
// some back; without it the order breaks on every seed.
TEST(PaperClaims, A2ResequencerRestoresFifoOrder) {
  const auto report = run_scenario_file("a2_fifo_relay");
  EXPECT_EQ(summary(report, "variant=fifo", "workload.inversions").max, 0.0);
  EXPECT_EQ(summary(report, "variant=fifo", "workload.delivered").min, 30.0);
  EXPECT_GT(summary(report, "variant=fifo", "net.relay_reordered").min, 0.0);
  EXPECT_GT(summary(report, "variant=raw", "workload.inversions").min, 0.0);
  EXPECT_EQ(summary(report, "variant=raw", "workload.delivered").min, 30.0);
  EXPECT_EQ(summary(report, "variant=raw", "net.relay_reordered").max, 0.0);
}

// A3 (§5 "less static solutions"): a lazy home proxy informed on every
// k-th of 24 moves sends floor(24/k) informs; k = 1 is the fixed home
// (no searches), and k = 3, in step with the delivery schedule, is the
// cheapest period.
TEST(PaperClaims, A3LazyInformPeriodTradesInformsForSearches) {
  const auto report = run_scenario_file("a3_lazy_inform");
  const auto cell = [](double k) { return axis("params.inform_every", k); };
  const double cheapest = mean(report, cell(3), "cost.total");
  for (const double k : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0}) {
    SCOPED_TRACE(k);
    EXPECT_EQ(mean(report, cell(k), "workload.informs"), std::floor(24 / k));
    EXPECT_EQ(mean(report, cell(k), "workload.delivered"), 8.0);
    if (k != 3) {
      EXPECT_GT(mean(report, cell(k), "cost.total"), cheapest);
    }
  }
  EXPECT_EQ(mean(report, cell(1), "ledger.searches"), 0.0);
}

// A4 (reference [1]): flood-and-buffer multicast pays (M-1) fixed
// messages plus one wireless hop per recipient per publication and
// never searches; both schemes stay exactly-once under mobility.
// Flooding wins except for a tiny recipient set in a large network.
TEST(PaperClaims, A4FloodMulticastCostAndCrossover) {
  const cost::CostParams p;
  constexpr double kMessages = 20;
  const auto report = run_scenario_file("a4_multicast");
  const auto cell = [](const char* variant, double m, double r) {
    return std::string("variant=") + variant + "," + axis("topology.num_mss", m) + "," +
           axis("params.recipients", r);
  };
  for (const double m : {4.0, 16.0, 32.0, 64.0}) {
    for (const double r : {2.0, 4.0, 8.0, 12.0}) {
      SCOPED_TRACE(cell("", m, r));
      EXPECT_EQ(mean(report, cell("flood", m, r), "cost.total") / kMessages,
                (m - 1) * p.c_fixed + r * p.c_wireless);
      EXPECT_EQ(mean(report, cell("flood", m, r), "ledger.searches"), 0.0);
      EXPECT_EQ(mean(report, cell("flood", m, r), "workload.exactly_once"), 1.0);
      EXPECT_EQ(mean(report, cell("search", m, r), "workload.exactly_once"), 1.0);
    }
  }
  const std::pair<double, double> flood_wins[] = {{4, 4}, {4, 12}, {16, 4}, {16, 12}, {32, 8}};
  for (const auto& [m, r] : flood_wins) {
    EXPECT_LT(mean(report, cell("flood", m, r), "cost.total"),
              mean(report, cell("search", m, r), "cost.total"))
        << "M=" << m << " R=" << r;
  }
  EXPECT_GT(mean(report, cell("flood", 64, 2), "cost.total"),
            mean(report, cell("search", 64, 2), "cost.total"));
}

// --- closed forms vs swept empirical means ---------------------------------

/// The Lavault average is an *expectation over random request orders*;
/// a deterministic round-robin trickle concentrates well below it (the
/// tree collapses toward the rotating requesters). The property checked
/// against the swept empirical means is therefore two-sided where it
/// can be: the closed form bounds the measurement from above at every
/// M, and the measurement inherits the formula's sub-linear shape.
TEST(ExpFormulasProperty, PathRevWiredMessagesBoundedByClosedForm) {
  const cost::CostParams p;
  std::vector<double> empirical;
  const std::vector<std::uint32_t> backbones = {4, 8, 16, 32};
  for (const std::uint32_t m : backbones) {
    ScenarioSpec spec;
    spec.name = "prop";
    spec.workload = "mutex";
    spec.variant = "pathrev";
    spec.net.num_mss = m;
    spec.net.num_mh = m;
    spec.net.latency.wired_min = spec.net.latency.wired_max = 5;
    spec.net.latency.wireless_min = spec.net.latency.wireless_max = 2;
    spec.net.latency.search_min = spec.net.latency.search_max = 4;
    spec.params["requests"] = 16;
    spec.params["request_start"] = 1;
    spec.params["request_gap"] = 40;

    SweepGrid grid;
    grid.seeds = exp::derive_seeds(17, 5);
    const auto plans = grid.expand(spec);
    const auto results = ParallelRunner(0).run(plans);
    const auto report = exp::aggregate("prop", grid, plans, results);
    ASSERT_EQ(report.cells.size(), 1u);
    const auto& metrics = report.cells[0].metrics;
    EXPECT_DOUBLE_EQ(metrics.at("workload.completed").mean, 16.0);
    EXPECT_DOUBLE_EQ(metrics.at("mutex.cs_violations").mean, 0.0);
    const double per_entry = metrics.at("ledger.fixed_msgs").mean / 16.0;
    empirical.push_back(per_entry);
    // Pinned latencies + deterministic schedule: counts are seed-free.
    EXPECT_DOUBLE_EQ(metrics.at("ledger.fixed_msgs").stddev, 0.0);
    // The average-case closed form upper-bounds the trickle regime,
    // with slack for the concentration argument above.
    EXPECT_LE(per_entry, 2.5 * analysis::pathrev_avg_messages(m))
        << "per-entry wired messages above the Lavault bound at M=" << m;
    EXPECT_GT(per_entry, 0.0);
  }
  // Sub-linear shape: M grew 8x across the sweep; the per-entry wired
  // bill must grow by well under that (H_32/H_4 is ~1.9).
  EXPECT_LT(empirical.back(), 3.0 * empirical.front());

  // The formula itself: exact harmonic arithmetic.
  EXPECT_DOUBLE_EQ(analysis::harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(analysis::harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25);
  EXPECT_DOUBLE_EQ(analysis::pathrev_avg_messages(4), analysis::harmonic(4) + 1.0);
  EXPECT_DOUBLE_EQ(
      analysis::pathrev_entry_cost_bound(4, p),
      analysis::pathrev_avg_messages(4) * p.c_fixed + 3.0 * p.c_wireless + p.c_search);
}

TEST(ExpRunner, UnknownVariantEnumeratesTheValidNames) {
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.spec.variant = "no_such_variant";
  plan.cell = "base";
  const auto result = exp::run_scenario(plan);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no_such_variant"), std::string::npos);
  // The error must list what the workload does accept.
  EXPECT_NE(result.error.find("l1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("pathrev"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace mobidist::test
