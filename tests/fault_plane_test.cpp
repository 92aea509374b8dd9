// Unit tests for the fault plane itself: schedule determinism, the
// zero-probability no-op guarantee, and exact crash/partition timing.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plane.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

fault::FaultProfile noisy_profile() {
  fault::FaultProfile profile;
  profile.wireless_loss = 0.2;
  profile.wireless_dup = 0.1;
  profile.wireless_reorder = 0.15;
  profile.wired_spike = 0.1;
  return profile;
}

/// One row of the fault schedule, wide enough to catch any divergence.
struct Draw {
  bool loss;
  bool dup;
  sim::Duration wireless_spike;
  sim::Duration wired_spike;
  sim::Duration latency;

  friend bool operator==(const Draw&, const Draw&) = default;
};

std::vector<Draw> draw_schedule(fault::FaultPlane& plane, int frames) {
  std::vector<Draw> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    Draw draw{};
    draw.loss = plane.draw_wireless_loss();
    draw.dup = plane.draw_wireless_dup();
    draw.wireless_spike = plane.draw_wireless_spike();
    draw.wired_spike = plane.draw_wired_spike();
    draw.latency = plane.draw_latency(1, 9);
    out.push_back(draw);
  }
  return out;
}

TEST(FaultPlane, SameSeedSameByteIdenticalSchedule) {
  fault::FaultPlane a(fault::fault_stream_seed(42), noisy_profile());
  fault::FaultPlane b(fault::fault_stream_seed(42), noisy_profile());
  EXPECT_EQ(draw_schedule(a, 500), draw_schedule(b, 500));
}

TEST(FaultPlane, DifferentSeedDifferentSchedule) {
  fault::FaultPlane a(fault::fault_stream_seed(42), noisy_profile());
  fault::FaultPlane b(fault::fault_stream_seed(43), noisy_profile());
  EXPECT_NE(draw_schedule(a, 500), draw_schedule(b, 500));
}

TEST(FaultPlane, DropAndDupFirstKnobsAreDeterministic) {
  fault::FaultProfile profile;  // all probabilities zero
  profile.drop_first_wireless = 2;
  profile.dup_first_wireless = 1;
  fault::FaultPlane plane(1, profile);
  EXPECT_TRUE(plane.draw_wireless_loss());
  EXPECT_TRUE(plane.draw_wireless_loss());
  EXPECT_FALSE(plane.draw_wireless_loss());
  EXPECT_TRUE(plane.draw_wireless_dup());
  EXPECT_FALSE(plane.draw_wireless_dup());
}

TEST(FaultPlane, TrivialProfileDetection) {
  EXPECT_TRUE(fault::FaultProfile{}.trivial());
  EXPECT_FALSE(noisy_profile().trivial());
  fault::FaultProfile crash_only;
  crash_only.crashes.push_back({0, 100, 50});
  EXPECT_FALSE(crash_only.trivial());
}

TEST(FaultPlane, CrashWindowsAndWiredRelease) {
  fault::FaultProfile profile;
  profile.crashes.push_back({1, 100, 50});
  profile.partitions.push_back({0, 2, 300, 360});
  fault::FaultPlane plane(7, profile);

  EXPECT_FALSE(plane.crashed(1, 99));
  EXPECT_TRUE(plane.crashed(1, 100));
  EXPECT_TRUE(plane.crashed(1, 149));
  EXPECT_FALSE(plane.crashed(1, 150));
  EXPECT_FALSE(plane.crashed(0, 120));

  // Wired messages into the crashed MSS wait for recovery.
  EXPECT_EQ(plane.wired_release_at(0, 1, 120), 150u);
  EXPECT_EQ(plane.wired_release_at(0, 1, 150), 150u);
  EXPECT_EQ(plane.wired_release_at(1, 0, 120), 120u);  // outbound allowed
  // The partition blocks the (0,2) link symmetrically.
  EXPECT_EQ(plane.wired_release_at(0, 2, 310), 360u);
  EXPECT_EQ(plane.wired_release_at(2, 0, 310), 360u);
  EXPECT_EQ(plane.wired_release_at(0, 2, 360), 360u);
  EXPECT_EQ(plane.wired_release_at(1, 2, 310), 310u);  // other links unaffected
}

/// A small deterministic workload touching every interception point:
/// wired sends, broadcast search with an in-transit target (the
/// rng_-driven retry jitter of Network::handle_search_reply), downlinks,
/// uplinks, and mobility.
void run_workload(Network& net) {
  Harness agents(net);
  net.start();
  auto& sched = net.sched();
  sched.schedule_at(5, [&net, &agents] {
    agents.mss[0]->do_send_wired(static_cast<MssId>(1), std::string("wired"));
    agents.mh[0]->do_send_uplink(std::string("uplink"));
  });
  sched.schedule_at(10, [&net] { net.mh(static_cast<MhId>(4)).move_to(static_cast<MssId>(0), 40); });
  sched.schedule_at(12, [&agents] {
    // Target in transit: broadcast search retries with jittered pauses.
    agents.mss[1]->do_send_to_mh(static_cast<MhId>(4), std::string("chase"));
  });
  sched.schedule_at(80, [&agents] {
    agents.mss[0]->do_send_to_mh(static_cast<MhId>(5), std::string("direct"));
  });
  net.run();
}

TEST(FaultPlane, ZeroProbabilityProfileIsAPerfectNoOp) {
  NetConfig cfg = small_config();
  cfg.latency = LatencyConfig{};  // randomized latencies: rng_ draws matter
  cfg.search = SearchMode::kBroadcast;

  std::string with_plane;
  std::string without_plane;
  {
    Network net(cfg);
    net.install_fault_plane(fault::FaultProfile{});
    run_workload(net);
    ExpectCleanEventStream(net);
    with_plane = run_record(net);
  }
  {
    Network net(cfg);
    run_workload(net);
    ExpectCleanEventStream(net);
    without_plane = run_record(net);
  }
  EXPECT_EQ(with_plane, without_plane);
}

TEST(FaultPlane, CrashScheduleFiresAtExactSimTimes) {
  NetConfig cfg = small_config(/*m=*/2, /*n=*/0);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.crashes.push_back({1, 100, 50});
  profile.crashes.push_back({0, 400, 25});
  net.install_fault_plane(profile);
  net.run();

  std::vector<std::tuple<sim::SimTime, obs::EventKind, std::uint32_t>> seen;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == obs::EventKind::kMssCrash || ev.kind == obs::EventKind::kMssRecover) {
      seen.emplace_back(ev.at, ev.kind, ev.entity.idx);
    }
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_tuple(sim::SimTime{100}, obs::EventKind::kMssCrash, 1u));
  EXPECT_EQ(seen[1], std::make_tuple(sim::SimTime{150}, obs::EventKind::kMssRecover, 1u));
  EXPECT_EQ(seen[2], std::make_tuple(sim::SimTime{400}, obs::EventKind::kMssCrash, 0u));
  EXPECT_EQ(seen[3], std::make_tuple(sim::SimTime{425}, obs::EventKind::kMssRecover, 0u));
  ExpectCleanEventStream(net);
}

TEST(FaultPlane, WiredMessageIntoCrashedMssDefersToRecovery) {
  NetConfig cfg = small_config(/*m=*/2, /*n=*/0);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.crashes.push_back({1, 100, 100});
  net.install_fault_plane(profile);
  Harness agents(net);
  net.start();
  // Sent at t=110, natural arrival t=115 (fixed wired latency 5) lands
  // inside the outage; the interface holds it until recovery at t=200.
  net.sched().schedule_at(110, [&agents] {
    agents.mss[0]->do_send_wired(static_cast<MssId>(1), std::string("held"));
  });
  net.run();
  ASSERT_EQ(agents.mss[1]->received.size(), 1u);
  EXPECT_EQ(agents.mss[1]->received[0].at, 200u);
  EXPECT_EQ(net.metrics().counters().at("fault.injected_wired_deferral"), 1u);
  ExpectCleanEventStream(net);
}

TEST(FaultPlane, WiredFifoHoldsAcrossRecoveryInstant) {
  NetConfig cfg = small_config(/*m=*/2, /*n=*/0);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.crashes.push_back({1, 100, 100});
  net.install_fault_plane(profile);
  Harness agents(net);
  net.start();
  // A (sent t=190, natural arrival t=195) is held until recovery at
  // t=200; B (sent t=195) arrives naturally at exactly t=200. Both land
  // at t=200, and the channel must still deliver them in send order.
  net.sched().schedule_at(190, [&agents] {
    agents.mss[0]->do_send_wired(static_cast<MssId>(1), std::string("A"));
  });
  net.sched().schedule_at(195, [&agents] {
    agents.mss[0]->do_send_wired(static_cast<MssId>(1), std::string("B"));
  });
  net.run();
  ASSERT_EQ(agents.mss[1]->received.size(), 2u);
  std::vector<std::string> order;
  for (const auto& got : agents.mss[1]->received) {
    EXPECT_EQ(got.at, 200u);
    order.push_back(*body_as<std::string>(got.env));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B"}));
  ExpectCleanEventStream(net);
}

TEST(FaultPlane, PartitionedLinkDefersUntilHeal) {
  NetConfig cfg = small_config();
  Network net(cfg);
  fault::FaultProfile profile;
  profile.partitions.push_back({0, 1, 50, 120});
  net.install_fault_plane(profile);
  Harness agents(net);
  net.start();
  net.sched().schedule_at(60, [&agents] {
    agents.mss[0]->do_send_wired(static_cast<MssId>(1), std::string("partitioned"));
    agents.mss[0]->do_send_wired(static_cast<MssId>(2), std::string("clear"));
  });
  net.run();
  ASSERT_EQ(agents.mss[1]->received.size(), 1u);
  EXPECT_EQ(agents.mss[1]->received[0].at, 120u);  // held until heal
  ASSERT_EQ(agents.mss[2]->received.size(), 1u);
  EXPECT_EQ(agents.mss[2]->received[0].at, 65u);  // unaffected link
  ExpectCleanEventStream(net);
}

}  // namespace
}  // namespace mobidist::test
