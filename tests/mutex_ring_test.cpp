// Integration tests for the ring algorithms R1 and R2/R2'/R2'': traversal
// costs, the N×M racing behaviour, the R2' fairness cap, the R2''
// malicious-counter defence, and disconnect/doze handling.

#include <gtest/gtest.h>

#include <string>

#include "exp/exp.hpp"
#include "mobility/mobility_model.hpp"
#include "mutex/monitor.hpp"
#include "mutex/r1.hpp"
#include "mutex/r2.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

using mutex::CsMonitor;
using mutex::MutexOptions;
using mutex::R1Mutex;
using mutex::R2Mutex;
using mutex::RingVariant;

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

// --------------------------------------------------------------------------
// R1
// --------------------------------------------------------------------------

TEST(R1, IdleTraversalCostsExactlyNRelays) {
  constexpr std::uint32_t kN = 7;
  Network net(small_config(3, kN));
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  net.start();
  net.sched().schedule(1, [&] { r1.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r1.token_absorbed());
  EXPECT_EQ(r1.traversals_done(), 1u);
  // N hops, each 2*c_wireless + c_search — with zero requests served.
  EXPECT_EQ(net.ledger().wireless_msgs(), 2u * kN);
  EXPECT_EQ(net.ledger().searches(), kN);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
  EXPECT_EQ(monitor.grants(), 0u);
}

TEST(R1, TraversalCostIndependentOfRequestsServed) {
  constexpr std::uint32_t kN = 6;
  auto run_with_requests = [&](std::uint32_t requesters) {
    Network net(small_config(3, kN));
    CsMonitor monitor;
    R1Mutex r1(net, monitor);
    net.start();
    for (std::uint32_t i = 0; i < requesters; ++i) r1.request(mh_id(i));
    net.sched().schedule(1, [&] { r1.start_token(1); });
    net.run();
    ExpectCleanEventStream(net);
    EXPECT_EQ(monitor.grants(), requesters);
    EXPECT_EQ(monitor.violations(), 0u);
    return std::pair{net.ledger().wireless_msgs(), net.ledger().searches()};
  };
  const auto idle = run_with_requests(0);
  const auto busy = run_with_requests(kN);
  EXPECT_EQ(idle, busy);  // K does not appear in R1's cost
}

TEST(R1, ServesRequestsInRingOrder) {
  Network net(small_config(3, 5));
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  net.start();
  for (std::uint32_t i = 0; i < 5; ++i) r1.request(mh_id(i));
  net.sched().schedule(1, [&] { r1.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  ASSERT_EQ(monitor.grants(), 5u);
  EXPECT_EQ(monitor.order_inversions(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(monitor.history()[i].mh, mh_id(i));
  }
}

TEST(R1, EveryHostPaysEnergyEvenWithoutRequesting) {
  constexpr std::uint32_t kN = 6;
  Network net(small_config(3, kN));
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  net.start();
  net.sched().schedule(1, [&] { r1.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  const cost::CostParams unit;
  for (std::uint32_t i = 0; i < kN; ++i) {
    // Receive once + transmit once per traversal.
    EXPECT_DOUBLE_EQ(net.ledger().energy_at(i, unit), 2.0) << "mh " << i;
  }
}

TEST(R1, InterruptsDozingHosts) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  net.start();
  net.mh(mh_id(3)).set_doze(true);  // no request, yet still interrupted
  net.sched().schedule(1, [&] { r1.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_GE(net.stats().doze_interruptions, 1u);
}

TEST(R1, DisconnectedHostParksTheToken) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(3)).disconnect(); });
  net.sched().schedule(5, [&] { r1.start_token(1); });
  net.sched().run_until(5000);
  EXPECT_FALSE(r1.token_absorbed());  // ring is stuck at mh3
  net.mh(mh_id(3)).reconnect_at(mss_id(0), 1);
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r1.token_absorbed());  // resumed after reconnect
}

TEST(R1, SafeUnderMobility) {
  auto cfg = small_config(4, 8);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 10;
  Network net(cfg);
  CsMonitor monitor;
  R1Mutex r1(net, monitor);
  mobility::MobilityConfig mob;
  mob.mean_pause = 50;
  mob.mean_transit = 5;
  mob.max_moves_per_host = 3;
  mobility::MobilityDriver driver(net, mob);
  net.start();
  driver.start();
  for (std::uint32_t i = 0; i < 8; i += 2) r1.request(mh_id(i));
  net.sched().schedule(1, [&] { r1.start_token(3); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r1.token_absorbed());
  EXPECT_EQ(monitor.grants(), 4u);
  EXPECT_EQ(monitor.violations(), 0u);
}

// --------------------------------------------------------------------------
// R2 family
// --------------------------------------------------------------------------

TEST(R2, IdleTraversalCostsExactlyMFixedMessages) {
  constexpr std::uint32_t kM = 5;
  Network net(small_config(kM, 10));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  net.sched().schedule(1, [&] { r2.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r2.token_absorbed());
  EXPECT_EQ(net.ledger().fixed_msgs(), kM);
  EXPECT_EQ(net.ledger().wireless_msgs(), 0u);
  EXPECT_EQ(net.ledger().searches(), 0u);
}

TEST(R2, MovedRequesterMatchesPaperPerRequestCost) {
  // One request, requester moves cells after requesting: cost must be
  // exactly 3*c_w + c_f + c_s on top of the M-message ring traversal.
  constexpr std::uint32_t kM = 4;
  auto cfg = small_config(kM, 8);
  cfg.latency.wired_min = cfg.latency.wired_max = 30;  // slow token
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  // Request at cell 1 (t=1), move to cell 2 before the token reaches
  // cell 1 (first hop takes 30 ticks).
  net.sched().schedule(1, [&] { r2.request(mh_id(1)); });
  net.sched().schedule(6, [&] { net.mh(mh_id(1)).move_to(mss_id(2), 3); });
  net.sched().schedule(12, [&] { r2.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 1u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 3u);  // request + token out + token back
  EXPECT_EQ(net.ledger().searches(), 1u);
  EXPECT_EQ(net.ledger().fixed_msgs(), kM + 1);  // ring + token-return relay
  const cost::CostParams p;
  const double expected =
      (3 * p.c_wireless + p.c_fixed + p.c_search) + kM * p.c_fixed;
  EXPECT_DOUBLE_EQ(net.ledger().total(p), expected);
}

TEST(R2, CostScalesWithKNotN) {
  // Fix N, vary the number of requesters K: wireless/search charges grow
  // linearly in K while the ring cost stays M per traversal.
  constexpr std::uint32_t kM = 4, kN = 16;
  auto run_k = [&](std::uint32_t k) {
    Network net(small_config(kM, kN));
    CsMonitor monitor;
    R2Mutex r2(net, monitor, RingVariant::kBasic);
    net.start();
    for (std::uint32_t i = 0; i < k; ++i) r2.request(mh_id(i));
    net.sched().schedule(5, [&] { r2.start_token(1); });
    net.run();
    ExpectCleanEventStream(net);
    EXPECT_EQ(r2.completed(), k);
    return net.ledger();
  };
  const auto lk2 = run_k(2);
  const auto lk8 = run_k(8);
  EXPECT_EQ(lk2.wireless_msgs(), 3u * 2);
  EXPECT_EQ(lk8.wireless_msgs(), 3u * 8);
  EXPECT_EQ(lk2.searches(), 2u);
  EXPECT_EQ(lk8.searches(), 8u);
  EXPECT_EQ(lk2.fixed_msgs(), static_cast<std::uint64_t>(kM));
  EXPECT_EQ(lk8.fixed_msgs(), static_cast<std::uint64_t>(kM));
}

TEST(R2, GrantsAreMutuallyExclusive) {
  Network net(small_config(4, 12));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  for (std::uint32_t i = 0; i < 12; ++i) r2.request(mh_id(i));
  net.sched().schedule(5, [&] { r2.start_token(2); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(monitor.grants(), 12u);
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST(R2, RequestsArrivingWhileTokenHeldWaitForNextTraversal) {
  auto cfg = small_config(3, 6);
  Network net(cfg);
  CsMonitor monitor;
  MutexOptions opts;
  opts.cs_hold = 100;  // keep the token busy at cell 0
  R2Mutex r2(net, monitor, RingVariant::kBasic, opts);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(2); });
  // While mh0 holds the CS (token at cell 0), mh3 (also cell 0) submits.
  net.sched().schedule(60, [&] { r2.request(mh_id(3)); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 2u);
  // mh3 was served with token_val 2 (second traversal), not 1.
  EXPECT_EQ(r2.grants_for(mh_id(3), 1), 0u);
  EXPECT_EQ(r2.grants_for(mh_id(3), 2), 1u);
}

TEST(R2, BasicVariantAllowsRacingAheadOfToken) {
  // The N×M phenomenon: a MH is served at cell 0, races to cell 1 ahead
  // of the token, requests again, and is served a second time within the
  // same traversal.
  auto cfg = small_config(3, 6);
  cfg.latency.wired_min = cfg.latency.wired_max = 60;  // slow ring hops
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(1); });
  // After the first grant completes (~t=20), hop to cell 1 and request
  // again before the token's 60-tick hop lands there.
  net.sched().schedule(30, [&] { net.mh(mh_id(0)).move_to(mss_id(1), 3); });
  net.sched().schedule(40, [&] { r2.request(mh_id(0)); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 2u);
  EXPECT_EQ(r2.grants_for(mh_id(0), 1), 2u);  // twice in traversal 1
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST(R2Prime, CapsEachHostAtOncePerTraversal) {
  // Same racing schedule as above, but R2' defers the second request to
  // the next traversal.
  auto cfg = small_config(3, 6);
  cfg.latency.wired_min = cfg.latency.wired_max = 60;
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kCounter);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(2); });
  net.sched().schedule(30, [&] { net.mh(mh_id(0)).move_to(mss_id(1), 3); });
  net.sched().schedule(40, [&] { r2.request(mh_id(0)); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 2u);
  EXPECT_EQ(r2.grants_for(mh_id(0), 1), 1u);  // capped in traversal 1
  EXPECT_EQ(r2.grants_for(mh_id(0), 2), 1u);  // served next time round
}

TEST(R2Prime, MaliciousCounterDefeatsTheCap) {
  // The attack the paper's "Variations" paragraph worries about: a MH
  // presenting access_count lower than its true value gets double
  // service under R2'.
  auto cfg = small_config(3, 6);
  cfg.latency.wired_min = cfg.latency.wired_max = 60;
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kCounter);
  r2.set_malicious(mh_id(0), true);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(1); });
  net.sched().schedule(30, [&] { net.mh(mh_id(0)).move_to(mss_id(1), 3); });
  net.sched().schedule(40, [&] { r2.request(mh_id(0)); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.grants_for(mh_id(0), 1), 2u);  // the lie worked
}

TEST(R2DoublePrime, TokenListBlocksMaliciousCounter) {
  // R2'' keeps the served list on the token itself; the lying MH is
  // refused until the token completes a full loop.
  auto cfg = small_config(3, 6);
  cfg.latency.wired_min = cfg.latency.wired_max = 60;
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kTokenList);
  r2.set_malicious(mh_id(0), true);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(2); });
  net.sched().schedule(30, [&] { net.mh(mh_id(0)).move_to(mss_id(1), 3); });
  net.sched().schedule(40, [&] { r2.request(mh_id(0)); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 2u);
  EXPECT_EQ(r2.grants_for(mh_id(0), 1), 1u);  // blocked within the traversal
  EXPECT_EQ(r2.grants_for(mh_id(0), 2), 1u);
}

// Regression: R2'' checked eligibility for a station's whole pending
// queue before token_list recorded the first grant, so a MH with two
// requests queued at one station was served twice in one traversal and
// the traversal_cap checker rejected the run (8 of these 8 seeds).
TEST(R2DoublePrime, HostWithTwoQueuedRequestsIsServedOncePerTraversal) {
  exp::ScenarioSpec spec;
  spec.name = "r2pp_double_grant";
  spec.workload = "mutex";
  spec.variant = "r2pp";
  spec.net.num_mss = 8;
  spec.net.num_mh = 32;
  spec.params["requests"] = 64;
  spec.params["request_start"] = 5;
  spec.params["request_gap"] = 10;
  spec.params["token_at"] = 1;
  spec.params["traversals"] = 60;
  exp::SweepGrid grid;
  grid.seeds = exp::derive_seeds(1, 8);
  const auto results = exp::ParallelRunner(2).run(grid.expand(spec));
  ASSERT_EQ(results.size(), 8u);
  for (const auto& result : results) {
    SCOPED_TRACE("seed=" + std::to_string(result.seed));
    // ok covers every trace checker, traversal_cap included.
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.metrics.at("workload.completed"), 64.0);
  }
}

TEST(R2, DisconnectedRequesterIsSkippedAndRingContinues) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(2, [&] { r2.request(mh_id(1)); });
  net.sched().schedule(4, [&] { net.mh(mh_id(0)).disconnect(); });
  net.sched().schedule(20, [&] { r2.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r2.token_absorbed());
  EXPECT_EQ(r2.skipped_disconnected(), 1u);
  EXPECT_EQ(r2.completed(), 1u);  // mh1 still served
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST(R2, DisconnectionOfNonRequesterIsInvisible) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(4)).disconnect(); });
  net.sched().schedule(2, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(10, [&] { r2.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r2.token_absorbed());
  EXPECT_EQ(r2.completed(), 1u);
  EXPECT_EQ(r2.skipped_disconnected(), 0u);
}

TEST(R2, DozingNonRequesterIsNeverInterrupted) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  net.mh(mh_id(3)).set_doze(true);
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(2); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(net.stats().doze_interruptions, 0u);
}

TEST(R2, AbsorbWhenIdleStopsEarly) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  r2.set_absorb_when_idle(true);
  net.start();
  net.sched().schedule(1, [&] { r2.request(mh_id(0)); });
  net.sched().schedule(5, [&] { r2.start_token(1000); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_TRUE(r2.token_absorbed());
  EXPECT_EQ(r2.completed(), 1u);
  EXPECT_LT(net.ledger().fixed_msgs(), 20u);  // did not spin 1000 loops
}

TEST(R2, SafeUnderMobilityAndManyRequests) {
  auto cfg = small_config(4, 16);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 10;
  Network net(cfg);
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kCounter);
  mobility::MobilityConfig mob;
  mob.mean_pause = 40;
  mob.mean_transit = 5;
  mob.max_moves_per_host = 5;
  mobility::MobilityDriver driver(net, mob);
  net.start();
  driver.start();
  for (std::uint32_t i = 0; i < 16; ++i) {
    net.sched().schedule(2 + 5 * i, [&, i] { r2.request(mh_id(i)); });
  }
  net.sched().schedule(10, [&] { r2.start_token(50); });
  r2.set_absorb_when_idle(true);
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(r2.completed(), 16u);
  EXPECT_EQ(monitor.violations(), 0u);
  // R2' invariant across the whole run.
  for (std::uint64_t traversal = 1; traversal <= r2.traversals_done() + 1; ++traversal) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      EXPECT_LE(r2.grants_for(mh_id(i), traversal), 1u);
    }
  }
}

}  // namespace
}  // namespace mobidist::test
