// Formation-layer tests: trigger policy (count/bytes/deadline/barrier),
// cost amortization of the per-packet wired charge, packet-event FIFO
// checking, equivalence of delivered traffic with and without batching,
// plus the wire-path bugfix regressions that ride this layer's PR:
// saturating retransmit backoff and the bounded wseq dedup window.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plane.hpp"
#include "net/formation.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

/// small_config with batching enabled.
NetConfig batching_config(std::uint32_t deadline, std::uint32_t max_msgs = 16,
                          std::uint32_t max_bytes = 4096) {
  auto cfg = small_config();
  cfg.formation.flush_deadline = deadline;
  cfg.formation.max_packet_msgs = max_msgs;
  cfg.formation.max_packet_bytes = max_bytes;
  return cfg;
}

// --------------------------------------------------------------------------
// Construction / passthrough
// --------------------------------------------------------------------------

TEST(Formation, PassthroughHasNoLayer) {
  Network net(small_config());
  EXPECT_EQ(net.formation(), nullptr);
  EXPECT_TRUE(net.config().formation.passthrough());
}

TEST(Formation, BatchingConstructsLayer) {
  Network net(batching_config(10));
  ASSERT_NE(net.formation(), nullptr);
  EXPECT_EQ(net.formation()->packets_formed(), 0u);
}

TEST(Formation, ZeroMaxMsgsRejected) {
  auto cfg = batching_config(10, /*max_msgs=*/0);
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

TEST(Formation, PassthroughEmitsNoPacketEvents) {
  Network net(small_config());
  Harness h(net);
  net.start();
  for (int i = 0; i < 8; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 0u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketFlush), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Triggers
// --------------------------------------------------------------------------

TEST(Formation, CountTriggerFlushesFullPacket) {
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/4));
  Harness h(net);
  net.start();
  for (int i = 0; i < 4; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 4u);
  // The 4th message filled the packet at t=0: everyone rides one wire
  // transmission and lands together at the wired latency, not at the
  // deadline.
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 5u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 1u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketFlush), 1u);
  EXPECT_EQ(net.formation()->size_flushes(), 1u);
  EXPECT_EQ(net.formation()->msgs_enqueued(), 4u);
  EXPECT_EQ(net.formation()->pending_msgs(), 0u);
  ExpectCleanEventStream(net);
}

TEST(Formation, BytesTriggerFlushesImmediately) {
  // Every message exceeds the byte budget on its own: each becomes its
  // own packet, so batching degenerates to passthrough costs.
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/100, /*max_bytes=*/1));
  Harness h(net);
  net.start();
  for (int i = 0; i < 3; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  EXPECT_EQ(h.mss[1]->received.size(), 3u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 3u);
  EXPECT_EQ(net.ledger().wired_packets(), 3u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 3u);
  ExpectCleanEventStream(net);
}

TEST(Formation, DeadlineTriggerFlushesPartialPacket) {
  Network net(batching_config(/*deadline=*/100, /*max_msgs=*/16));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 2u);
  // Flushed by the deadline timer at t=100, arriving one wired latency
  // later.
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 105u);
  EXPECT_EQ(net.formation()->deadline_flushes(), 1u);
  EXPECT_EQ(net.formation()->size_flushes(), 0u);
  ExpectCleanEventStream(net);
}

TEST(Formation, StaleDeadlineTimerIsNoOp) {
  // Fill a packet (count flush) before its deadline: the armed timer
  // must find a newer epoch and flush nothing twice.
  Network net(batching_config(/*deadline=*/100, /*max_msgs=*/2));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);  // count flush at t=0
  net.run();
  EXPECT_EQ(h.mss[1]->received.size(), 2u);
  EXPECT_EQ(net.formation()->packets_formed(), 1u);
  EXPECT_EQ(net.formation()->deadline_flushes(), 0u);
  ExpectCleanEventStream(net);
}

TEST(Formation, PerPairQueuesAreIndependent) {
  Network net(batching_config(/*deadline=*/50, /*max_msgs=*/8));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(2), 2);
  h.mss[1]->do_send_wired(mss_id(2), 3);
  net.run();
  // Three (src,dst) pairs -> three deadline packets.
  EXPECT_EQ(net.formation()->packets_formed(), 3u);
  EXPECT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(h.mss[2]->received.size(), 2u);
  ExpectCleanEventStream(net);
}

TEST(Formation, SelfSendBypassesFormation) {
  Network net(batching_config(/*deadline=*/1000));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(0), 42);
  net.run();
  ASSERT_EQ(h.mss[0]->received.size(), 1u);
  EXPECT_EQ(h.mss[0]->received[0].at, 0u);  // local dispatch, no deadline wait
  EXPECT_EQ(net.formation()->msgs_enqueued(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Cost amortization
// --------------------------------------------------------------------------

TEST(Formation, BatchingAmortizesPerPacketCost) {
  constexpr int kMsgs = 10;
  cost::CostParams params;  // c_fixed=1, c_wired_msg=0

  Network plain(small_config());
  Harness hp(plain);
  plain.start();
  for (int i = 0; i < kMsgs; ++i) hp.mss[0]->do_send_wired(mss_id(1), i);
  plain.run();

  Network batched(batching_config(/*deadline=*/50, /*max_msgs=*/100));
  Harness hb(batched);
  batched.start();
  for (int i = 0; i < kMsgs; ++i) hb.mss[0]->do_send_wired(mss_id(1), i);
  batched.run();

  EXPECT_EQ(plain.ledger().fixed_msgs(), kMsgs);
  EXPECT_EQ(plain.ledger().wired_packets(), kMsgs);
  EXPECT_EQ(batched.ledger().fixed_msgs(), kMsgs);
  EXPECT_EQ(batched.ledger().wired_packets(), 1u);
  EXPECT_DOUBLE_EQ(plain.ledger().total(params), kMsgs * params.c_fixed);
  EXPECT_DOUBLE_EQ(batched.ledger().total(params), 1.0 * params.c_fixed);
  EXPECT_LT(batched.ledger().total(params), plain.ledger().total(params));

  // With a per-message marginal cost the batched total still undercuts
  // passthrough by (kMsgs - 1) * c_fixed.
  cost::CostParams split = params;
  split.c_wired_msg = 0.25;
  EXPECT_DOUBLE_EQ(batched.ledger().total(split),
                   params.c_fixed + kMsgs * split.c_wired_msg);
  EXPECT_LT(batched.ledger().total(split), plain.ledger().total(split));
}

TEST(Formation, ControlOnlyPacketIsFree) {
  Network net(batching_config(/*deadline=*/50, /*max_msgs=*/100));
  net.start();
  // Broadcast-search queries are control-charged separately; simplest
  // control-only wired traffic here: drive the substrate via a handoff.
  net.mh(mh_id(0)).move_to(mss_id(1), 1);
  net.run();
  // Handoff control traffic batched into packets, but nothing charged.
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
  EXPECT_EQ(net.ledger().wired_packets(), 0u);
  EXPECT_GT(net.formation()->packets_formed(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Ordering: barrier + checker integration
// --------------------------------------------------------------------------

TEST(Formation, ForwardLegBarrierPreservesChannelFifo) {
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/16));
  Harness h(net);
  net.start();
  // Queue wired messages on (0 -> 1), then send_to_mh to a MH living in
  // cell 1: the forward leg shares the (0 -> 1) channel and must flush
  // the pending packet first (barrier) or it would overtake them.
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);
  h.mss[0]->do_send_to_mh(mh_id(1), std::string("fwd"));
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 2u);
  EXPECT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(net.formation()->barrier_flushes(), 1u);
  bool saw_barrier_packet = false;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == obs::EventKind::kPacketSend && ev.detail == "barrier") {
      saw_barrier_packet = true;
    }
  }
  EXPECT_TRUE(saw_barrier_packet);
  // check_channel_fifo + check_packet_fifo together prove no reorder
  // across the flush boundary.
  ExpectCleanEventStream(net);
}

TEST(Formation, BatchedAndPlainDeliverSamePerChannelSequence) {
  const auto drive = [](Network& net) {
    Harness h(net);
    net.start();
    std::vector<int> sent;
    for (int i = 0; i < 20; ++i) {
      h.mss[i % 2]->do_send_wired(mss_id(1 - i % 2), i);
      sent.push_back(i);
    }
    net.run();
    std::vector<int> got0;
    std::vector<int> got1;
    for (const auto& r : h.mss[0]->received) got0.push_back(*body_as<int>(r.env));
    for (const auto& r : h.mss[1]->received) got1.push_back(*body_as<int>(r.env));
    ExpectCleanEventStream(net);
    return std::make_pair(got0, got1);
  };

  Network plain(small_config());
  Network batched(batching_config(/*deadline=*/30, /*max_msgs=*/5));
  const auto expected = drive(plain);
  const auto actual = drive(batched);
  // Batching changes arrival instants, never content or per-channel
  // order.
  EXPECT_EQ(actual.first, expected.first);
  EXPECT_EQ(actual.second, expected.second);
}

TEST(Formation, MutexWorkloadRidesFormationTransparently) {
  // Algorithm traffic (L2-style wired messages via agents) batched
  // end-to-end: everything delivered, all checkers clean, strictly
  // fewer packets than messages.
  Network net(batching_config(/*deadline=*/20, /*max_msgs=*/8));
  Harness h(net);
  net.start();
  for (int round = 0; round < 10; ++round) {
    h.mss[0]->do_send_wired(mss_id(1), round);
    h.mss[1]->do_send_wired(mss_id(2), round);
    h.mss[2]->do_send_wired(mss_id(0), round);
  }
  net.run();
  EXPECT_EQ(h.mss[0]->received.size(), 10u);
  EXPECT_EQ(h.mss[1]->received.size(), 10u);
  EXPECT_EQ(h.mss[2]->received.size(), 10u);
  EXPECT_LT(net.ledger().wired_packets(), net.ledger().fixed_msgs());
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Bugfix regression: saturating retransmit backoff
// --------------------------------------------------------------------------

TEST(RetransmitBackoff, HugeRtoBaseSaturatesAtCap) {
  // rto_base near the top of the 64-bit range: before the fix,
  // backoff(attempt=1) computed base << 1 which wraps to ~0, collapsing
  // the retry delay to 1 tick (retransmission spam). Saturation must
  // pin every retry at rto_cap instead.
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.drop_first_wireless = 2;  // deterministic: lose attempts 0 and 1
  profile.rto_base = 1ULL << 63;
  profile.rto_cap = 500;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_local(mh_id(0), std::string("frame"));
  net.run();
  ASSERT_EQ(h.mh[0]->received.size(), 1u);
  // attempt 0 at t=0 (dropped), retry at 500 (dropped), retry at 1000,
  // delivered one wireless latency (2) later. The wrapped backoff would
  // have delivered at t=504.
  EXPECT_EQ(h.mh[0]->received[0].at, 1002u);
  ExpectCleanEventStream(net);
}

TEST(RetransmitBackoff, NormalExponentialScheduleUnchanged) {
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.drop_first_wireless = 3;
  profile.rto_base = 16;
  profile.rto_cap = 256;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_local(mh_id(0), std::string("frame"));
  net.run();
  ASSERT_EQ(h.mh[0]->received.size(), 1u);
  // Drops at t=0, 16, 48; delivery attempt at 112 lands at 114.
  EXPECT_EQ(h.mh[0]->received[0].at, 114u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Bugfix regression: bounded wseq dedup window
// --------------------------------------------------------------------------

TEST(WseqDedup, InOrderFloorAdvance) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(1));
  EXPECT_TRUE(d.deliver(2));
  EXPECT_EQ(d.floor, 2u);
  EXPECT_TRUE(d.above.empty());
}

TEST(WseqDedup, WseqAtFloorIsDuplicate) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(1));
  EXPECT_FALSE(d.deliver(1));  // == floor
  EXPECT_FALSE(d.deliver(0));  // below floor
}

TEST(WseqDedup, DuplicateAboveFloorSuppressed) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(5));
  EXPECT_FALSE(d.deliver(5));
  EXPECT_EQ(d.above.size(), 1u);
}

TEST(WseqDedup, OutOfOrderCatchUpDrainsAbove) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(3));
  EXPECT_TRUE(d.deliver(2));
  EXPECT_EQ(d.above.size(), 2u);
  EXPECT_EQ(d.floor, 0u);
  EXPECT_TRUE(d.deliver(1));  // fills the gap: floor jumps past the parked run
  EXPECT_EQ(d.floor, 3u);
  EXPECT_TRUE(d.above.empty());
}

TEST(WseqDedup, PermanentHoleNoLongerBalloonsParkedSet) {
  // The ballooning pattern: wseq 1 abandoned (never delivered), every
  // later frame delivered. Before the bound, `above` grew by one entry
  // per frame forever; now it stays within the retransmit window and
  // the floor advances past the dead gap.
  WseqDedup d;
  for (std::uint64_t w = 2; w <= 1000; ++w) {
    EXPECT_TRUE(d.deliver(w)) << "fresh frame " << w << " must deliver";
    EXPECT_LE(d.above.size(), WseqDedup::kRetransmitWindow);
  }
  EXPECT_GE(d.floor, 1000u - WseqDedup::kRetransmitWindow - 1);
  // The abandoned frame's wseq is now below the advanced floor: a
  // pathologically late copy is suppressed as a duplicate (the
  // documented trade for bounded memory).
  EXPECT_FALSE(d.deliver(1));
}

// Differential check of WseqDedup against the original std::set
// formulation of the same algorithm, kept here verbatim as the
// reference: every return value, floor and parked set must agree.
struct SetWseqDedup {
  std::uint64_t floor = 0;
  std::set<std::uint64_t> above;

  bool deliver(std::uint64_t wseq) {
    if (wseq <= floor) return false;
    if (wseq == floor + 1 && above.empty()) {
      ++floor;
      return true;
    }
    if (above.contains(wseq)) return false;
    above.insert(wseq);
    while (above.contains(floor + 1)) {
      above.erase(floor + 1);
      ++floor;
    }
    while (above.size() > WseqDedup::kRetransmitWindow) {
      floor = *above.begin();
      above.erase(above.begin());
      while (above.contains(floor + 1)) {
        above.erase(floor + 1);
        ++floor;
      }
    }
    return true;
  }
};

/// A seeded wseq stream: frames 1..length, some dropped for good
/// (permanent holes), locally reordered within `reorder` positions, and
/// with repeats of recent or long-delivered frames mixed in.
std::vector<std::uint64_t> wseq_stream(sim::Rng& rng, std::uint64_t length, double hole_p,
                                       std::uint64_t reorder, double dup_p) {
  std::vector<std::uint64_t> frames;
  for (std::uint64_t w = 1; w <= length; ++w) {
    if (!rng.chance(hole_p)) frames.push_back(w);
  }
  for (std::size_t i = 0; reorder > 0 && i < frames.size(); ++i) {
    const auto j = i + rng.below(std::min<std::uint64_t>(reorder, frames.size() - i));
    std::swap(frames[i], frames[j]);
  }
  std::vector<std::uint64_t> stream;
  for (const auto w : frames) {
    stream.push_back(w);
    if (rng.chance(dup_p)) {
      const auto back = rng.below(std::min<std::size_t>(stream.size(), 8));
      stream.push_back(stream[stream.size() - 1 - back]);
    }
    if (rng.chance(dup_p / 4)) stream.push_back(1 + rng.below(w));
  }
  return stream;
}

TEST(WseqDedup, MatchesTheSetReferenceOnSeededStreams) {
  struct Shape {
    double hole_p;
    std::uint64_t reorder;
    double dup_p;
  };
  const Shape shapes[] = {
      {0.0, 0, 0.0},     // in order
      {0.0, 0, 0.3},     // duplicates only
      {0.0, 8, 0.1},     // reordering
      {0.05, 4, 0.1},    // permanent holes
      {0.02, 200, 0.05}, // far reordering: more than 64 frames parked
  };
  std::size_t max_parked = 0;
  std::size_t suppressed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto& shape = shapes[seed % std::size(shapes)];
    sim::Rng rng(seed);
    const auto stream = wseq_stream(rng, 2000, shape.hole_p, shape.reorder, shape.dup_p);
    WseqDedup flat;
    SetWseqDedup ref;
    for (std::size_t step = 0; step < stream.size(); ++step) {
      const auto w = stream[step];
      const bool got = flat.deliver(w);
      ASSERT_EQ(got, ref.deliver(w)) << "seed " << seed << " step " << step << " wseq " << w;
      ASSERT_EQ(flat.floor, ref.floor) << "seed " << seed << " step " << step;
      ASSERT_EQ(std::vector<std::uint64_t>(flat.above.begin(), flat.above.end()),
                std::vector<std::uint64_t>(ref.above.begin(), ref.above.end()))
          << "seed " << seed << " step " << step;
      max_parked = std::max(max_parked, flat.above.size());
      if (!got) ++suppressed;
    }
  }
  // The streams must reach the window bound and exercise suppression.
  EXPECT_EQ(max_parked, WseqDedup::kRetransmitWindow);
  EXPECT_GT(suppressed, 0u);
}

TEST(WseqDedup, ChaosProfileKeepsWindowBoundedEndToEnd) {
  // Network-level version of the balloon: lossy wireless with a mobile
  // host hopping cells abandons downlink frames mid-retry, punching
  // permanent holes in the (mss,mh) downlink channels. The run must
  // stay checker-clean with the bound in force.
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.wireless_loss = 0.3;
  profile.rto_base = 2;
  profile.rto_cap = 8;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  for (int i = 0; i < 40; ++i) {
    net.sched().schedule(static_cast<sim::Duration>(10 * i + 1), [&h, i] {
      h.mss[0]->do_send_to_mh(mh_id(0), i);
    });
    if (i % 4 == 3) {
      net.sched().schedule(static_cast<sim::Duration>(10 * i + 2), [&net, i] {
        net.mh(mh_id(0)).move_to(mss_id((i / 4 + 1) % 2), 3);
      });
    }
  }
  net.run();
  EXPECT_GT(h.mh[0]->received.size(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Formation under faults
// --------------------------------------------------------------------------

TEST(Formation, PacketDeferredAcrossMssCrash) {
  auto cfg = batching_config(/*deadline=*/10, /*max_msgs=*/4);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.crashes.push_back(fault::MssCrash{1, /*at=*/5, /*down_for=*/100});
  profile.evacuate_on_crash = false;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  for (int i = 0; i < 4; ++i) h.mss[0]->do_send_wired(mss_id(1), i);  // count flush at t=0
  net.run();
  // Packet arrives at t=5 into the crash window [5, 105): held at the
  // interface and disgorged at recovery.
  ASSERT_EQ(h.mss[1]->received.size(), 4u);
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 105u);
  ExpectCleanEventStream(net);
}

}  // namespace
}  // namespace mobidist::test
