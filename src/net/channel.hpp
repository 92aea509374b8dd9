#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mobidist::net {

/// Receiver-side duplicate suppression for reliable wireless channels.
///
/// Every wseq <= `floor` has been delivered; delivered wseqs above the
/// floor park in `above` until the floor catches up. A frame abandoned
/// mid-retry (its MH left the cell for good) leaves a permanent hole
/// below later deliveries, so a plain high-water mark would mis-drop
/// fresh frames — but an unbounded parked set leaks on every abandoned
/// frame. The set is therefore bounded by the retransmit window: once it
/// outgrows kRetransmitWindow, no hole that old can still fill (the
/// sender would have abandoned it), so the oldest gap is declared lost
/// and the floor jumps forward. The bound is a count of parked frames,
/// not a span of wseqs, which is why `above` is a sorted vector rather
/// than a fixed-width bitmap.
struct WseqDedup {
  /// Maximum parked (delivered-out-of-order) wseqs retained; generously
  /// above any plausible in-flight retransmit depth.
  static constexpr std::size_t kRetransmitWindow = 64;

  /// Highest wseq below which everything is considered delivered.
  std::uint64_t floor = 0;
  /// Delivered wseqs above the floor, ascending, waiting for the gap to
  /// fill. Empty on an in-order channel, so it never allocates there.
  std::vector<std::uint64_t> above;

  /// Record one delivered wseq; false = duplicate, suppress the frame.
  /// Postcondition: above.size() <= kRetransmitWindow.
  [[nodiscard]] bool deliver(std::uint64_t wseq);
};

/// One ordered wireless channel (an MSS's downlink to one MH, or a MH's
/// uplink to one MSS). `fifo_clock` clamps arrivals (never decrease);
/// `next_wseq` is the sender-side logical frame number; `dedup` is the
/// receiver-side duplicate suppression window.
struct ChannelState {
  sim::SimTime fifo_clock = 0;
  std::uint64_t next_wseq = 0;
  WseqDedup dedup;
};

}  // namespace mobidist::net
