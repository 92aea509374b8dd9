#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mobidist::net {

/// How the substrate resolves "which MSS currently serves MH h?".
enum class SearchMode : std::uint8_t {
  /// Abstract search, exactly as the paper's cost model: one c_search
  /// charge covers locating the MH *and* forwarding the message to its
  /// current local MSS. Resolution consults ground truth after a
  /// configurable latency; a search for an in-transit MH completes when
  /// the MH joins its next cell (the model's eventual-delivery rule).
  kOracle,
  /// The paper's stated worst case: the source MSS really queries each
  /// of the other M-1 MSSs with control messages that ARE charged as
  /// fixed-network messages; negative rounds (target in transit) retry
  /// after a timeout.
  kBroadcast,
};

/// Latency knobs. All uniform in [min, max]; set min == max for the
/// deterministic runs the formula-agreement tests use. FIFO per channel
/// is enforced regardless of sampling (arrivals are clamped to be
/// non-decreasing per ordered channel).
struct LatencyConfig {
  sim::Duration wired_min = 2;
  sim::Duration wired_max = 10;
  sim::Duration wireless_min = 1;
  sim::Duration wireless_max = 3;
  /// Extra latency of one oracle search (locate + forward leg).
  sim::Duration search_min = 3;
  sim::Duration search_max = 12;
  /// Broadcast mode: pause before re-querying when a round finds nothing.
  sim::Duration broadcast_retry = 50;
  bool operator==(const LatencyConfig&) const = default;
};

}  // namespace mobidist::net
