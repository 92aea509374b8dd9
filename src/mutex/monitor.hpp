#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include <string>

#include "net/ids.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace mobidist::net {
class Network;
}  // namespace mobidist::net

namespace mobidist::mutex {

/// Global observer of critical-section activity. Every mutex algorithm
/// reports enter/exit here; tests and benches read the history.
///
/// The monitor never throws on a violation (the simulation should keep
/// running so the whole interleaving is visible); it counts overlaps and
/// tests assert violations() == 0.
class CsMonitor {
 public:
  /// One recorded CS visit: who entered, when, and in what order.
  struct Grant {
    net::MhId mh = net::kInvalidMh;
    /// Algorithm-supplied ordering key (e.g. the Lamport timestamp of
    /// the request); tests check grants are served in key order.
    std::uint64_t order_key = 0;
    sim::SimTime requested = 0;  ///< when the MH asked (if note_request used)
    sim::SimTime entered = 0;
    sim::SimTime exited = 0;
    bool has_request_time = false;
    bool done = false;
    obs::EventId enter_event = 0;  ///< the kCsEnter event; cause of the exit
  };

  /// Publish this monitor's activity on `net`: the "mutex.cs_wait"
  /// histogram (request-to-grant latency in virtual ticks) plus
  /// "mutex.cs_grants" / "mutex.cs_violations" counters in its registry,
  /// and CS request/enter/exit events through Network::emit, tagged with
  /// `label` ("L1", "R2'", ...) so several algorithm instances sharing
  /// one network stay distinguishable to the stream checkers. The mutex
  /// algorithms bind their monitor at construction; an unbound monitor
  /// records only its own history.
  void bind(net::Network& net, std::string label);

  /// Optional latency instrumentation: record that `mh` submitted a
  /// request now. The next enter() by the same MH is matched FIFO to the
  /// oldest unmatched request, yielding grant latency.
  void note_request(net::MhId mh, sim::SimTime now);

  /// Record a CS entry. Returns the grant index (pass to exit()).
  std::size_t enter(net::MhId mh, std::uint64_t order_key, sim::SimTime now);

  /// Mean request-to-grant latency over grants that had a matched
  /// note_request (0 if none).
  [[nodiscard]] double mean_grant_latency() const noexcept;

  /// Record the matching CS exit.
  void exit(std::size_t grant_index, sim::SimTime now);

  /// Number of completed or in-progress grants.
  [[nodiscard]] std::size_t grants() const noexcept { return history_.size(); }
  /// Every grant recorded so far, in entry order.
  [[nodiscard]] const std::vector<Grant>& history() const noexcept { return history_; }

  /// True while some MH is inside the critical section.
  [[nodiscard]] bool busy() const noexcept { return holder_.has_value(); }
  /// The MH currently inside the CS, if any.
  [[nodiscard]] std::optional<net::MhId> holder() const noexcept { return holder_; }

  /// Mutual-exclusion violations observed (overlapping holders, exits
  /// without entry, double exits).
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

  /// Count of adjacent grant pairs whose order keys are out of order;
  /// zero means grants respected the algorithm's ordering claim.
  [[nodiscard]] std::uint64_t order_inversions() const noexcept;

 private:
  void count_violation() noexcept;

  std::vector<Grant> history_;
  std::optional<net::MhId> holder_;
  std::optional<std::size_t> holder_grant_;
  std::map<net::MhId, std::deque<sim::SimTime>> pending_requests_;
  std::uint64_t violations_ = 0;
  net::Network* net_ = nullptr;             // bound via bind
  obs::Histogram* wait_hist_ = nullptr;
  obs::Counter* grants_counter_ = nullptr;
  obs::Counter* violations_counter_ = nullptr;
  std::string label_;
};

}  // namespace mobidist::mutex
