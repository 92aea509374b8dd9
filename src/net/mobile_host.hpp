#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/agent.hpp"
#include "net/channel.hpp"
#include "net/envelope.hpp"
#include "net/ids.hpp"
#include "net/messages.hpp"
#include "sim/time.hpp"

namespace mobidist::net {

class Network;

/// Connectivity state of a mobile host (Section 2).
enum class MhState : std::uint8_t {
  kConnected,     ///< local to exactly one cell
  kInTransit,     ///< between leave() and join(): unreachable but will rejoin
  kDisconnected,  ///< voluntarily disconnected; may never return
};

/// Everything one cell keeps about one MH: the §2 membership bits of
/// that cell's MSS and the MH's uplink into it. The MH owns one record
/// per cell it has been in (N >> M, and a MH visits few cells), so the
/// join/leave/handoff path finds its state with a short linear scan.
struct CellLink {
  MssId mss = kInvalidMss;
  bool local = false;                ///< in the MSS's local-MH list
  bool disconnected = false;         ///< the MSS holds a "disconnected" flag
  bool awaiting_handoff_in = false;  ///< the MSS awaits this MH's state from its last cell
  bool has_deferred = false;         ///< a HandoffRequest waits in Mss's deferred map
  /// joins_completed() at the MH's latest arrival in this cell; 0 if it
  /// never joined here (placement is not a join).
  std::uint64_t arrival_seq = 0;
  ChannelState uplink;  ///< MH -> this MSS wireless channel
};

/// A mobile host. Owns the MH side of the §2 protocol: leave(r)/join,
/// disconnect(r)/reconnect, doze mode, and the FIFO resequencer for the
/// MH-to-MH relay service. Algorithm behaviour comes from MhAgents.
class MobileHost {
 public:
  MobileHost(Network& net, MhId id);

  MobileHost(const MobileHost&) = delete;
  MobileHost& operator=(const MobileHost&) = delete;

  /// This host's identity.
  [[nodiscard]] MhId id() const noexcept { return id_; }
  /// Connectivity state (connected / in transit / disconnected).
  [[nodiscard]] MhState state() const noexcept { return state_; }
  /// Shorthand for state() == kConnected.
  [[nodiscard]] bool connected() const noexcept { return state_ == MhState::kConnected; }

  /// Current cell; kInvalidMss while in transit or disconnected.
  [[nodiscard]] MssId current_mss() const noexcept {
    return state_ == MhState::kConnected ? mss_ : kInvalidMss;
  }
  /// The cell this MH was last local to (valid while in transit /
  /// disconnected; it is where the "disconnected" flag lives).
  [[nodiscard]] MssId last_mss() const noexcept { return mss_; }

  /// Monotone count of completed joins (moves + reconnects). Protocols
  /// use it to order per-MH mobility events (e.g. the location-view
  /// coordinator discards stale view changes by this sequence).
  [[nodiscard]] std::uint64_t joins_completed() const noexcept { return joins_completed_; }

  /// Doze mode: the MH stays reachable but counts every delivery as an
  /// interruption (the R1-vs-R2 comparison metric of §3.1.2).
  void set_doze(bool dozing) noexcept { dozing_ = dozing; }
  /// True while doze mode is on.
  [[nodiscard]] bool dozing() const noexcept { return dozing_; }

  /// Register an agent for `proto`. Must happen before Network::start().
  void register_agent(ProtocolId proto, std::shared_ptr<MhAgent> agent);
  /// The agent registered for `proto`; nullptr if none.
  [[nodiscard]] MhAgent* agent(ProtocolId proto) const noexcept;

  // --- mobility (driven by mobility models / tests) -----------------------

  /// Leave the current cell and join `target` after `transit` ticks:
  /// sends leave(r), goes unreachable, then sends join(mh, prev) at the
  /// new MSS. Requires connected(). `target` may equal the current cell
  /// (coverage lost and regained without crossing a boundary — the only
  /// way a single-MSS system sees an in-transit MH).
  void move_to(MssId target, sim::Duration transit);

  /// Voluntarily disconnect: sends disconnect(r); the local MSS keeps a
  /// "disconnected" flag for this MH. Requires connected().
  void disconnect();

  /// Reconnect in `target`'s cell after `delay`. `supply_prev` mirrors
  /// the paper: if false, the reconnect() message omits the previous MSS
  /// id and the new MSS must query every fixed host to find it.
  /// Requires state() == kDisconnected.
  void reconnect_at(MssId target, sim::Duration delay, bool supply_prev = true);

  // --- substrate hooks -----------------------------------------------------

  /// Wireless downlink arrival (called by Network on delivery).
  void deliver(const Envelope& env);

  /// Send to another MH through the relay service: assigns the FIFO
  /// sequence number and ships the wrapper uplink. Used by
  /// MhAgent::send_to_mh; requires connected().
  void send_relay(MhId dst, ProtocolId inner_proto, Body body, bool fifo);

  /// Fire on_start on all registered agents (called by Network::start).
  void start_agents();

 private:
  friend class Network;
  friend class Mss;

  void complete_join(MssId at);  ///< invoked when the MSS processes our join
  /// This MH's record for `mss`'s cell; nullptr if it never touched it.
  [[nodiscard]] CellLink* find_link(MssId mss) noexcept;
  /// The record for `mss`'s cell, appended on first contact. Appending
  /// may move later records, so never hold the reference across a call
  /// that can reach an agent (agents can send, and sending can append).
  [[nodiscard]] CellLink& link(MssId mss);
  /// The downlink channel from `mss` to this MH, created on first use.
  [[nodiscard]] ChannelState& downlink(MssId mss);
  void dispatch_inner(ProtocolId proto, MhId from, const Body& body);
  void accept_relay(const msg::Relay& relay);

  Network& net_;
  MhId id_;
  MhState state_ = MhState::kConnected;
  MssId mss_ = kInvalidMss;       ///< current or last cell
  MssId prev_mss_ = kInvalidMss;  ///< previous cell (handoff source)
  bool dozing_ = false;
  std::uint64_t downlink_seq_seen_ = 0;  ///< r: last downlink seq received here
  std::uint64_t joins_completed_ = 0;

  std::map<ProtocolId, std::shared_ptr<MhAgent>> agents_;

  // Link records: the first (the placement cell) inline so placement
  // allocates nothing, later cells in visiting order. Downlink channels
  // live apart and only once an MSS actually sends to this MH.
  CellLink first_link_;
  std::vector<CellLink> more_links_;
  struct Downlink {
    MssId mss;
    ChannelState chan;
  };
  std::vector<Downlink> downlinks_;

  // Relay FIFO machinery: per-destination send sequence numbers and a
  // per-source resequencing buffer (next expected seq + held payloads).
  std::map<MhId, std::uint64_t> relay_send_seq_;
  struct Resequencer {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, msg::Relay> held;
  };
  std::map<MhId, Resequencer> relay_recv_;
};

}  // namespace mobidist::net
