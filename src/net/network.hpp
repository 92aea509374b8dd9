#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cost/cost_model.hpp"
#include "fault/fault_plane.hpp"
#include "net/channel.hpp"
#include "net/envelope.hpp"
#include "net/formation.hpp"
#include "net/ids.hpp"
#include "net/messages.hpp"
#include "net/mobile_host.hpp"
#include "net/mss.hpp"
#include "net/search.hpp"
#include "net/stats.hpp"
#include "obs/events.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace mobidist::net {

/// Map net-layer identifiers onto the obs layer's entity type (obs sits
/// below net in the dependency order, so it cannot know these ids).
[[nodiscard]] constexpr obs::Entity entity_of(MssId id) noexcept {
  return id == kInvalidMss ? obs::Entity{} : obs::Entity::mss(index(id));
}
/// MH counterpart of entity_of(MssId).
[[nodiscard]] constexpr obs::Entity entity_of(MhId id) noexcept {
  return id == kInvalidMh ? obs::Entity{} : obs::Entity::mh(index(id));
}
/// NodeRef counterpart of entity_of(MssId); kNone maps to the empty entity.
[[nodiscard]] constexpr obs::Entity entity_of(NodeRef ref) noexcept {
  switch (ref.kind) {
    case NodeRef::Kind::kMss: return obs::Entity::mss(ref.idx);
    case NodeRef::Kind::kMh: return obs::Entity::mh(ref.idx);
    case NodeRef::Kind::kNone: break;
  }
  return obs::Entity{};
}

/// Where MHs sit before the simulation starts.
enum class InitialPlacement : std::uint8_t {
  kRoundRobin,  ///< mh i starts in cell i mod M
  kAllInCell0,  ///< everyone piled into cell 0 (stress fixture)
};

/// Static configuration of one simulated system.
struct NetConfig {
  std::uint32_t num_mss = 4;   ///< M
  std::uint32_t num_mh = 16;   ///< N (paper: N >> M)
  SearchMode search = SearchMode::kOracle;
  LatencyConfig latency;
  InitialPlacement placement = InitialPlacement::kRoundRobin;
  std::uint64_t seed = 1;
  /// Wired-backbone batching policy. The default is passthrough
  /// (flush_deadline == 0): no formation layer, byte-identical traces to
  /// the unbatched substrate.
  FormationConfig formation;
  /// Shard count for the sharded parallel engine. 0 (the default) is
  /// the legacy single-threaded engine: one global event queue and one
  /// global RNG stream, byte-identical to every pre-sharding trace.
  /// Any value >= 1 selects the sharded engine, which partitions the
  /// MSS topology into min(shards, num_mss) localities synchronized by
  /// conservative time windows (see sim::ShardGroup). The sharded
  /// engine's per-seed results are identical for EVERY shard count —
  /// only wall-clock time changes — but differ from the legacy
  /// engine's, because each lane draws from its own RNG stream. Moves,
  /// searches and faults run on one shard only; their entry points
  /// throw std::logic_error on more.
  std::uint32_t shards = 0;
  bool operator==(const NetConfig&) const = default;
};

/// The §2 system model in one object: M MSSs on a reliable FIFO wired
/// mesh, N MHs reachable over per-cell FIFO wireless links, the
/// join/leave/handoff/disconnect/reconnect protocol, the search
/// substrate, and the cost ledger metering it all.
///
/// Deterministic: every run is a pure function of (NetConfig,
/// registered agents, workload). The legacy engine (cfg.shards == 0) is
/// single-threaded; the sharded engine (cfg.shards >= 1) executes each
/// locality's events single-threaded on its own shard, synchronized by
/// conservative windows, and its canonical merged trace
/// (merged_events()) is byte-identical for every shard count.
class Network {
 public:
  explicit Network(NetConfig cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology & components ----------------------------------------------

  /// M, the number of fixed stations.
  [[nodiscard]] std::uint32_t num_mss() const noexcept { return cfg_.num_mss; }
  /// N, the number of mobile hosts.
  [[nodiscard]] std::uint32_t num_mh() const noexcept { return cfg_.num_mh; }
  /// The configuration this system was built from.
  [[nodiscard]] const NetConfig& config() const noexcept { return cfg_; }

  /// The station with the given id (ids are dense, [0, M)).
  [[nodiscard]] Mss& mss(MssId id);
  [[nodiscard]] const Mss& mss(MssId id) const;
  /// The mobile host with the given id (ids are dense, [0, N)).
  [[nodiscard]] MobileHost& mh(MhId id);
  [[nodiscard]] const MobileHost& mh(MhId id) const;

  /// The simulation kernel driving this system. In the sharded engine
  /// this resolves to the calling shard's scheduler (the main thread
  /// sees shard 0); setup code priming per-entity events should prefer
  /// schedule_on_lane().
  [[nodiscard]] sim::Scheduler& sched() noexcept { return sl().sched; }
  [[nodiscard]] const sim::Scheduler& sched() const noexcept { return sl().sched; }
  /// The system's root deterministic RNG stream (legacy engine; the
  /// sharded engine draws from per-lane streams internally).
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  /// The cost ledger metering every charged hop (the paper's C_* terms).
  /// Shard-local while a sharded run is in flight; after run() returns,
  /// every shard's charges are folded into the slice this returns.
  [[nodiscard]] cost::CostLedger& ledger() noexcept { return sl().ledger; }
  [[nodiscard]] const cost::CostLedger& ledger() const noexcept { return sl().ledger; }
  /// Substrate protocol-event counters (joins, handoffs, retries, ...).
  [[nodiscard]] NetStats& stats() noexcept { return sl().stats; }
  [[nodiscard]] const NetStats& stats() const noexcept { return sl().stats; }
  /// Per-system metric registry: every NetStats counter plus the latency
  /// histograms recorded by the substrate and the algorithm layers.
  /// Shard-local during a sharded run, folded on completion (like
  /// ledger()).
  [[nodiscard]] obs::Registry& metrics() noexcept { return sl().metrics; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return sl().metrics; }
  /// Structured causal event stream: every message hop, mobility event,
  /// CS transition, and token movement, with Lamport clocks and causal
  /// parent ids. The calling shard's stream; merged_events() is the
  /// canonical whole-system view.
  [[nodiscard]] obs::EventStream& events() noexcept { return sl().events; }
  [[nodiscard]] const obs::EventStream& events() const noexcept { return sl().events; }
  /// Emit an event stamped with the current sim time; cause defaults to
  /// the recv being dispatched (see obs::CauseScope).
  obs::EventId emit(obs::EventStream::Emit spec) {
    auto& s = sl();
    return s.events.emit(s.sched.now(), std::move(spec));
  }

  // --- sharded engine -------------------------------------------------------

  /// True when this system runs on the sharded engine (cfg.shards >= 1).
  [[nodiscard]] bool sharded() const noexcept { return cfg_.shards > 0; }
  /// Localities actually created: min(cfg.shards, num_mss) when
  /// sharded, 1 for the legacy engine.
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(slices_.size());
  }
  /// The conservative window width the sharded engine synchronizes
  /// with: the wired-latency lower bound, the cheapest any cross-shard
  /// message can travel.
  [[nodiscard]] sim::Duration lookahead() const noexcept { return cfg_.latency.wired_min; }
  /// The lane (unit of single-threaded execution) owning an entity: an
  /// MSS's own index, a MH's (initial) cell. Lane 0 for the empty
  /// entity.
  [[nodiscard]] std::uint32_t lane_of(obs::Entity entity) const noexcept;
  /// Which shard executes a lane.
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t lane) const noexcept {
    return lane % shard_count();
  }
  /// Schedule setup work on the scheduler owning `lane`. Workloads
  /// priming per-entity events before run() must use this instead of
  /// sched(): in the legacy engine it is the global scheduler either
  /// way, in the sharded engine each event lands on the shard that owns
  /// its entity.
  template <typename Fn>
  void schedule_on_lane(std::uint32_t lane, sim::SimTime at, Fn&& fn) {
    slices_[shard_of(lane)]->sched.schedule_at(at, std::forward<Fn>(fn));
  }
  /// Events fired across all shards (== sched().fired() in legacy).
  [[nodiscard]] std::uint64_t total_fired() const noexcept;
  /// True if the last run() stopped on the safety event limit.
  [[nodiscard]] bool hit_event_limit() const noexcept;
  /// Structured events emitted, summed across shards.
  [[nodiscard]] std::uint64_t events_emitted() const noexcept;
  /// Structured events evicted by ring wraparound, summed across shards.
  [[nodiscard]] std::uint64_t events_dropped() const noexcept;
  /// The canonical whole-system trace: all shards' streams merged into
  /// the shard-count-independent order (see obs::merge_canonical).
  /// Byte-identical across shard counts only while events_dropped() is
  /// zero — ring eviction is per-slice, so once any ring wraps the
  /// retained prefix depends on how emits were grouped.
  /// Detail views point into the shard streams' intern tables — they
  /// stay valid for the Network's lifetime. In the legacy engine this
  /// is simply a renumbered snapshot of the single stream.
  [[nodiscard]] std::vector<obs::Event> merged_events() const;

  // --- fault injection ------------------------------------------------------

  /// Install a deterministic fault plane driving wireless loss /
  /// duplication / delay spikes, MSS crash-recover schedules, and cell
  /// partitions. Call once, before running the scheduler. The plane
  /// draws from its own RNG stream (fault::fault_stream_seed(cfg.seed)),
  /// never from rng_, so a zero-probability profile leaves the run
  /// byte-identical to one without a plane. One shard at most.
  fault::FaultPlane& install_fault_plane(fault::FaultProfile profile);
  /// The installed fault plane; nullptr when the run has none.
  [[nodiscard]] fault::FaultPlane* fault_plane() noexcept { return fault_.get(); }
  [[nodiscard]] const fault::FaultPlane* fault_plane() const noexcept { return fault_.get(); }
  /// MSS crashes begun so far. Counted where kMssCrash is emitted, so
  /// the count holds even after the event ring evicted those events.
  [[nodiscard]] std::uint64_t mss_crashes() const noexcept { return mss_crashes_; }
  /// MSS recoveries reached so far (counted where kMssRecover is emitted).
  [[nodiscard]] std::uint64_t mss_recoveries() const noexcept { return mss_recoveries_; }

  /// Fire on_start on every registered agent (MSS agents first, then MH
  /// agents, each in id order). Call after registering all agents and
  /// before running the scheduler.
  void start();

  /// Convenience: run the scheduler until it drains (with a safety event
  /// limit) and return events fired. A sharded run may be invoked only
  /// once per Network (its measurement state folds into shard 0 on
  /// completion).
  std::uint64_t run(std::uint64_t event_limit = 50'000'000);

  // --- ground truth (setup & verification; does not charge costs) ---------

  /// Current MSS of a connected MH; kInvalidMss otherwise.
  [[nodiscard]] MssId current_mss_of(MhId id) const;
  /// True while `id` is voluntarily disconnected.
  [[nodiscard]] bool is_disconnected(MhId id) const;
  /// True while `id` is between leave() and its next join.
  [[nodiscard]] bool is_in_transit(MhId id) const;

  // --- messaging (used by agents via the helpers in agent.hpp) ------------

  /// Wired MSS -> MSS send. FIFO per ordered pair; charges the wired
  /// cost terms unless control or self-addressed. With batching enabled
  /// (NetConfig::formation) the message parks in a formation queue and
  /// rides a coalesced packet; in passthrough it goes straight to the
  /// wire as its own packet. In the sharded engine cross-MSS sends ride
  /// the conservative-window mailbox.
  void send_wired(MssId from, MssId to, Envelope env);

  /// The calling shard's formation (batching) layer; nullptr in
  /// passthrough mode.
  [[nodiscard]] FormationLayer* formation() noexcept { return sl().formation.get(); }
  [[nodiscard]] const FormationLayer* formation() const noexcept {
    return sl().formation.get();
  }

  /// Failure callback for a wireless downlink: receives the undelivered
  /// envelope. Taking the envelope as an argument (instead of capturing
  /// it) keeps happy-path callbacks small enough for std::function's
  /// inline buffer — no heap traffic per send.
  using FailCallback = std::function<void(const Envelope&)>;

  /// Wireless downlink to a MH that is local to `from` right now. If the
  /// MH leaves before the frame lands, the sending agent's
  /// on_local_send_failed is NOT invoked (there is none); instead the
  /// optional `on_fail` runs with the undelivered envelope. Charges
  /// c_wireless + rx energy only on successful delivery.
  void send_wireless_downlink(MssId from, Envelope env, MhId to, FailCallback on_fail = {});

  /// Wireless uplink from a connected MH to its current MSS. Always
  /// delivered (the MSS does not move). Charges c_wireless + tx energy
  /// unless control.
  void send_wireless_uplink(MhId from, Envelope env);

  /// Locate a MH (oracle or broadcast per config) and deliver `env` over
  /// the final wireless hop, retrying across moves. See SendPolicy for
  /// disconnect behaviour. `env.dst` must be the MH. One shard at most.
  void send_to_mh(MssId from, Envelope env, MhId to, SendPolicy policy);

  /// MH-to-MH relay entry point (wireless uplink leg is charged by the
  /// caller path); invoked by Mss when a kRelay envelope arrives.
  void relay_to_mh(MssId via, const msg::Relay& relay);

  /// Resolve a MH's current MSS. The callback receives (mss,
  /// disconnected): `mss` is the current cell, or the cell holding the
  /// "disconnected" flag when `disconnected` is true. Searches for
  /// in-transit MHs resolve when the MH joins its next cell.
  using LocateCallback = std::function<void(MssId, bool disconnected)>;
  /// Start a location search from `from` for `target` (mode chosen by
  /// NetConfig::search_mode); `cb` fires when the search resolves.
  /// One shard at most.
  void locate(MssId from, MhId target, LocateCallback cb);

  /// MH -> MSS join/reconnect transmission in the *new* cell (the MH is
  /// not yet local there, so this cannot ride the normal uplink).
  /// One shard at most.
  void submit_join(MhId from, MssId target, msg::Join join);

  /// Broadcast-search protocol handlers (invoked by Mss::dispatch).
  void handle_search_query(MssId at, const msg::SearchQuery& query);
  /// Reply leg of the broadcast search; resolves the pending locate().
  void handle_search_reply(const msg::SearchReply& reply);

  // --- FIFO channel identity ----------------------------------------------

  /// Ordered channels get their own virtual FIFO clock; the event
  /// stream names a channel by (channel type, endpoint a, endpoint b).
  enum class ChannelType : std::uint8_t { kWired, kDownlink, kUplink };

  /// Endpoint indices must fit in 30 bits so the packed channel key's
  /// fields cannot alias; the constructor rejects larger id spaces.
  static constexpr std::uint32_t kMaxEndpointIndex = (1u << 30) - 1;

  /// Collision-free packed key: 4-bit type | 30-bit a | 30-bit b, each
  /// field explicitly masked to its own bit range.
  [[nodiscard]] static constexpr std::uint64_t channel_key(ChannelType type, std::uint32_t a,
                                                           std::uint32_t b) noexcept {
    static_assert(static_cast<std::uint8_t>(ChannelType::kUplink) < 16,
                  "ChannelType must fit the 4-bit type field");
    return (static_cast<std::uint64_t>(type) << 60) |
           (static_cast<std::uint64_t>(a & kMaxEndpointIndex) << 30) |
           static_cast<std::uint64_t>(b & kMaxEndpointIndex);
  }

 private:
  friend class Mss;
  friend class MobileHost;

  struct PendingLocate {
    MssId from;
    LocateCallback cb;
  };
  struct BroadcastSearch {
    MssId origin;
    MhId target;
    LocateCallback cb;
    std::uint32_t replies = 0;
    std::uint64_t round = 0;
    bool found = false;
    bool saw_disconnected = false;
    MssId disconnected_at = kInvalidMss;
  };

  /// Everything one shard owns and touches from its own thread during a
  /// run: event queue, measurement state (ledger / metrics / stats /
  /// event ring), and the formation queues of the MSSs it hosts. Channel
  /// state is not here: wired FIFO clocks sit in each sending Mss's row,
  /// wireless channels in each MH's link records, and the shard owning
  /// the sender (or the cell) is their only writer. The legacy engine is
  /// exactly one slice driven by the calling thread; the sharded engine
  /// is min(shards, num_mss) slices driven by sim::ShardGroup.
  /// Per-slice ownership is what makes emit and every cost charge
  /// allocation- and contention-free under parallel execution.
  struct ShardSlice {
    sim::Scheduler sched;
    cost::CostLedger ledger;
    obs::Registry metrics;  ///< must precede every member referencing it
    NetStats stats{metrics};
    obs::EventStream events;
    // Always-on substrate histograms (virtual-time units; zero-cost when
    // nothing records). Queue delay is the FIFO clamp each channel kind
    // added on top of the sampled latency.
    obs::Histogram& queue_delay_wired =
        metrics.histogram("net.queue_delay.wired", obs::latency_buckets());
    obs::Histogram& queue_delay_downlink =
        metrics.histogram("net.queue_delay.downlink", obs::latency_buckets());
    obs::Histogram& queue_delay_uplink =
        metrics.histogram("net.queue_delay.uplink", obs::latency_buckets());
    obs::Histogram& search_rounds =
        metrics.histogram("net.search_rounds", obs::count_buckets());
    obs::Histogram& delivery_retry_depth =
        metrics.histogram("net.delivery_retry_depth", obs::count_buckets());
    // Formation-layer instrumentation (all zero in passthrough mode).
    obs::Histogram& packet_msgs =
        metrics.histogram("net.formation.packet_msgs", obs::count_buckets());
    obs::Counter& formation_size_flushes = metrics.counter("net.formation.size_flushes");
    obs::Counter& formation_deadline_flushes =
        metrics.counter("net.formation.deadline_flushes");
    obs::Counter& formation_barrier_flushes =
        metrics.counter("net.formation.barrier_flushes");
    /// Wired batching queues of this slice's MSSs; null in passthrough
    /// mode so the unbatched wire path never even consults it.
    std::unique_ptr<FormationLayer> formation;
  };

  /// The calling thread's slice. Worker threads of a sharded run bind
  /// their shard index here (via ShardGroup's on_worker hook); every
  /// other thread — including the legacy engine's only thread — reads
  /// slice 0.
  [[nodiscard]] ShardSlice& sl() noexcept { return *slices_[tls_shard_]; }
  [[nodiscard]] const ShardSlice& sl() const noexcept { return *slices_[tls_shard_]; }

  /// Throw std::logic_error when the run has more than one shard: `what`
  /// names the entry point that needs a single one.
  void require_legacy(const char* what) const;

  /// The RNG stream for work owned by `lane`: the lane's own stream in
  /// the sharded engine, the global stream in the legacy engine — which
  /// is what keeps every legacy draw sequence byte-identical.
  [[nodiscard]] sim::Rng& run_rng(std::uint32_t lane) noexcept {
    return sharded() ? lane_rngs_[lane] : rng_;
  }

  /// Post a cross-lane action into the conservative-window mailbox
  /// (sharded engine only). `at` must be >= the current window horizon,
  /// which every wired arrival satisfies (latency >= lookahead()).
  template <typename Fn>
  void post_mail(std::uint32_t src_lane, std::uint32_t dst_lane, sim::SimTime at, Fn&& fn) {
    group_->post(shard_of(src_lane),
                 sim::ShardGroup::Mail{at, shard_of(dst_lane), src_lane,
                                       ++lane_mail_seq_[src_lane],
                                       sim::SmallFn(std::forward<Fn>(fn))});
  }

  std::uint64_t run_sharded(std::uint64_t event_limit);

  /// FIFO clamping: arrivals on one ordered channel never decrease.
  /// `clock` is that channel's FIFO clock (wired_clock() or a wireless
  /// ChannelState::fifo_clock); `type` picks the queue-delay histogram.
  [[nodiscard]] sim::SimTime fifo_arrival(sim::SimTime& clock, ChannelType type,
                                          sim::Duration latency);
  /// The FIFO clock of the wired channel from -> to, in from's row.
  [[nodiscard]] sim::SimTime& wired_clock(MssId from, MssId to);

  /// One latency draw from the stream owned by `lane` (the sender's
  /// lane, so the draw sequence is a per-lane pure function).
  [[nodiscard]] sim::Duration sample(std::uint32_t lane, sim::Duration lo, sim::Duration hi);

  /// send_to_mh with the retry depth threaded through, so the retry
  /// histogram sees how deep each delivery's chase went.
  void send_to_mh_attempt(MssId from, Envelope env, MhId to, SendPolicy policy,
                          std::uint32_t attempt);

  void deliver_wired(MssId to, Envelope env);

  /// A wired send as its recv names it (see wired_cause()).
  struct WiredCause {
    obs::EventId id = 0;
    std::uint64_t clock = 0;
  };

  // --- formation (wired batching) -------------------------------------------

  /// Batched wire path: emit the per-message kSend, charge the
  /// per-message cost share, and park the message on the formation
  /// queue for (from,to).
  void enqueue_wired(MssId from, MssId to, Envelope env);
  /// Transmit callback handed to the FormationLayer: charge the packet,
  /// sample one latency for the whole packet and schedule its arrival
  /// (via the window mailbox when sharded).
  void transmit_packet(FormationLayer::Packet packet);
  /// Packet arrival: emit kPacketFlush, then deliver the coalesced
  /// messages in send order, each caused by its item's send.
  void arrive_packet(FormationLayer::Packet packet, WiredCause packet_cause,
                     std::uint64_t channel);

  // --- wired hop --------------------------------------------------------------
  //
  // A crashed (or partitioned-off) destination keeps wired messages
  // waiting at its interface until the outage window closes. The crash
  // and partition schedule is static, so the hold is decided when the
  // message is sent: the natural arrival instant is pushed to the
  // release before the FIFO clamp, so the channel's FIFO clock moves with
  // it. A later send on the channel can then never be scheduled before an
  // earlier held one, and messages released at the same instant fire in
  // send order.

  /// Earliest instant >= `at` at which `to` can take a wired message
  /// from `from`: each outage window covering it (chained windows
  /// included) pushes it to the window's end and counts one deferral.
  [[nodiscard]] sim::SimTime wired_hold(MssId from, MssId to, sim::SimTime at);
  /// Arrival instant of the next transmission on the wired channel
  /// from -> to: one latency draw on from's lane plus any fault spike,
  /// held past outages, then FIFO-clamped behind the channel's clock.
  [[nodiscard]] sim::SimTime wired_arrival(MssId from, MssId to);
  /// A send as its recv names it: on the sharded engine a cross-stream
  /// ref plus the sender's Lamport clock (obs/merge.hpp), else {id, 0}.
  [[nodiscard]] WiredCause wired_cause(obs::EventId send_id) const;
  /// Land a wired hop at `arrival`; when sharded, always by mail (even
  /// within one shard), so the receiver's order depends on the mail set.
  void carry_wired(MssId from, MssId to, sim::SimTime arrival, sim::SmallFn land);
  /// Wired arrival: emit the recv and dispatch at `to`.
  void arrive_wired(MssId from, MssId to, WiredCause cause, std::uint64_t channel,
                    Envelope env);

  // --- reliable wireless hop (ack/retransmit + dedup) -----------------------
  //
  // Each logical frame gets a per-channel sequence number (wseq) at its
  // first transmission; every retransmission attempt emits a fresh kSend
  // so the physical channel history stays FIFO-checkable, while the
  // receiver suppresses duplicate wseqs. Loss is decided at send time by
  // the fault plane (implicit ack: the sender knows ground truth), so a
  // dropped attempt schedules the next one after a capped exponential
  // backoff. Downlinks, uplinks and joins all ride wireless_attempt().

  /// One reliable wireless frame and when its retransmission stops
  /// (both defined in network.cpp).
  struct WirelessFrame;
  enum class RetryGuard : std::uint8_t;

  /// The channel state a frame travels on: the MH's downlink from the
  /// cell, or its uplink record for the cell.
  [[nodiscard]] ChannelState& wireless_channel(const WirelessFrame& frame);
  /// False once the frame's retry guard has tripped.
  [[nodiscard]] bool retry_wanted(const WirelessFrame& frame) const;
  /// Transmit one attempt of `frame`: check the retry guard, assign the
  /// wseq on attempt 0, emit the send, then either schedule the next
  /// attempt (lost) or schedule the landing plus any link-layer copy.
  /// `on_fail` (downlinks only) runs with the envelope when the MH has
  /// left the cell; the copy never carries it.
  void wireless_attempt(WirelessFrame frame, FailCallback on_fail);
  /// A frame reaches its receiver: a downlink whose MH has left is lost
  /// (on_fail runs), a duplicate wseq is suppressed, anything else emits
  /// the recv and is dispatched.
  void land_wireless(const WirelessFrame& frame, obs::EventId send_id,
                     const FailCallback& on_fail);

  /// Consult the fault plane for this wireless frame; on loss, `why` is
  /// set to "crash" (dead cell) or "loss" (random drop).
  [[nodiscard]] bool wireless_frame_lost(std::uint32_t cell, const char** why);
  [[nodiscard]] sim::Duration retransmit_backoff(std::uint32_t attempt) const;

  void begin_crash(const fault::MssCrash& crash);

  void oracle_locate(MssId from, MhId target, LocateCallback cb);
  void broadcast_locate(MssId from, MhId target, LocateCallback cb);
  void broadcast_round(std::uint64_t token);
  /// One-round search resolution after `delay`, from the target's state
  /// at that instant: a connected MH resolves to its cell, a
  /// disconnected one to the cell holding its flag, and an in-transit
  /// one parks until it joins its next cell.
  void resolve_locate_after(sim::Duration delay, MssId from, MhId target, LocateCallback cb);
  /// Failure callback of a located delivery's final downlink: count the
  /// miss at retry depth `depth`, then after a backoff re-launch the
  /// delivery from the cell that noticed it as send_to_mh attempt
  /// `next_attempt`, under `cause`.
  [[nodiscard]] FailCallback chase_on_miss(MssId at, MhId to, SendPolicy policy,
                                           std::uint32_t depth, std::uint32_t next_attempt,
                                           obs::EventId cause);

  /// Join bookkeeping shared by Mss::handle_join: flush searches pending
  /// on this MH and deliver messages parked while it was disconnected.
  void on_mh_rejoined(MhId mh, MssId at);

  NetConfig cfg_;
  sim::Rng rng_;
  /// One slice for the legacy engine, min(shards, num_mss) for the
  /// sharded one. unique_ptr so slice addresses (and the Counter&/
  /// Histogram& members inside) never move.
  std::vector<std::unique_ptr<ShardSlice>> slices_;
  /// The calling thread's shard index (0 everywhere except inside a
  /// sharded run's worker threads). static: a thread belongs to at most
  /// one running Network at a time.
  static thread_local std::uint32_t tls_shard_;
  /// Conservative-window coordinator; created by run_sharded().
  std::unique_ptr<sim::ShardGroup> group_;
  /// Sharded engine: one RNG stream per lane, seeded as a pure function
  /// of (cfg.seed, lane) so draw sequences are grouping-independent.
  std::vector<sim::Rng> lane_rngs_;
  /// Sharded engine: per-lane mailbox sequence for the canonical
  /// injection order (each lane is written by exactly one thread).
  std::vector<std::uint64_t> lane_mail_seq_;
  /// Lane of each MH: its (initial) cell.
  std::vector<std::uint32_t> mh_lane_;

  std::vector<std::unique_ptr<Mss>> mss_;
  std::vector<std::unique_ptr<MobileHost>> mh_;

  std::map<MhId, std::vector<PendingLocate>> pending_locates_;
  /// Messages awaiting a disconnected MH's reconnect (eventual-delivery
  /// policy). Keyed by MH; delivered via its new MSS on rejoin.
  struct Parked {
    Envelope env;
  };
  std::map<MhId, std::vector<Parked>> parked_;
  std::map<std::uint64_t, BroadcastSearch> broadcast_;
  std::uint64_t next_search_token_ = 1;
  bool started_ = false;
  /// Crash windows begun and ended so far (fault plane schedule).
  std::uint64_t mss_crashes_ = 0;
  std::uint64_t mss_recoveries_ = 0;

  std::unique_ptr<fault::FaultPlane> fault_;
};

}  // namespace mobidist::net
