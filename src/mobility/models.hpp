#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "net/ids.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mobidist::mobility {

/// Built-in target-cell distributions. The first three are the original
/// memoryless patterns; the last three carry per-host state (waypoints,
/// home/work cells, crowd membership) derived deterministically from the
/// network seed at construction.
enum class MovePattern : std::uint8_t {
  kUniform,     ///< any other cell, uniformly
  kNeighbor,    ///< +-1 on a ring of cells (local mobility)
  kHotspot,     ///< Zipf-weighted cells (crowded downtown cell 0)
  kWaypoint,    ///< random waypoint over a W x H cell lattice, one hop per move
  kCommuter,    ///< day-night oscillation between a home and a Zipf-skewed work cell
  kFlashCrowd,  ///< periodic event windows pull a random cohort into one cell
};

/// Scenario-facing names, indexed by MovePattern value. The single
/// source of truth shared by the scenario parser, its error messages,
/// and the generator CLI (the same trick PR 9 played for mutex
/// variants).
inline constexpr std::string_view kMovePatternNames[] = {
    "uniform", "neighbor", "hotspot", "waypoint", "commuter", "flashcrowd"};

/// Name of a pattern (inverse of pattern_from_name).
[[nodiscard]] constexpr std::string_view pattern_name(MovePattern pattern) noexcept {
  return kMovePatternNames[static_cast<std::uint8_t>(pattern)];
}

/// Parse a scenario-facing pattern name; nullopt when unknown.
[[nodiscard]] std::optional<MovePattern> pattern_from_name(std::string_view name) noexcept;

/// Parameters of the background mobility process. Pauses and transits
/// are exponentially distributed; a MH alternates pause -> move ->
/// pause ... until its move budget or the stop time runs out.
struct MobilityConfig {
  MovePattern pattern = MovePattern::kUniform;
  double mean_pause = 200.0;    ///< ticks between arriving and next departure
  double mean_transit = 10.0;   ///< ticks spent between cells
  double zipf_s = 1.0;          ///< skew for kHotspot / kCommuter work cells
  std::uint64_t max_moves_per_host = UINT64_MAX;
  sim::SimTime stop_at = sim::kTimeNever;  ///< no departures after this instant
  /// Probability that a scheduled departure becomes a disconnect
  /// instead; the host reconnects after mean_disconnect ticks.
  double disconnect_prob = 0.0;
  double mean_disconnect = 500.0;

  /// Contiguous cell blocks the per-region significant-move fraction f
  /// is reported over (clamped to [1, num_mss] by the driver).
  std::uint32_t regions = 4;
  /// kWaypoint lattice width; 0 = auto (the divisor of num_mss nearest
  /// sqrt). A non-zero width must divide num_mss.
  std::uint32_t grid_width = 0;
  /// kCommuter day-night cycle length in ticks (> 0).
  std::uint64_t phase_period = 2000;
  /// kCommuter fraction of the cycle spent in the day (at-work) phase.
  double day_fraction = 0.5;
  /// kFlashCrowd fraction of hosts pulled into each event cohort.
  double crowd_fraction = 0.25;
  /// kFlashCrowd gap between consecutive event windows in ticks (> 0).
  std::uint64_t crowd_period = 1500;
  /// kFlashCrowd length of each event window in ticks (<= crowd_period).
  std::uint64_t crowd_dwell = 300;
  bool operator==(const MobilityConfig&) const = default;
};

/// Everything a model may consult when choosing the next cell: the
/// network RNG (the only source of randomness, so same-seed runs stay
/// byte-identical), the current instant (phase cycles), and the moving
/// host's identity and cell.
struct MoveContext {
  sim::Rng& rng;        ///< shared simulation RNG stream
  sim::SimTime now;     ///< departure instant
  net::MhId host;       ///< who is moving
  net::MssId current;   ///< where it is moving from
};

/// A deterministic target-cell distribution. pick_target must return a
/// cell different from ctx.current; stateful models key any per-host
/// state on ctx.host.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Choose the destination cell for one move.
  [[nodiscard]] virtual net::MssId pick_target(const MoveContext& ctx) = 0;
};

/// Build the model for `cfg.pattern`. `seed` feeds the seed-derived
/// per-host state (homes, work cells, crowd cohorts) through a private
/// splitmix64 stream, so construction never advances the network RNG.
/// Throws std::invalid_argument on unsatisfiable parameters (a
/// grid_width that does not divide num_mss, a zero phase period).
[[nodiscard]] std::unique_ptr<MobilityModel> make_model(const MobilityConfig& cfg,
                                                        std::uint32_t num_mss,
                                                        std::uint32_t num_mh,
                                                        std::uint64_t seed);

/// Region of a cell: `regions` contiguous blocks of num_mss / regions
/// cells each (the tail block absorbs the remainder). The unit the
/// per-region significant-move fraction f is reported over.
[[nodiscard]] constexpr std::uint32_t region_of(std::uint32_t cell, std::uint32_t num_mss,
                                                std::uint32_t regions) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(cell) * regions / num_mss);
}

}  // namespace mobidist::mobility
