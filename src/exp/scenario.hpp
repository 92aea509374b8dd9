#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "cost/cost_model.hpp"
#include "exp/json.hpp"
#include "fault/fault_plane.hpp"
#include "mobility/mobility_model.hpp"
#include "net/network.hpp"

namespace mobidist::exp {

/// Declarative description of one simulated run: everything the
/// experiment runner needs to build a Network, attach an algorithm
/// workload, drive it, and meter the result. A spec is a pure value —
/// constructible in code, loadable from a small JSON file, and cheap to
/// copy per grid cell. Its schema is written down once, in
/// apply_override: there is no spec-to-JSON renderer, so a scenario file
/// holds the overrides it was written with and nothing else.
struct ScenarioSpec {
  std::string name = "scenario";  ///< artifact / display name
  std::string workload = "mutex";  ///< registered workload kind (see runner.hpp)
  std::string variant = "l2";      ///< workload-specific algorithm variant

  net::NetConfig net;        ///< topology, latencies, search mode; seed is per-run
  cost::CostParams cost;     ///< constants the ledger is totalled under
  fault::FaultProfile fault; ///< installed only when non-trivial

  bool mobility = false;             ///< drive background mobility?
  mobility::MobilityConfig mob;      ///< its parameters when enabled

  /// Free-form numeric workload knobs ("requests", "messages", ...).
  /// Workload builders read them with param(); unknown keys are an error
  /// at run time so typos cannot silently become defaults.
  std::map<std::string, double, std::less<>> params;

  /// Value of workload knob `key`, or `fallback` when the spec omits it.
  [[nodiscard]] double param(std::string_view key, double fallback) const;
  /// Integer view of param(): throws unless the value is a non-negative
  /// integer below 2^64.
  [[nodiscard]] std::uint64_t param_u64(std::string_view key, std::uint64_t fallback) const;

  /// True when the fault profile would perturb the run (mirrors
  /// FaultProfile::trivial(), which the runner uses to decide whether to
  /// install a plane at all).
  [[nodiscard]] bool has_faults() const noexcept { return !fault.trivial(); }

  /// Field-wise equality over every member, so a comparison cannot skip
  /// a field the way a hand-written renderer can.
  bool operator==(const ScenarioSpec&) const = default;
};

/// Set one field by dotted path ("topology.num_mh", "latency.wired_min",
/// "cost.c_search", "fault.wireless_loss", "mobility.mean_pause",
/// "params.requests", "variant", ...). Throws std::runtime_error on an
/// unknown path, a value of the wrong type, or an integer outside its
/// field's range. This is the single statement of the scenario schema:
/// scenario-file parsing, sweep axes and mobidist_gen's writer all go
/// through it.
void apply_override(ScenarioSpec& spec, std::string_view key, const json::Value& value);

/// Build a spec from a parsed scenario document. Each scalar top-level
/// member and each member of an object-valued one ("topology": {...})
/// goes to apply_override as a dotted key, so unknown section and field
/// names throw alike; the "sweep" member is ignored here (see
/// sweep.hpp). The structured fault members ("fault.crashes",
/// "fault.partitions") are parsed from arrays of objects.
[[nodiscard]] ScenarioSpec scenario_from_json(const json::Value& doc);

/// Convenience: parse `text` and build the spec; throws on syntax errors.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);

}  // namespace mobidist::exp
