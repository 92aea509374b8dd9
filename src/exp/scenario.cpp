#include "exp/scenario.hpp"

#include <cstdint>
#include <stdexcept>

#include "exp/json.hpp"

namespace mobidist::exp {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error("scenario: " + what); }

double require_number(std::string_view key, const json::Value& value) {
  if (!value.is_number()) fail("field '" + std::string(key) + "' must be a number");
  return value.as_number();
}

std::uint64_t require_u64(std::string_view key, const json::Value& value) {
  require_number(key, value);
  const auto n = value.as_u64();
  if (!n) fail("field '" + std::string(key) + "' must be a non-negative integer below 2^64");
  return *n;
}

std::uint32_t require_u32(std::string_view key, const json::Value& value) {
  const std::uint64_t n = require_u64(key, value);
  if (n > UINT32_MAX) fail("field '" + std::string(key) + "' is out of range (max 4294967295)");
  return static_cast<std::uint32_t>(n);
}

bool require_bool(std::string_view key, const json::Value& value) {
  if (value.is_bool()) return value.as_bool();
  // Sweep axes express everything as numbers or strings; accept 0/1.
  if (value.is_number() && (value.as_number() == 0.0 || value.as_number() == 1.0)) {
    return value.as_number() != 0.0;
  }
  fail("field '" + std::string(key) + "' must be a bool (or 0/1)");
}

std::string require_string(std::string_view key, const json::Value& value) {
  if (!value.is_string()) fail("field '" + std::string(key) + "' must be a string");
  return value.as_string();
}

net::SearchMode parse_search(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (text == "oracle") return net::SearchMode::kOracle;
  if (text == "broadcast") return net::SearchMode::kBroadcast;
  fail("unknown search mode '" + text + "' (oracle|broadcast)");
}

net::InitialPlacement parse_placement(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (text == "round_robin") return net::InitialPlacement::kRoundRobin;
  if (text == "all_in_cell0") return net::InitialPlacement::kAllInCell0;
  fail("unknown placement '" + text + "' (round_robin|all_in_cell0)");
}

/// Pattern names come from mobility::kMovePatternNames — one source of
/// truth shared with the model factory and the generator CLI, so a new
/// model is automatically parseable and enumerated in this error.
mobility::MovePattern parse_pattern(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (const auto pattern = mobility::pattern_from_name(text)) return *pattern;
  std::string valid;
  for (const auto name : mobility::kMovePatternNames) {
    if (!valid.empty()) valid += '|';
    valid += name;
  }
  fail("unknown mobility pattern '" + text + "' (" + valid + ")");
}

fault::MssCrash crash_from_json(const json::Value& item) {
  if (!item.is_object()) fail("fault.crashes entries must be objects");
  fault::MssCrash crash;
  for (const auto& [key, value] : item.as_object()) {
    if (key == "mss") crash.mss = require_u32("fault.crashes.mss", value);
    else if (key == "at") crash.at = require_u64("fault.crashes.at", value);
    else if (key == "down_for") crash.down_for = require_u64("fault.crashes.down_for", value);
    else fail("unknown field 'fault.crashes." + key + "'");
  }
  return crash;
}

fault::CellPartition partition_from_json(const json::Value& item) {
  if (!item.is_object()) fail("fault.partitions entries must be objects");
  fault::CellPartition part;
  for (const auto& [key, value] : item.as_object()) {
    if (key == "a") part.a = require_u32("fault.partitions.a", value);
    else if (key == "b") part.b = require_u32("fault.partitions.b", value);
    else if (key == "from") part.from = require_u64("fault.partitions.from", value);
    else if (key == "until") part.until = require_u64("fault.partitions.until", value);
    else fail("unknown field 'fault.partitions." + key + "'");
  }
  return part;
}

}  // namespace

double ScenarioSpec::param(std::string_view key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::uint64_t ScenarioSpec::param_u64(std::string_view key, std::uint64_t fallback) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const auto n = json::Value(it->second).as_u64();
  if (!n) fail("param '" + std::string(key) + "' must be a non-negative integer below 2^64");
  return *n;
}

void apply_override(ScenarioSpec& spec, std::string_view key, const json::Value& value) {
  if (key == "name") { spec.name = require_string(key, value); return; }
  if (key == "workload") { spec.workload = require_string(key, value); return; }
  if (key == "variant") { spec.variant = require_string(key, value); return; }

  if (key == "topology.num_mss") { spec.net.num_mss = require_u32(key, value); return; }
  if (key == "topology.num_mh") { spec.net.num_mh = require_u32(key, value); return; }
  if (key == "topology.seed") { spec.net.seed = require_u64(key, value); return; }
  if (key == "topology.search") { spec.net.search = parse_search(key, value); return; }
  if (key == "topology.placement") { spec.net.placement = parse_placement(key, value); return; }
  if (key == "topology.shards") { spec.net.shards = require_u32(key, value); return; }

  auto& lat = spec.net.latency;
  if (key == "latency.wired_min") { lat.wired_min = require_u64(key, value); return; }
  if (key == "latency.wired_max") { lat.wired_max = require_u64(key, value); return; }
  if (key == "latency.wireless_min") { lat.wireless_min = require_u64(key, value); return; }
  if (key == "latency.wireless_max") { lat.wireless_max = require_u64(key, value); return; }
  if (key == "latency.search_min") { lat.search_min = require_u64(key, value); return; }
  if (key == "latency.search_max") { lat.search_max = require_u64(key, value); return; }
  if (key == "latency.broadcast_retry") { lat.broadcast_retry = require_u64(key, value); return; }
  /// "latency.wired" and friends set min == max in one stroke — the
  /// common deterministic-latency case sweeps read better with one axis.
  if (key == "latency.wired") {
    lat.wired_min = lat.wired_max = require_u64(key, value);
    return;
  }
  if (key == "latency.wireless") {
    lat.wireless_min = lat.wireless_max = require_u64(key, value);
    return;
  }
  if (key == "latency.search") {
    lat.search_min = lat.search_max = require_u64(key, value);
    return;
  }

  if (key == "cost.c_fixed") { spec.cost.c_fixed = require_number(key, value); return; }
  if (key == "cost.c_wired_msg") { spec.cost.c_wired_msg = require_number(key, value); return; }
  if (key == "cost.c_wireless") { spec.cost.c_wireless = require_number(key, value); return; }
  if (key == "cost.c_search") { spec.cost.c_search = require_number(key, value); return; }
  if (key == "cost.energy_tx") { spec.cost.energy_tx = require_number(key, value); return; }
  if (key == "cost.energy_rx") { spec.cost.energy_rx = require_number(key, value); return; }

  auto& f = spec.fault;
  if (key == "fault.wireless_loss") { f.wireless_loss = require_number(key, value); return; }
  if (key == "fault.wireless_dup") { f.wireless_dup = require_number(key, value); return; }
  if (key == "fault.wireless_reorder") { f.wireless_reorder = require_number(key, value); return; }
  if (key == "fault.wireless_spike_max") { f.wireless_spike_max = require_u64(key, value); return; }
  if (key == "fault.wired_spike") { f.wired_spike = require_number(key, value); return; }
  if (key == "fault.wired_spike_max") { f.wired_spike_max = require_u64(key, value); return; }
  if (key == "fault.evacuate_on_crash") { f.evacuate_on_crash = require_bool(key, value); return; }
  if (key == "fault.drop_first_wireless") { f.drop_first_wireless = require_u32(key, value); return; }
  if (key == "fault.dup_first_wireless") { f.dup_first_wireless = require_u32(key, value); return; }
  if (key == "fault.rto_base") { f.rto_base = require_u64(key, value); return; }
  if (key == "fault.rto_cap") { f.rto_cap = require_u64(key, value); return; }

  auto& fm = spec.net.formation;
  if (key == "formation.max_packet_msgs") { fm.max_packet_msgs = require_u32(key, value); return; }
  if (key == "formation.max_packet_bytes") { fm.max_packet_bytes = require_u32(key, value); return; }
  if (key == "formation.flush_deadline") { fm.flush_deadline = require_u64(key, value); return; }

  auto& m = spec.mob;
  if (key == "mobility.enabled") { spec.mobility = require_bool(key, value); return; }
  if (key == "mobility.pattern") { m.pattern = parse_pattern(key, value); return; }
  if (key == "mobility.mean_pause") { m.mean_pause = require_number(key, value); return; }
  if (key == "mobility.mean_transit") { m.mean_transit = require_number(key, value); return; }
  if (key == "mobility.zipf_s") { m.zipf_s = require_number(key, value); return; }
  if (key == "mobility.max_moves_per_host") { m.max_moves_per_host = require_u64(key, value); return; }
  if (key == "mobility.stop_at") { m.stop_at = require_u64(key, value); return; }
  if (key == "mobility.disconnect_prob") { m.disconnect_prob = require_number(key, value); return; }
  if (key == "mobility.mean_disconnect") { m.mean_disconnect = require_number(key, value); return; }
  if (key == "mobility.regions") { m.regions = require_u32(key, value); return; }
  if (key == "mobility.grid_width") { m.grid_width = require_u32(key, value); return; }
  if (key == "mobility.phase_period") { m.phase_period = require_u64(key, value); return; }
  if (key == "mobility.day_fraction") { m.day_fraction = require_number(key, value); return; }
  if (key == "mobility.crowd_fraction") { m.crowd_fraction = require_number(key, value); return; }
  if (key == "mobility.crowd_period") { m.crowd_period = require_u64(key, value); return; }
  if (key == "mobility.crowd_dwell") { m.crowd_dwell = require_u64(key, value); return; }

  if (key.substr(0, 7) == "params.") {
    const auto name = key.substr(7);
    if (name.empty()) fail("empty param name");
    spec.params.insert_or_assign(std::string(name), require_number(key, value));
    return;
  }

  fail("unknown field '" + std::string(key) + "'");
}

ScenarioSpec scenario_from_json(const json::Value& doc) {
  if (!doc.is_object()) fail("document must be a JSON object");
  ScenarioSpec spec;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "sweep") continue;  // consumed by sweep.hpp
    if (!value.is_object()) {
      apply_override(spec, key, value);
      continue;
    }
    // A section: each member is one dotted override, so apply_override's
    // unknown-key check covers section and field names alike.
    for (const auto& [field, item] : value.as_object()) {
      const std::string path = key + "." + field;
      if (path != "fault.crashes" && path != "fault.partitions") {
        apply_override(spec, path, item);
        continue;
      }
      if (!item.is_array()) fail(path + " must be an array");
      for (const auto& entry : item.as_array()) {
        if (path == "fault.crashes") spec.fault.crashes.push_back(crash_from_json(entry));
        else spec.fault.partitions.push_back(partition_from_json(entry));
      }
    }
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text) {
  const auto doc = json::parse(text);
  if (!doc) fail("malformed JSON");
  return scenario_from_json(*doc);
}

}  // namespace mobidist::exp
