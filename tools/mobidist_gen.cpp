// mobidist_gen: deterministic scenario generator for the mobility model
// library. Writes a scenario file — topology, mobility model, region
// count, group workload and a sweep block — sized for 1e5-1e6 mobile
// hosts, directly consumable by mobidist_sweep.
//
//   mobidist_gen --model commuter --mh 100000 --out scenarios/gen.json
//       [--mss M] [--seed S] [--seeds K] [--regions R] [--name NAME]
//       [--group-size G] [--messages N] [--moves-per-host N]
//       [--sweep-models] [--no-sweep-variants] [--set key=value]...
//
// The file holds exactly the dotted overrides the generator applied —
// its own flags, then every --set — grouped into sections; defaults stay
// implicit. It is a pure function of the flags (no clocks, no git, no
// environment), so the same invocation always produces byte-identical
// files. Before writing, the tool parses its own output back and fails
// unless it yields the spec the overrides built and a non-empty grid.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "exp/exp.hpp"
#include "mobility/models.hpp"

namespace {

using namespace mobidist;

int usage(const char* argv0) {
  std::string models;
  for (const auto name : mobility::kMovePatternNames) {
    if (!models.empty()) models += '|';
    models += name;
  }
  std::fprintf(stderr,
               "usage: %s --model %s --mh N --out FILE\n"
               "          [--mss M] [--seed S] [--seeds K] [--regions R]\n"
               "          [--name NAME] [--group-size G] [--messages N]\n"
               "          [--moves-per-host N] [--sweep-models]\n"
               "          [--no-sweep-variants] [--set key=value]...\n",
               argv0, models.c_str());
  return 1;
}

/// JSON string literal for `text`.
std::string quoted(std::string_view text) { return '"' + core::json_escape(text) + '"'; }

/// The file being written: section ("" for top-level keys) -> field ->
/// JSON text of its value. Name-ordered, which is also the order
/// scenario_from_json applies a document's members in.
using Document = std::map<std::string, std::map<std::string, std::string>>;

/// Apply one dotted override to `spec` and record it in `doc`; a later
/// override of the same key replaces the earlier one in both.
void apply(exp::ScenarioSpec& spec, Document& doc, const std::string& key,
           const std::string& json) {
  exp::apply_override(spec, key, *exp::json::parse(json));
  const auto dot = key.find('.');
  if (dot == std::string::npos) doc[""][key] = json;
  else doc[key.substr(0, dot)][key.substr(dot + 1)] = json;
}

/// Apply a --set key=value override. The value is kept as written when
/// it parses as JSON (numbers, booleans, quoted strings), else it becomes
/// a string — so both --set mobility.phase_period=4000 and
/// --set variant=pure_search work.
void apply_set(exp::ScenarioSpec& spec, Document& doc, const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("--set needs key=value, got '" + text + "'");
  }
  const std::string value = text.substr(eq + 1);
  apply(spec, doc, text.substr(0, eq), exp::json::parse(value) ? value : quoted(value));
}

/// Render the document, top-level keys first, then the sweep block.
std::string render(const Document& doc, const std::string& sweep) {
  std::string body = "{\n";
  for (const auto& [section, fields] : doc) {
    if (section.empty()) {
      for (const auto& [field, json] : fields) body += "  " + quoted(field) + ": " + json + ",\n";
      continue;
    }
    body += "  " + quoted(section) + ": {";
    std::string sep;
    for (const auto& [field, json] : fields) {
      body += sep + quoted(field) + ": " + json;
      sep = ", ";
    }
    body += "},\n";
  }
  return body + "  \"sweep\": " + sweep + "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string model;
  std::string name;
  std::string out_path;
  std::uint64_t seed = 4242;
  std::uint32_t mh = 0;
  std::uint32_t mss = 0;
  std::uint32_t seeds = 3;
  std::uint32_t regions = 8;
  std::uint32_t group_size = 64;
  std::uint64_t messages = 24;
  std::uint64_t moves_per_host = 2;
  bool sweep_models = false;
  bool sweep_variants = true;
  std::vector<std::string> sets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    // A numeric flag's value, parsed strictly (core::parse_number); any
    // other text exits 1 before anything is written.
    const auto number = [&]<class T>(T& out) {
      const char* text = next();
      if (const auto value = core::parse_number<T>(text)) {
        out = *value;
        return;
      }
      std::fprintf(stderr, "%s: '%s' is not a valid value\n", arg.c_str(), text);
      std::exit(1);
    };
    if (arg == "--model") model = next();
    else if (arg == "--name") name = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--seed") number(seed);
    else if (arg == "--mh") number(mh);
    else if (arg == "--mss") number(mss);
    else if (arg == "--seeds") number(seeds);
    else if (arg == "--regions") number(regions);
    else if (arg == "--group-size") number(group_size);
    else if (arg == "--messages") number(messages);
    else if (arg == "--moves-per-host") number(moves_per_host);
    else if (arg == "--sweep-models") sweep_models = true;
    else if (arg == "--no-sweep-variants") sweep_variants = false;
    else if (arg == "--set") sets.emplace_back(next());
    else if (arg == "--help" || arg == "-h") return usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (model.empty() || mh == 0 || out_path.empty()) return usage(argv[0]);
  if (!mobility::pattern_from_name(model)) {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    return usage(argv[0]);
  }

  // Backbone sized sub-linearly in the host count unless pinned: one MSS
  // per ~1.5k hosts, clamped to [16, 512] — a million MHs get a 512-cell
  // wired mesh, a 1e5 run 64 cells.
  if (mss == 0) {
    mss = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(512, std::max<std::uint64_t>(16, mh / 1500)));
  }
  // Event budget control: every host makes moves_per_host moves, with
  // pauses long enough that the move stream and the message schedule
  // overlap instead of front-loading.
  const std::pair<const char*, std::string> flag_overrides[] = {
      {"name", quoted(name.empty() ? "gen_" + model + "_" + std::to_string(mh) + "mh" : name)},
      {"workload", quoted("group_mobility")},
      {"variant", quoted("location_view")},
      {"topology.num_mss", std::to_string(mss)},
      {"topology.num_mh", std::to_string(mh)},
      {"topology.seed", std::to_string(seed)},
      {"mobility.enabled", "true"},
      {"mobility.pattern", quoted(model)},
      {"mobility.regions", std::to_string(regions)},
      {"mobility.max_moves_per_host", std::to_string(moves_per_host)},
      {"mobility.mean_pause", "150"},
      {"mobility.mean_transit", "8"},
      {"params.group_size", std::to_string(std::min(group_size, mh))},
      {"params.messages", std::to_string(messages)},
  };
  exp::ScenarioSpec spec;
  Document doc;
  try {
    for (const auto& [key, json] : flag_overrides) apply(spec, doc, key, json);
    for (const auto& text : sets) apply_set(spec, doc, text);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }

  // The sweep block is not part of the spec: the runner parses it from
  // the same document separately, exactly like hand-written scenarios.
  std::string sweep = "{\"seeds\": {\"base\": " + std::to_string(seed) +
                      ", \"count\": " + std::to_string(seeds) + "}";
  std::string axes;
  if (sweep_variants) {
    axes += "{\"key\": \"variant\", \"values\": [\"pure_search\", \"always_inform\", "
            "\"location_view\"]}";
  }
  if (sweep_models) {
    if (!axes.empty()) axes += ", ";
    axes += "{\"key\": \"mobility.pattern\", \"values\": [";
    for (std::size_t i = 0; i < std::size(mobility::kMovePatternNames); ++i) {
      if (i != 0) axes += ", ";
      axes += quoted(mobility::kMovePatternNames[i]);
    }
    axes += "]}";
  }
  if (!axes.empty()) sweep += ", \"axes\": [" + axes + ']';
  const std::string body = render(doc, sweep + '}');

  // Self-check: the emitted document must parse back to the spec the
  // overrides built (every field compared) and expand to a non-empty
  // grid before it is allowed on disk.
  try {
    const auto reparsed = exp::parse_scenario(body);
    if (!(reparsed == spec)) {
      std::fprintf(stderr, "error: the file does not parse back to the spec its overrides "
                           "build (overlapping keys such as latency.wired and wired_min?)\n");
      return 1;
    }
    const auto grid = exp::sweep_from_json(*exp::json::parse(body), reparsed.net.seed);
    const auto plans = grid.expand(reparsed);
    if (plans.empty()) {
      std::fprintf(stderr, "internal error: generated sweep expands to zero runs\n");
      return 1;
    }
    std::fprintf(stderr, "%s: %u MSS x %u MH, model=%s, %zu planned runs\n",
                 spec.name.c_str(), spec.net.num_mss, spec.net.num_mh, model.c_str(),
                 plans.size());
  } catch (const std::exception& err) {
    std::fprintf(stderr, "internal error: generated scenario rejected: %s\n", err.what());
    return 1;
  }

  try {
    core::write_text_file(out_path, body);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
