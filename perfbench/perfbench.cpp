// perfbench: the repository benchmark. Runs one named workload through
// the public exp API exactly as mobidist_sweep runs a scenario —
// ScenarioSpec -> SweepGrid::expand -> ParallelRunner / run_scenario ->
// aggregate -> SweepReport::json -> artifact file — repeatedly for
// --seconds, and prints the medians of its end-to-end metrics (--trace 0)
// or of its per-layer metrics (--trace 1) as one JSON line at the end.
//
//   perfbench --workload commuter_1e5|echo_100k_s4|chaos_sweep --seed N
//             --seconds S --trace 0|1 --out DIR [--jobs N]
//
// --jobs overrides the workload's own thread count; it exists to show
// that the digest does not depend on it and is not used by the
// benchmark's own runs. See NOTES.md for the metric definitions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "exp/exp.hpp"
#include "obs/checkers.hpp"

namespace {

using namespace mobidist;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- workloads -------------------------------------------------------------

// Length knobs. Each is sized so one repetition takes a few host seconds
// (commuter, echo) or just under one (chaos), giving several repetitions
// per measured run.
constexpr std::uint64_t kCommuterMovesPerHost = 3;
constexpr std::uint64_t kEchoPings = 20;
constexpr std::uint64_t kChaosSeeds = 512;
constexpr std::uint64_t kChaosRequests = 96;  // three per host: r2pp's defect shows

/// One benchmark workload: a sweep and how it is executed.
struct Workload {
  exp::ScenarioSpec spec;
  exp::SweepGrid grid;
  unsigned jobs = 1;
  unsigned shards = 0;
};

void set(exp::ScenarioSpec& spec, std::string_view key, double value) {
  exp::apply_override(spec, key, exp::json::Value(value));
}
void set(exp::ScenarioSpec& spec, std::string_view key, const char* value) {
  exp::apply_override(spec, key, exp::json::Value(std::string(value)));
}

/// The mobidist_gen shape (`--model commuter --mh 100000`): 66 MSS x 1e5
/// MH, location_view group over whole-population commuter mobility on
/// the legacy engine, one run. Built from the same fields mobidist_gen
/// writes, so no generated scenario file is needed.
Workload commuter_1e5(std::uint64_t seed) {
  Workload w;
  auto& s = w.spec;
  set(s, "name", "commuter_1e5");
  set(s, "workload", "group_mobility");
  set(s, "variant", "location_view");
  set(s, "topology.num_mss", 66);
  set(s, "topology.num_mh", 100000);
  exp::apply_override(s, "topology.seed",
                      exp::json::Value(static_cast<double>(seed), seed));
  exp::apply_override(s, "mobility.enabled", exp::json::Value(true));
  set(s, "mobility.pattern", "commuter");
  set(s, "mobility.regions", 8);
  set(s, "mobility.max_moves_per_host", kCommuterMovesPerHost);
  set(s, "mobility.mean_pause", 150.0);
  set(s, "mobility.mean_transit", 8.0);
  set(s, "params.group_size", 64);
  set(s, "params.messages", 24);
  w.grid.seeds = exp::derive_seeds(seed, 1);
  return w;
}

/// scale/echo at 64 MSS x 1e5 MH on the sharded engine.
Workload echo_100k_s4(std::uint64_t seed, unsigned cpus) {
  Workload w;
  auto& s = w.spec;
  set(s, "name", "echo_100k_s4");
  set(s, "workload", "scale");
  set(s, "variant", "echo");
  set(s, "topology.num_mss", 64);
  set(s, "topology.num_mh", 100000);
  set(s, "params.pings", kEchoPings);
  set(s, "params.gap", 7);
  w.grid.seeds = exp::derive_seeds(seed, 1);
  w.shards = std::min(4u, cpus);
  return w;
}

/// The mutex family at 8 MSS x 32 MH under the chaos suite's combined
/// fault profile, kChaosSeeds seeds per variant, on the thread pool.
Workload chaos_sweep(std::uint64_t seed, unsigned cpus) {
  Workload w;
  auto& s = w.spec;
  set(s, "name", "chaos_sweep");
  set(s, "workload", "mutex");
  set(s, "topology.num_mss", 8);
  set(s, "topology.num_mh", 32);
  set(s, "fault.wireless_loss", 0.05);
  set(s, "fault.wireless_dup", 0.02);
  set(s, "fault.wireless_reorder", 0.03);
  s.fault.crashes.push_back({1, 120, 80});
  set(s, "params.requests", kChaosRequests);
  set(s, "params.request_start", 5);
  set(s, "params.request_gap", 10);
  set(s, "params.chaos_moves", 3);
  set(s, "params.token_at", 1);
  set(s, "params.traversals", 60);
  w.grid.seeds = exp::derive_seeds(seed, kChaosSeeds);
  w.grid.axes.push_back(
      exp::SweepAxis::strings("variant", {"l2", "r2", "r2p", "r2pp", "pathrev"}));
  w.jobs = std::min(4u, cpus);
  return w;
}

constexpr std::string_view kWorkloadNames[] = {"commuter_1e5", "echo_100k_s4", "chaos_sweep"};

Workload make_workload(std::string_view name, std::uint64_t seed, unsigned cpus) {
  if (name == "commuter_1e5") return commuter_1e5(seed);
  if (name == "echo_100k_s4") return echo_100k_s4(seed, cpus);
  if (name == "chaos_sweep") return chaos_sweep(seed, cpus);
  throw std::runtime_error("unknown workload '" + std::string(name) + "'");
}

double metric_or_zero(const exp::RunResult& run, std::string_view name) {
  const auto it = run.metrics.find(name);
  return it == run.metrics.end() ? 0.0 : it->second;
}

/// The workload's own success predicate, on top of run_scenario's ok
/// (every trace checker passed).
bool workload_passes(const exp::RunResult& run, const exp::ScenarioSpec& spec) {
  if (metric_or_zero(run, "sched.hit_event_limit") != 0.0) return false;
  if (spec.workload == "group_mobility") {
    return metric_or_zero(run, "workload.exactly_once") == 1.0;
  }
  if (spec.workload == "mutex") {
    return metric_or_zero(run, "workload.completed") == spec.param("requests", 0) &&
           metric_or_zero(run, "mutex.cs_violations") == 0.0;
  }
  const double sent = spec.param("pings", 0) * spec.net.num_mh;
  return metric_or_zero(run, "workload.sent") == sent &&
         metric_or_zero(run, "workload.delivered") == sent;
}

/// True when `error` is run_scenario's checker report and every
/// violation it lists comes from `checker`.
bool only_checker(const std::string& error, std::string_view checker) {
  const std::string_view head = "trace checkers failed:";
  if (error.compare(0, head.size(), head) != 0) return false;
  std::size_t pos = head.size();
  while (pos < error.size()) {
    const std::size_t end = std::min(error.find('\n', pos + 1), error.size());
    const std::string_view line(error.data() + pos, end - pos);
    if (line.find(checker) == std::string_view::npos &&
        line.find("... and") == std::string_view::npos) {
      return false;
    }
    pos = end;
  }
  return true;
}

/// Failures of the program that are known at this commit. The benchmark
/// keeps the inputs that show them and counts them in failed_frac; any
/// other failure makes the result incorrect. Returns the defect's name,
/// or nullptr when the failure is not a known one. NOTES.md has a
/// reproduction for each.
///
/// - r2pp_traversal_cap: R2'' serves a host with two queued requests
///   twice in one traversal (receive_token checks eligible() for the
///   whole pending queue before token_.served records the first grant).
/// - l2_crash_fifo: under the crash fault, L2 occasionally breaks FIFO
///   on a wired channel into the crashed MSS at the instant it recovers.
/// - lv_exactly_once: location_view under whole-population commuter
///   mobility sometimes misses exactly-once delivery although every
///   checker passes.
const char* known_defect(const exp::RunResult& run, const exp::RunPlan& plan) {
  const auto& spec = plan.spec;
  if (!run.ok && spec.variant == "r2pp" && only_checker(run.error, "traversal_cap")) {
    return "r2pp_traversal_cap";
  }
  if (!run.ok && spec.variant == "l2" && !spec.fault.crashes.empty() &&
      only_checker(run.error, "channel_fifo")) {
    return "l2_crash_fifo";
  }
  if (run.ok && spec.workload == "group_mobility" && spec.variant == "location_view" &&
      spec.mobility && metric_or_zero(run, "sched.hit_event_limit") == 0.0 &&
      metric_or_zero(run, "workload.exactly_once") == 0.0) {
    return "lv_exactly_once";
  }
  return nullptr;
}

// --- spans -----------------------------------------------------------------

/// Boundary stamps of one run, taken from outside the program: entry and
/// exit of run_scenario, entry and exit of the workload builder, the
/// first after_start hook, and a harvest-time metric producer that
/// re-times merge and check on the run's own events.
struct RunStamps {
  Clock::time_point enter, wire_begin, wire_end, started, probe_begin, probe_end, exit;
  double merge_s = 0.0;
  double check_s = 0.0;
};

thread_local RunStamps* t_stamps = nullptr;

/// Name of the probe's producer; stripped from results before aggregate
/// so traced and untraced runs produce identical artifacts.
constexpr std::string_view kProbeMetric = "perfbench_probe";

/// Time what run_scenario did between the end of the run and harvest:
/// merged_events on the sharded engine (legacy runs check their single
/// stream in place, so only fetching it is timed), then check_all.
void probe(RunStamps& stamps, const net::Network& net) {
  stamps.probe_begin = Clock::now();
  std::size_t failures = 0;
  if (net.sharded()) {
    const auto merged = net.merged_events();
    const auto checked = Clock::now();
    failures = obs::check_all(std::span<const obs::Event>(merged)).size();
    stamps.merge_s = seconds_between(stamps.probe_begin, checked);
    stamps.check_s = seconds_between(checked, Clock::now());
  } else {
    const auto& stream = net.events();
    const auto checked = Clock::now();
    failures = obs::check_all(stream).size();
    stamps.merge_s = seconds_between(stamps.probe_begin, checked);
    stamps.check_s = seconds_between(checked, Clock::now());
  }
  if (failures != 0) throw std::logic_error("perfbench probe: re-check disagrees with run");
  stamps.probe_end = Clock::now();
}

/// The built-in workloads, each wrapped so its run's boundaries are
/// stamped. `traced` adds the harvest-time probe.
exp::WorkloadLibrary stamped_library(bool traced) {
  const auto& builtin = exp::WorkloadLibrary::builtin();
  exp::WorkloadLibrary library;
  for (const auto& name : builtin.names()) {
    const auto* inner = builtin.find(name);
    library.add(
        name,
        [inner, traced](exp::ScenarioContext& ctx) {
          RunStamps& stamps = *t_stamps;
          stamps.wire_begin = Clock::now();
          ctx.after_start([&stamps] { stamps.started = Clock::now(); });
          (*inner)(ctx);
          stamps.wire_end = Clock::now();
          if (traced) {
            ctx.metric(std::string(kProbeMetric), [&stamps, &net = ctx.net()] {
              probe(stamps, net);
              return 0.0;
            });
          }
        },
        builtin.shard_safe(name));
  }
  return library;
}

// --- one repetition --------------------------------------------------------

/// Per-layer host seconds summed over a repetition's runs.
struct Phases {
  double construct = 0, wire = 0, run = 0, merge = 0, check = 0, harvest = 0;
  double aggregate = 0;
  /// Post-start time of runs a checker rejected: run_scenario returns
  /// before harvest, so run and check cannot be told apart from outside
  /// and the time is in none of the spans above.
  double rejected = 0;

  [[nodiscard]] double sum() const {
    return construct + wire + run + merge + check + harvest + aggregate;
  }
};

/// Deterministic counts of a repetition, summed over its ok runs; the
/// value is the RunResult metric it is read from.
const std::pair<std::string_view, std::string_view> kCounts[] = {
    {"sim.events_fired", "sched.fired"},
    {"obs.events_emitted", "events.emitted"},
    {"obs.events_dropped", "events.dropped"},
    {"net.handoffs", "net.handoffs"},
    {"net.control_msgs", "net.control_msgs"},
    {"net.retransmissions", "net.retransmissions"},
    {"net.dup_suppressed", "net.dup_suppressed"},
    {"net.wired_msgs", "ledger.fixed_msgs"},
    {"net.wireless_msgs", "ledger.wireless_msgs"},
    {"fault.injected_loss", "fault.injected_loss"},
    {"fault.injected_dup", "fault.injected_dup"},
    {"fault.injected_crash_drop", "fault.injected_crash_drop"},
    {"mobility.moves", "workload.mob.moves"},
    {"group.significant_moves", "group.location_view.significant_moves"},
    {"mutex.cs_grants", "mutex.cs_grants"},
    {"mutex.cs_violations", "mutex.cs_violations"},
    {"cost.total", "cost.total"},
};

struct Rep {
  double wall_s = 0;
  double setup_s = 0;
  Phases phases;
  std::map<std::string, double> counts;
  std::size_t runs = 0;
  std::size_t failed = 0;      ///< runs not ok or failing the workload predicate
  std::size_t unexpected = 0;  ///< failed runs that are not a known defect
  std::map<std::string, std::size_t> known;  ///< known-defect failures by name
  std::string first_unexpected;
  std::uint64_t digest = 0;
};

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  int jobs = -1;  ///< -1: the workload's own
};

Rep run_rep(const Options& opt, unsigned cpus, const exp::WorkloadLibrary& library,
            bool traced, const std::string& git_sha) {
  Rep rep;
  for (const auto& [name, source] : kCounts) rep.counts[std::string(name)] = 0.0;
  const auto t0 = Clock::now();
  Workload w = make_workload(opt.workload, opt.seed, cpus);
  if (opt.jobs >= 0) w.jobs = static_cast<unsigned>(opt.jobs);
  w.spec.net.shards = w.shards;
  const auto plans = w.grid.expand(w.spec);
  const double expand_s = seconds_between(t0, Clock::now());

  std::vector<RunStamps> stamps(plans.size());
  const exp::ParallelRunner runner(w.jobs);
  auto results = runner.run(plans, [&](const exp::RunPlan& plan) {
    RunStamps& s = stamps[plan.index];
    t_stamps = &s;
    s.enter = Clock::now();
    auto result = exp::run_scenario(plan, library);
    s.exit = Clock::now();
    t_stamps = nullptr;
    result.metrics.erase("workload." + std::string(kProbeMetric));
    return result;
  });
  const auto t_agg = Clock::now();
  auto report = exp::aggregate(w.spec.name, w.grid, plans, results);
  report.jobs = runner.jobs();
  report.shards = w.shards;
  report.wall_clock_sec = seconds_between(t0, t_agg);
  report.git_sha = git_sha;
  const std::string artifact = report.json();
  rep.phases.aggregate = seconds_between(t_agg, Clock::now());
  core::write_text_file(opt.out_dir + "/ARTIFACT_" + opt.workload + ".json", artifact + "\n");
  rep.wall_s = seconds_between(t0, Clock::now());
  rep.digest = fnv1a64(report.deterministic_json());

  rep.setup_s = expand_s;
  const Clock::time_point unset{};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& s = stamps[i];
    ++rep.runs;
    const bool started = s.started != unset;
    rep.setup_s += seconds_between(s.enter, started ? s.started : s.exit);
    const bool passes = r.ok && workload_passes(r, plans[i].spec);
    if (!passes) {
      ++rep.failed;
      if (const char* defect = known_defect(r, plans[i])) {
        ++rep.known[defect];
      } else {
        if (rep.unexpected++ == 0) {
          rep.first_unexpected = "[" + r.cell + " seed=" + std::to_string(r.seed) + "] " +
                                 (r.ok ? "workload predicate failed" : r.error);
        }
      }
    }
    if (r.ok) {
      for (const auto& [name, source] : kCounts) {
        rep.counts[std::string(name)] += metric_or_zero(r, source);
      }
    }
    if (!traced || !started) continue;
    auto& p = rep.phases;
    p.construct += seconds_between(s.enter, s.wire_begin);
    p.wire += seconds_between(s.wire_begin, s.wire_end);
    if (r.ok) {
      p.run += seconds_between(s.wire_end, s.probe_begin) - s.merge_s - s.check_s;
      p.merge += s.merge_s;
      p.check += s.check_s;
      p.harvest += seconds_between(s.probe_end, s.exit);
    } else {
      p.rejected += seconds_between(s.wire_end, s.exit);
    }
  }
  rep.counts["obs.events_checked"] =
      rep.counts["obs.events_emitted"] - rep.counts["obs.events_dropped"];
  rep.counts["exp.runs"] = static_cast<double>(rep.runs);
  rep.counts["exp.runs_failed"] = static_cast<double>(rep.failed);
  return rep;
}

// --- reporting -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F field) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const auto& rep : reps) values.push_back(field(rep));
  return median(values);
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const std::string& note = {}) {
  std::printf("  %-28s %20.9g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload commuter_1e5|echo_100k_s4|chaos_sweep --seed N\n"
               "          --seconds S --trace 0|1 --out DIR [--jobs N]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--out") opt.out_dir = value;
    else if (arg == "--jobs") opt.jobs = std::atoi(value.c_str());
    else return usage(argv[0]);
  }
  if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), opt.workload) ==
          std::end(kWorkloadNames) ||
      opt.out_dir.empty() || opt.seconds <= 0) {
    return usage(argv[0]);
  }

  const unsigned cpus = available_cpus();
  const char* sha_env = std::getenv("MOBIDIST_GIT_SHA");
  const std::string git_sha = sha_env != nullptr ? sha_env : "unknown";
  const auto plain = stamped_library(false);
  const auto traced = stamped_library(true);

  // Untraced repetitions measure the end-to-end metrics; --trace 1
  // alternates untraced and traced ones so the tracing overhead is the
  // difference of their medians. Repetitions continue while another one
  // is expected to fit in --seconds.
  std::vector<Rep> plain_reps;
  std::vector<Rep> traced_reps;
  const auto begin = Clock::now();
  try {
    while (true) {
      const auto round_begin = Clock::now();
      plain_reps.push_back(run_rep(opt, cpus, plain, false, git_sha));
      if (opt.trace) traced_reps.push_back(run_rep(opt, cpus, traced, true, git_sha));
      const auto now = Clock::now();
      if (seconds_between(begin, now) + seconds_between(round_begin, now) > opt.seconds) break;
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 2;
  }

  rusage usage_now{};
  ::getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  // Correctness: no run failed except by a known defect, and every
  // repetition — traced or not — produced the same artifact body, counts
  // and failures.
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Rep& first = plain_reps.front();
  for (const auto* reps : {&plain_reps, &traced_reps}) {
    for (const auto& rep : *reps) {
      attempted += rep.runs;
      failed += rep.unexpected;
      if (rep.unexpected != 0) {
        correct = false;
        std::fprintf(stderr, "perfbench: unexpected failure %s\n", rep.first_unexpected.c_str());
      }
      if (rep.digest != first.digest || rep.counts != first.counts ||
          rep.known != first.known) {
        correct = false;
        std::fprintf(stderr, "perfbench: repetitions disagree on the deterministic result\n");
      }
    }
  }

  const auto w = make_workload(opt.workload, opt.seed, cpus);
  const unsigned jobs = opt.jobs >= 0 ? static_cast<unsigned>(opt.jobs) : w.jobs;
  std::printf("perfbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf(
      "provenance {\"nproc\":%u,\"hardware_concurrency\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\",\"jobs\":%u,\"shards\":%u}\n",
      cpus, std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, core::json_escape(git_sha).c_str(), std::max(1u, jobs), w.shards);
  std::printf("digest fnv1a64:%016llx (SweepReport::deterministic_json, %zu repetitions)\n",
              static_cast<unsigned long long>(first.digest),
              plain_reps.size() + traced_reps.size());

  const double fired = first.counts.at("sim.events_fired");
  const double emitted = first.counts.at("obs.events_emitted");
  const double dropped = first.counts.at("obs.events_dropped");
  const double runs = static_cast<double>(first.runs);
  const double failed_frac = static_cast<double>(first.failed) / runs;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const auto n = std::to_string(plain_reps.size());
    metrics = {
        {"wall_s", median_of(plain_reps, [](const Rep& r) { return r.wall_s; }), "s"},
        {"setup_s", median_of(plain_reps, [](const Rep& r) { return r.setup_s; }), "s"},
        {"events_per_s",
         median_of(plain_reps, [fired](const Rep& r) { return fired / r.wall_s; }),
         "events/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"checked_frac", emitted > 0 ? (emitted - dropped) / emitted : 0.0, "share"},
    };
    std::printf("end-to-end (median of %s repetitions):\n", n.c_str());
    for (const auto& m : metrics) print_metric(m);
    const auto [lo, hi] = std::minmax_element(
        plain_reps.begin(), plain_reps.end(),
        [](const Rep& a, const Rep& b) { return a.wall_s < b.wall_s; });
    std::printf("  %-28s %20.9g %-8s\n  %-28s %20.9g %-8s\n", "wall_s min", lo->wall_s, "s",
                "wall_s max", hi->wall_s, "s");
    // failed_frac reads 0 on workloads without a known defect, so it is
    // reported here rather than among the bounded metrics.
    std::string known;
    for (const auto& [defect, count] : first.known) {
      known += " " + defect + "=" + std::to_string(count);
    }
    print_metric({"failed_frac", failed_frac, "share"},
                 "(" + std::to_string(first.failed) + " of " + std::to_string(first.runs) +
                     " runs; known defects:" + (known.empty() ? " none" : known) + ")");
  } else {
    auto phase = [&](auto field) {
      return median_of(traced_reps, [field](const Rep& r) { return field(r.phases); });
    };
    const double run_s = phase([](const Phases& p) { return p.run; });
    const double check_s = phase([](const Phases& p) { return p.check; });
    const double checked = first.counts.at("obs.events_checked");
    const double traced_wall = median_of(traced_reps, [](const Rep& r) { return r.wall_s; });
    const double plain_wall = median_of(plain_reps, [](const Rep& r) { return r.wall_s; });
    metrics = {
        {"net.construct_s", phase([](const Phases& p) { return p.construct; }), "s"},
        {"exp.wire_s", phase([](const Phases& p) { return p.wire; }), "s"},
        {"sim.run_s", run_s, "s"},
        {"obs.merge_s", phase([](const Phases& p) { return p.merge; }), "s"},
        {"obs.check_s", check_s, "s"},
        {"exp.harvest_s", phase([](const Phases& p) { return p.harvest; }), "s"},
        {"exp.aggregate_s", phase([](const Phases& p) { return p.aggregate; }), "s"},
        {"sim.ns_per_event", fired > 0 ? run_s / fired * 1e9 : 0.0, "ns"},
        {"obs.check_ns_per_event", checked > 0 ? check_s / checked * 1e9 : 0.0, "ns"},
        {"trace.wall_s", traced_wall, "s"},
        {"trace.span_sum_s", phase([](const Phases& p) { return p.sum(); }), "s"},
        {"trace.overhead_s", traced_wall - plain_wall, "s"},
    };
    for (const auto& [name, value] : first.counts) metrics.push_back({name, value, "count"});
    std::printf("per-layer (median of %zu traced repetitions, host seconds summed over "
                "%zu runs on %u jobs):\n",
                traced_reps.size(), first.runs, std::max(1u, jobs));
    for (const auto& m : metrics) print_metric(m);
    std::printf("  span sum %.6f s beside traced wall_s %.6f s and untraced wall_s %.6f s\n"
                "  (the traced wall also holds the probe's repeated merge and check;\n"
                "  %.6f s after start of checker-rejected runs is in no span)\n",
                phase([](const Phases& p) { return p.sum(); }), traced_wall, plain_wall,
                phase([](const Phases& p) { return p.rejected; }));
  }

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
