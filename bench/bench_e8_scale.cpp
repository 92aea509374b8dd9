// E8 (ROADMAP "as fast as the hardware allows").
//
// Simulation-core throughput at scale: N mobile hosts ping their local
// MSS in a chained loop (echo) or churn far-future timers through
// schedule/cancel (timers) across growing M x N grids, up to ~10^6
// scheduled events per run. The interesting numbers are host wall-clock
// and scheduler events/sec — they live in the artifact's provenance
// "timing" section, never in the deterministic body, so same-seed
// artifacts stay byte-identical across machines.
//
// The sharded axis: the largest grids re-run echo on the sharded
// engine (topology partitioned into shards, conservative windows, see
// sim::ShardGroup) at shards in {1,2,4,8} — cells echo_MxN_s<K>. The
// deterministic metrics of those cells are identical for every K by
// construction (the shard_independence gate pins that); what this
// bench adds is the events/sec column, where near-linear scaling is
// the target. The gate at the bottom asserts shards=4 >= 1.8x shards=1
// on the largest grid point — guarded by exp::usable_cpus() >= 4,
// because on fewer cores the worker threads just time-slice one core
// and the barrier overhead makes scaling physically impossible.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/mobidist.hpp"

namespace {

using namespace mobidist;

const std::vector<std::uint64_t> kSeeds = {11, 12, 13};
const std::vector<std::uint32_t> kShardCounts = {1, 2, 4, 8};

exp::ScenarioSpec scale_spec(const std::string& variant, std::uint32_t num_mss,
                             std::uint32_t num_mh, std::uint64_t pings) {
  exp::ScenarioSpec spec;
  spec.name = "e8_scale";
  spec.workload = "scale";
  spec.variant = variant;
  spec.net.num_mss = num_mss;
  spec.net.num_mh = num_mh;
  spec.params["gap"] = 7;
  spec.params["pings"] = pings;  // echo: ~6 events per ping per MH
  spec.params["ticks"] = 64;     // timers: cancel churn*ticks per MH
  spec.params["churn"] = 8;
  return spec;
}

std::string cell(const std::string& variant, std::uint32_t m, std::uint32_t n) {
  return variant + "_" + std::to_string(m) + "x" + std::to_string(n);
}

}  // namespace

int main() {
  struct Grid {
    std::uint32_t m;
    std::uint32_t n;
    std::uint64_t pings;  ///< echo work per MH, scaled down as N grows
    bool timers;          ///< timers churn is O(N·ticks·churn): skip at 100k
    bool sharded;         ///< re-run echo on the sharded engine per shard count
  };
  const Grid kGrids[] = {
      {4, 64, 300, true, false},
      {8, 256, 300, true, false},
      {16, 1024, 300, true, true},
      {64, 100000, 5, false, true},  // the ISSUE 8 headline point
  };

  bench::Sections sweep("scale");
  for (const auto& grid : kGrids) {
    sweep.add(cell("echo", grid.m, grid.n), scale_spec("echo", grid.m, grid.n, grid.pings),
              kSeeds);
    if (grid.timers) {
      sweep.add(cell("timers", grid.m, grid.n),
                scale_spec("timers", grid.m, grid.n, grid.pings), kSeeds);
    }
    if (grid.sharded) {
      for (const std::uint32_t shards : kShardCounts) {
        auto spec = scale_spec("echo", grid.m, grid.n, grid.pings);
        spec.net.shards = shards;
        sweep.add(cell("echo", grid.m, grid.n) + "_s" + std::to_string(shards), spec,
                  kSeeds);
      }
    }
  }
  sweep.run();
  // Provenance: the highest shard count the sharded cells exercised (the
  // deterministic body is identical across counts, so this can only
  // live outside it).
  sweep.report().shards = kShardCounts.back();

  std::cout << "E8: simulation-core throughput across M x N grids\n"
            << "(echo = chained MH<->MSS wireless ping traffic; timers = "
               "schedule+cancel churn of far-future timers;\n"
               " _sK = the same echo cell on the sharded engine with K shards)\n\n";

  core::Table table({"cell", "fired events", "wall ms (mean)", "events/sec (mean)"});
  const auto row = [&](const std::string& name) {
    const auto* summary = sweep.report().find_cell(name);
    table.row({name, core::num(sweep.metric(name, "sched.fired")),
               core::num(summary->wall_sec.mean * 1e3),
               core::num(summary->events_per_sec.mean)});
  };
  for (const auto& grid : kGrids) {
    row(cell("echo", grid.m, grid.n));
    if (grid.timers) row(cell("timers", grid.m, grid.n));
    if (grid.sharded) {
      for (const std::uint32_t shards : kShardCounts) {
        row(cell("echo", grid.m, grid.n) + "_s" + std::to_string(shards));
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nReading: events/sec is sched.fired / host wall seconds per run,\n"
               "averaged over " << kSeeds.size()
            << " seeds; compare against bench/baselines/BENCH_scale_pre.json.\n"
            << "\nwrote " << sweep.write() << "\n";

  // The scaling gate. Deterministic metrics are shard-count-independent
  // (ctest pins that); wall-clock scaling is the one claim only this
  // bench can check, and only on hardware with real parallelism.
  const Grid& top = kGrids[std::size(kGrids) - 1];
  const auto base = cell("echo", top.m, top.n);
  const double s1 = sweep.report().find_cell(base + "_s1")->events_per_sec.mean;
  const double s4 = sweep.report().find_cell(base + "_s4")->events_per_sec.mean;
  const unsigned cpus = exp::usable_cpus();
  if (cpus >= 4) {
    const double speedup = s1 > 0.0 ? s4 / s1 : 0.0;
    std::cout << "\nscaling gate: shards=4 / shards=1 = " << core::num(speedup)
              << " (require >= 1.8 at " << base << ")\n";
    if (speedup < 1.8) {
      std::cerr << "E8: FAIL — sharded engine scaled " << core::num(speedup)
                << "x at 4 shards (expected >= 1.8x)\n";
      return 1;
    }
  } else {
    std::cout << "\nscaling gate: skipped (usable CPUs = " << cpus
              << " < 4; shards=4 / shards=1 measured " << core::num(s1 > 0.0 ? s4 / s1 : 0.0)
              << "x on time-sliced cores)\n";
  }
  return 0;
}
