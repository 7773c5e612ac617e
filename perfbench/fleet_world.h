#ifndef HBOLD_PERFBENCH_FLEET_WORLD_H_
#define HBOLD_PERFBENCH_FLEET_WORLD_H_

// The fleet world every workload builds: simulated Linked Data endpoints
// behind TimedEndpoint decorators, registered on an inline hbold::Fleet.

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/fleet.h"
#include "perfbench.h"
#include "rdf/graph.h"

namespace perfbench {

/// The shape of a world: the size and dialect distribution of the
/// repository's bench fleet (bench/bench_util.h: Zipf(1.0) class counts of
/// 5-120 classes, 40 instances for the biggest class, 15% NoGroupBy, 10%
/// NoAggregates, 10% RowCapped(5000) endpoints), but stratified instead of
/// drawn: endpoint i gets a fixed quantile of that class-count
/// distribution and a fixed dialect, so worlds of different seeds cost the
/// same to within a few percent. The seed draws the data (property fill,
/// link targets) and the churn.
struct WorldShape {
  size_t size = 130;
  uint64_t seed = 1;
  /// Daily churn of the non-quiet endpoints (0 = static data).
  double daily_churn_fraction = 0;
  /// Share of endpoints whose data never changes.
  double quiet_fraction = 0;
};

/// One simulated Linked Data source behind an endpoint.
struct Member {
  std::string url;
  std::unique_ptr<hbold::rdf::TripleStore> store;
  std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint> endpoint;
};

/// Stores, simulated endpoints, the timing decorators attached in their
/// place, and the fleet itself. Held by pointer: the endpoints keep the
/// clock's address.
struct World {
  hbold::SimClock clock;
  std::vector<Member> members;
  std::vector<std::unique_ptr<TimedEndpoint>> timed;
  std::unique_ptr<hbold::Fleet> fleet;
  /// Disk-backend directory of each store (empty when in RAM).
  std::vector<std::string> store_dirs;
};

/// One shard, one worker, one pipeline at a time: the whole fleet runs
/// inline on the calling thread.
hbold::FleetOptions InlineFleet(hbold::IncrementalMode mode,
                                int64_t refresh_age_days);

/// Builds the world; with a non-empty `disk_root` every store moves to the
/// mmap backend with a memory budget of half its index size. Null when a
/// disk backend cannot be enabled.
std::unique_ptr<World> BuildWorld(const WorldShape& shape,
                                  const hbold::FleetOptions& fleet_options,
                                  Tracer* tracer,
                                  const std::string& disk_root);

/// Sums over the world's decorators.
EndpointTotals SumTotals(const World& w);
hbold::endpoint::QueryEngineStats SumEngine(const World& w);

}  // namespace perfbench

#endif  // HBOLD_PERFBENCH_FLEET_WORLD_H_
