#include "fleet_world.h"

#include <cmath>
#include <string>

#include "workload/ld_generator.h"

namespace perfbench {

hbold::FleetOptions InlineFleet(hbold::IncrementalMode mode,
                                int64_t refresh_age_days) {
  hbold::FleetOptions options;
  options.num_shards = 1;
  options.fleet_workers = 1;
  options.server.parallelism = 1;
  options.server.refresh_age_days = refresh_age_days;
  options.server.incremental.mode = mode;
  return options;
}

namespace {

/// Class count at quantile `u` of the bench fleet's Zipf(1.0) rank draw:
/// rank r has weight 1/(r+1) and maps to max_classes - r classes.
size_t ClassesAtQuantile(double u) {
  constexpr size_t kMinClasses = 5;
  constexpr size_t kMaxClasses = 120;
  const size_t ranks = kMaxClasses - kMinClasses + 1;
  double total = 0;
  for (size_t r = 0; r < ranks; ++r) total += 1.0 / static_cast<double>(r + 1);
  double cdf = 0;
  for (size_t r = 0; r < ranks; ++r) {
    cdf += 1.0 / static_cast<double>(r + 1) / total;
    if (u <= cdf) return kMaxClasses - r;
  }
  return kMinClasses;
}

/// Dialect of the endpoint at class-count quantile index q: every 20
/// consecutive quantiles hold 2 NoAggregates, 3 NoGroupBy, 2 RowCapped and
/// 13 full endpoints, so every size band has the same mix.
hbold::endpoint::Dialect DialectAt(size_t q) {
  switch (q % 20) {
    case 0:
    case 10:
      return hbold::endpoint::Dialect::NoAggregates();
    case 1:
    case 7:
    case 14:
      return hbold::endpoint::Dialect::NoGroupBy();
    case 3:
    case 17:
      return hbold::endpoint::Dialect::RowCapped(5000);
    default:
      return hbold::endpoint::Dialect::Full();
  }
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  h ^= h >> 31;
  h *= 0xD6E8FEB86659FD93ULL;
  h ^= h >> 29;
  return h;
}

}  // namespace

std::unique_ptr<World> BuildWorld(const WorldShape& shape,
                                  const hbold::FleetOptions& fleet_options,
                                  Tracer* tracer,
                                  const std::string& disk_root) {
  auto w = std::make_unique<World>();
  const size_t n = shape.size;
  for (size_t i = 0; i < n; ++i) {
    // A fixed stride interleaves the size quantiles over the endpoint
    // indexes (53 is coprime with every fleet size used here).
    const size_t q = (i * 53) % n;
    Member m;
    m.url = "http://ld" + std::to_string(i) + ".example.org/sparql";
    m.store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.namespace_iri = "http://ld" + std::to_string(i) + ".example.org/";
    config.num_classes =
        ClassesAtQuantile((static_cast<double>(q) + 0.5) / static_cast<double>(n));
    config.num_domains = 2 + config.num_classes / 12;
    config.max_instances_per_class = 40;
    config.seed = Mix(shape.seed, i);
    hbold::workload::GenerateSyntheticLd(config, m.store.get());

    hbold::endpoint::MutationModel mutation;
    // Quiet endpoints spread evenly over the size quantiles.
    const bool quiet =
        std::floor((q + 1) * shape.quiet_fraction) >
        std::floor(q * shape.quiet_fraction);
    if (shape.daily_churn_fraction > 0 && !quiet) {
      mutation.daily_churn_fraction = shape.daily_churn_fraction;
      mutation.seed = Mix(shape.seed, i + n);
    }
    if (!disk_root.empty()) {
      hbold::rdf::DiskBackendOptions disk;
      disk.directory = disk_root + "/ep" + std::to_string(i);
      disk.memory_budget_bytes =
          m.store->size() * sizeof(hbold::rdf::Triple) * 3 / 2;
      if (!m.store->EnableDiskBackend(disk).ok()) return nullptr;
      w->store_dirs.push_back(disk.directory);
    }
    m.endpoint = std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
        m.url, "LD " + std::to_string(i), m.store.get(), &w->clock,
        DialectAt(q), hbold::endpoint::AvailabilityModel{},
        hbold::endpoint::LatencyModel{}, mutation);
    w->timed.push_back(std::make_unique<TimedEndpoint>(m.endpoint.get(), tracer));
    w->members.push_back(std::move(m));
  }
  w->fleet = std::make_unique<hbold::Fleet>(&w->clock, fleet_options);
  for (size_t i = 0; i < n; ++i) {
    hbold::endpoint::EndpointRecord record;
    record.url = w->members[i].url;
    record.name = w->members[i].endpoint->name();
    w->fleet->RegisterEndpoint(record);
    w->fleet->AttachEndpoint(record.url, w->timed[i].get());
  }
  return w;
}

EndpointTotals SumTotals(const World& w) {
  EndpointTotals sum;
  for (const auto& t : w.timed) sum += t->Totals();
  return sum;
}

hbold::endpoint::QueryEngineStats SumEngine(const World& w) {
  hbold::endpoint::QueryEngineStats sum;
  for (const auto& t : w.timed) sum += t->engine_stats();
  return sum;
}

}  // namespace perfbench
