#include "hbold/exploration_service.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "hbold/effectiveness.h"
#include "hbold/presentation.h"
#include "hbold/visual_query.h"

namespace hbold {

namespace {

using workload::SessionAction;
using workload::SessionActionKind;
using workload::SessionActionKindName;

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Resolves a raw 64-bit pick against an actual population.
size_t Resolve(uint64_t pick, size_t count) {
  return count == 0 ? 0 : static_cast<size_t>(pick % count);
}

void TaskLine(std::ostringstream* ts, const char* task,
              const TaskOutcome& cluster_first, const TaskOutcome& flat) {
  *ts << " task=" << task << " cluster_first=" << cluster_first.interactions
      << '/' << (cluster_first.success ? 1 : 0)
      << " flat=" << flat.interactions << '/' << (flat.success ? 1 : 0);
}

}  // namespace

ExplorationService::ExplorationService(Fleet* fleet,
                                       const ExplorationServiceOptions& options)
    : fleet_(fleet),
      options_(options),
      options_fingerprint_(options.layout.Fingerprint()),
      cache_(options.layout_cache_capacity) {}

size_t ExplorationService::RefreshSnapshots() {
  auto by_url = [](const DatasetSnapshot& a, const DatasetSnapshot& b) {
    return a.url < b.url;
  };
  std::vector<DatasetSnapshot> catalog;
  for (size_t shard = 0; shard < fleet_->num_shards(); ++shard) {
    PresentationSnapshot snap =
        PresentationSnapshot::Capture(fleet_->shard_db(shard));
    for (const DatasetInfo& info : snap.ListDatasets()) {
      DatasetSnapshot ds;
      ds.url = info.url;
      ds.extracted_day = info.extracted_day;
      ds.endpoint = fleet_->EndpointFor(info.url);
      ds.summary_doc = snap.FindSummaryDoc(info.url);
      ds.cluster_doc = snap.FindClusterDoc(info.url);
      if (ds.cluster_doc == nullptr) continue;
      auto prior = std::lower_bound(catalog_.begin(), catalog_.end(), ds,
                                    by_url);
      if (prior != catalog_.end() && prior->url == ds.url &&
          prior->summary_doc == ds.summary_doc &&
          prior->cluster_doc == ds.cluster_doc) {
        ds.summary = prior->summary;
        ds.clusters = prior->clusters;
        ds.schema_fingerprint = prior->schema_fingerprint;
        ds.cluster_fingerprint = prior->cluster_fingerprint;
        catalog.push_back(std::move(ds));
        continue;
      }
      Result<schema::SchemaSummary> summary =
          schema::SchemaSummary::FromJson(*ds.summary_doc);
      Result<cluster::ClusterSchema> clusters =
          cluster::ClusterSchema::FromJson(*ds.cluster_doc);
      if (!summary.ok() || !clusters.ok()) continue;
      // Fingerprints over the decoded objects' canonical JSON: pure
      // content, independent of store `_id`s or shard layout.
      ds.schema_fingerprint = Fnv64(summary->ToJson().Dump());
      ds.cluster_fingerprint = Fnv64(clusters->ToJson().Dump());
      ds.summary = std::make_shared<const schema::SchemaSummary>(
          std::move(summary).value());
      ds.clusters = std::make_shared<const cluster::ClusterSchema>(
          std::move(clusters).value());
      catalog.push_back(std::move(ds));
    }
  }
  std::sort(catalog.begin(), catalog.end(), by_url);
  catalog_ = std::move(catalog);
  std::set<viz::LayoutKey> live;
  for (const DatasetSnapshot& ds : catalog_) live.insert(LayoutKeyOf(ds));
  cache_.Prune(live);
  return catalog_.size();
}

std::shared_ptr<const viz::LayoutSet> ExplorationService::LayoutsFor(
    const DatasetSnapshot& ds) {
  if (!options_.use_layout_cache) {
    return std::make_shared<const viz::LayoutSet>(viz::ComputeLayoutSet(
        *ds.summary, *ds.clusters, ds.url, options_.layout));
  }
  return cache_.GetOrCompute(LayoutKeyOf(ds), [&]() {
    return viz::ComputeLayoutSet(*ds.summary, *ds.clusters, ds.url,
                                 options_.layout);
  });
}

viz::LayoutKey ExplorationService::LayoutKeyOf(
    const DatasetSnapshot& ds) const {
  return viz::LayoutKey{ds.schema_fingerprint, ds.cluster_fingerprint,
                        options_fingerprint_};
}

SessionResult ExplorationService::RunSession(
    const workload::SessionPlan& plan) {
  SessionResult result;
  result.session_id = plan.session_id;
  result.interaction_wall_ms.reserve(plan.actions.size());

  std::ostringstream ts;
  ts << std::fixed << std::setprecision(3);

  const DatasetSnapshot* ds = nullptr;
  std::unique_ptr<ExplorationSession> exploration;
  std::unique_ptr<EffectivenessSimulator> simulator;
  std::string sampled_instance;

  for (const SessionAction& action : plan.actions) {
    auto start = std::chrono::steady_clock::now();
    ts << "s" << plan.session_id << ' ' << SessionActionKindName(action.kind);
    const schema::SchemaSummary* summary = ds ? ds->summary.get() : nullptr;
    size_t classes = summary ? summary->NodeCount() : 0;
    switch (action.kind) {
      case SessionActionKind::kListDatasets: {
        ts << " count=" << catalog_.size();
        break;
      }
      case SessionActionKind::kOpenDataset: {
        if (catalog_.empty()) {
          ts << " catalog_empty";
          break;
        }
        ds = &catalog_[Resolve(plan.dataset_rank, catalog_.size())];
        exploration = std::make_unique<ExplorationSession>(*ds->summary,
                                                           *ds->clusters);
        simulator = std::make_unique<EffectivenessSimulator>(*ds->summary,
                                                             *ds->clusters);
        sampled_instance.clear();
        ts << " url=" << ds->url << " classes=" << ds->summary->NodeCount()
           << " clusters=" << ds->clusters->ClusterCount()
           << " instances=" << ds->summary->total_instances()
           << " schema=" << HexU64(ds->schema_fingerprint)
           << " cluster=" << HexU64(ds->cluster_fingerprint)
           << " day=" << ds->extracted_day;
        break;
      }
      case SessionActionKind::kRenderLayouts: {
        if (!ds) {
          ts << " no_dataset";
          break;
        }
        std::shared_ptr<const viz::LayoutSet> layouts = LayoutsFor(*ds);
        ts << " geometry=" << HexU64(layouts->geometry_fingerprint)
           << " cells=" << layouts->treemap.size()
           << " slices=" << layouts->sunburst.size()
           << " circles=" << layouts->circles.size()
           << " edges=" << layouts->bundling.edges.size();
        break;
      }
      case SessionActionKind::kFocusClass: {
        if (!exploration || classes == 0) {
          ts << " no_classes";
          break;
        }
        size_t node = Resolve(action.pick_a, classes);
        exploration->FocusClass(node);
        ts << " node=" << node
           << " label=" << summary->nodes()[node].label
           << " visible=" << exploration->VisibleNodeCount()
           << " coverage=" << exploration->CoveragePercent();
        break;
      }
      case SessionActionKind::kExpandClass: {
        if (!exploration || classes == 0) {
          ts << " no_classes";
          break;
        }
        size_t node = Resolve(action.pick_a, classes);
        exploration->ExpandClass(node);
        ts << " node=" << node
           << " visible=" << exploration->VisibleNodeCount()
           << " coverage=" << exploration->CoveragePercent();
        break;
      }
      case SessionActionKind::kExpandAll: {
        if (!exploration) {
          ts << " no_dataset";
          break;
        }
        exploration->ExpandAll();
        ts << " visible=" << exploration->VisibleNodeCount()
           << " coverage=" << exploration->CoveragePercent();
        break;
      }
      case SessionActionKind::kEffectivenessTask: {
        if (!simulator || classes == 0) {
          ts << " no_classes";
          break;
        }
        switch (action.pick_a % 3) {
          case 0: {
            const std::string& label =
                summary->nodes()[Resolve(action.pick_b, classes)].label;
            TaskLine(&ts, "find_label",
                     simulator->FindClassByLabel(
                         label, ExplorationStrategy::kClusterFirst),
                     simulator->FindClassByLabel(
                         label, ExplorationStrategy::kFlatScan));
            ts << " target=" << label;
            break;
          }
          case 1: {
            TaskLine(&ts, "most_populated",
                     simulator->FindMostPopulatedClass(
                         ExplorationStrategy::kClusterFirst),
                     simulator->FindMostPopulatedClass(
                         ExplorationStrategy::kFlatScan));
            break;
          }
          default: {
            size_t src, dst;
            if (summary->ArcCount() > 0) {
              const schema::PropertyArc& arc =
                  summary->arcs()[Resolve(action.pick_b, summary->ArcCount())];
              src = arc.src;
              dst = arc.dst;
            } else {
              src = Resolve(action.pick_b, classes);
              dst = Resolve(action.pick_b >> 32, classes);
            }
            TaskLine(&ts, "find_connection",
                     simulator->FindConnection(
                         src, dst, ExplorationStrategy::kClusterFirst),
                     simulator->FindConnection(
                         src, dst, ExplorationStrategy::kFlatScan));
            ts << " src=" << src << " dst=" << dst;
            break;
          }
        }
        break;
      }
      case SessionActionKind::kDrilldownSample: {
        if (!ds || classes == 0) {
          ts << " no_classes";
          break;
        }
        if (ds->endpoint == nullptr) {
          ts << " offline";
          break;
        }
        size_t node = Resolve(action.pick_a, classes);
        const std::string& iri = summary->nodes()[node].iri;
        Result<sparql::ResultTable> rows = drilldown::SampleInstances(
            ds->endpoint, iri, options_.drilldown_limit);
        if (!rows.ok()) {
          ts << " node=" << node
             << " error=" << StatusCodeName(rows.status().code());
          break;
        }
        ts << " node=" << node << " rows=" << rows->num_rows();
        if (rows->num_rows() > 0 && rows->num_columns() > 0) {
          size_t row = Resolve(action.pick_b, rows->num_rows());
          auto cell = rows->Cell(row, rows->columns()[0]);
          if (cell) {
            sampled_instance = cell->lexical();
            ts << " picked=" << sampled_instance;
          }
        }
        break;
      }
      case SessionActionKind::kDescribeResource: {
        if (!ds || ds->endpoint == nullptr) {
          ts << " offline";
          break;
        }
        if (sampled_instance.empty()) {
          ts << " no_instance";
          break;
        }
        Result<sparql::ResultTable> rows =
            drilldown::DescribeResource(ds->endpoint, sampled_instance);
        if (!rows.ok()) {
          ts << " error=" << StatusCodeName(rows.status().code());
          break;
        }
        ts << " resource=" << sampled_instance << " rows=" << rows->num_rows();
        break;
      }
      case SessionActionKind::kVisualQuery: {
        if (!ds || classes == 0) {
          ts << " no_classes";
          break;
        }
        size_t node = Resolve(action.pick_a, classes);
        const schema::ClassNode& cls = summary->nodes()[node];
        VisualQuery vq(*summary);
        std::string var = vq.SelectClass(node);
        if (!cls.attributes.empty()) {
          const schema::Attribute& attr =
              cls.attributes[Resolve(action.pick_b, cls.attributes.size())];
          std::string attr_var = vq.SelectAttribute(node, attr.iri);
          // Filter the attribute on the class's display label as a literal
          // search text — exercises the escaping path on every label the
          // data can produce.
          vq.FilterRegex(attr_var, cls.label, /*case_insensitive=*/true);
        }
        vq.SetLimit(10);
        std::string query = vq.GenerateSparql();
        ts << " node=" << node << " sparql=" << HexU64(Fnv64(query))
           << " var=" << var;
        if (ds->endpoint == nullptr) {
          ts << " offline";
          break;
        }
        Result<endpoint::QueryOutcome> outcome = vq.Execute(ds->endpoint);
        if (!outcome.ok()) {
          ts << " error=" << StatusCodeName(outcome.status().code());
          break;
        }
        ts << " rows=" << outcome->table.num_rows()
           << " latency=" << outcome->latency_ms;
        break;
      }
    }
    ts << '\n';
    result.interaction_wall_ms.push_back(WallMsSince(start));
  }

  result.transcript = ts.str();
  result.transcript_fingerprint = Fnv64(result.transcript);
  return result;
}

std::vector<SessionResult> ExplorationService::RunSessions(
    const std::vector<workload::SessionPlan>& plans, ThreadPool* pool) {
  std::vector<SessionResult> results(plans.size());
  ThreadPool::ParallelFor(pool, plans.size(), [&](size_t i) {
    results[i] = RunSession(plans[i]);
  });
  return results;
}

void ExplorationService::ScheduleSessions(
    sim::EventLoop* loop, std::vector<workload::SessionPlan> plans,
    std::vector<int64_t> arrival_times_ms) {
  const size_t n = std::min(plans.size(), arrival_times_ms.size());
  for (size_t i = 0; i < n; ++i) {
    loop->ScheduleAt(
        arrival_times_ms[i], sim::EventKind::kSessionArrival,
        "session " + std::to_string(plans[i].session_id),
        [this, plan = std::move(plans[i])] {
          scheduled_results_.push_back(RunSession(plan));
        });
  }
}

std::vector<SessionResult> ExplorationService::TakeScheduledResults() {
  std::vector<SessionResult> taken = std::move(scheduled_results_);
  scheduled_results_.clear();
  return taken;
}

uint64_t ExplorationService::CombinedFingerprint(
    const std::vector<SessionResult>& results) {
  uint64_t h = 1469598103934665603ULL;
  for (const SessionResult& r : results) {
    for (unsigned char c : r.transcript) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace hbold
