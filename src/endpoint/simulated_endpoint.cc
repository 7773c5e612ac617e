#include "endpoint/simulated_endpoint.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/hash.h"
#include "rdf/vocab.h"

namespace hbold::endpoint {

namespace {

/// splitmix64 finalizer — the same mixing the availability model uses.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

/// Deterministic hash of (seed, day, op, salt) — the mutation model's
/// only randomness source.
uint64_t MutHash(uint64_t seed, int64_t day, uint64_t op, uint64_t salt) {
  uint64_t h = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(day);
  h = Mix64(h + op * 0xD1B54A32D192ED03ULL);
  return Mix64(h + salt * 0x8CB92BA72F3D8DD7ULL);
}

double UnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

bool AvailabilityModel::IsUp(int64_t day) const {
  if (forced_outage_days.count(day) > 0) return false;
  if (uptime >= 1.0) return true;
  if (uptime <= 0.0) return false;
  // Deterministic hash of (seed, day) -> [0, 1).
  uint64_t h = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(day);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < uptime;
}

SimulatedRemoteEndpoint::SimulatedRemoteEndpoint(
    std::string url, std::string name, rdf::TripleStore* store,
    const SimClock* clock, Dialect dialect, AvailabilityModel availability,
    LatencyModel latency, MutationModel mutation,
    ProbeFaultModel probe_faults)
    : store_(store),
      local_(std::move(url), std::move(name), store),
      clock_(clock),
      dialect_(dialect),
      availability_(availability),
      latency_(latency),
      mutation_(mutation),
      probe_faults_(probe_faults) {}

void SimulatedRemoteEndpoint::AdvanceDataDay(int64_t day) {
  for (int64_t d = last_mutation_day_ + 1; d <= day; ++d) {
    ApplyMutationDay(d);
  }
  last_mutation_day_ = std::max(last_mutation_day_, day);
}

void SimulatedRemoteEndpoint::ApplyMutationDay(int64_t day) {
  if (store_ == nullptr) return;
  if (mutation_.freeze_after_day >= 0 && day > mutation_.freeze_after_day) {
    return;
  }
  rdf::TripleStore& st = *store_;

  const rdf::TermId type_lookup =
      st.dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));

  // ---- Plan phase: data churn. Every pick reads the pre-day snapshot, so
  // the op sequence is a pure function of (seed, day, store content) — no
  // read depends on a same-day write.
  struct PlannedAdd {
    std::string subject_iri;
    std::vector<std::pair<rdf::TermId, rdf::TermId>> po;  // (p, o) pairs
  };
  std::vector<rdf::Triple> removes;
  std::vector<PlannedAdd> adds;
  std::set<rdf::TermId> dirty_classes;

  auto bump_classes_of = [&](rdf::TermId subject) {
    rdf::TriplePattern pat;
    pat.s = subject;
    pat.p = type_lookup;
    for (const rdf::Triple& t : st.Span(pat)) dirty_classes.insert(t.o);
  };

  const size_t total = st.size();
  const size_t budget = static_cast<size_t>(
      static_cast<double>(total) * mutation_.daily_churn_fraction);
  if (budget > 0 && type_lookup != rdf::kInvalidTermId) {
    const auto classes = st.GroupedCountByObject(type_lookup);
    // Hot set: a fixed, seed-determined subset of classes absorbs all
    // churn; everything else stays quiet forever. Guaranteed non-empty
    // (the class with the smallest hash is always hot) so enabled churn
    // always churns.
    std::vector<rdf::TermId> hot;
    if (!classes.empty()) {
      rdf::TermId min_hash_class = classes.front().first;
      uint64_t min_hash = ~uint64_t{0};
      for (const auto& [cid, count] : classes) {
        const uint64_t h =
            Mix64(Fnv64(st.dict().Get(cid).lexical()) ^ mutation_.seed);
        if (h < min_hash) {
          min_hash = h;
          min_hash_class = cid;
        }
        if (UnitInterval(h) < mutation_.hot_class_fraction) {
          hot.push_back(cid);
        }
      }
      if (hot.empty()) hot.push_back(min_hash_class);
    }

    size_t staged = 0;
    for (uint64_t op = 0; !hot.empty() && staged < budget && op < budget * 4;
         ++op) {
      const uint64_t h = MutHash(mutation_.seed, day, op, 0);
      const rdf::TermId cls =
          hot[MutHash(mutation_.seed, day, op, 1) % hot.size()];
      rdf::TriplePattern members;
      members.p = type_lookup;
      members.o = cls;
      const rdf::TripleSpan span = st.Span(members);
      if (span.empty()) continue;
      const rdf::TermId inst =
          span.data[MutHash(mutation_.seed, day, op, 2) % span.size].s;
      rdf::TriplePattern of_inst;
      of_inst.s = inst;
      const rdf::TripleSpan inst_triples = st.Span(of_inst);
      if (inst_triples.empty()) continue;

      if (UnitInterval(h) < mutation_.add_fraction) {
        // Add: a fresh instance of the hot class, cloned from `inst` as a
        // template (type triple plus every non-type (p, o) of the
        // template).
        PlannedAdd add;
        add.subject_iri = st.dict().Get(cls).lexical() + "/churn-d" +
                          std::to_string(day) + "-k" + std::to_string(op);
        add.po.emplace_back(type_lookup, cls);
        for (const rdf::Triple& t : inst_triples) {
          if (t.p == type_lookup) continue;
          add.po.emplace_back(t.p, t.o);
        }
        staged += add.po.size();
        adds.push_back(std::move(add));
        dirty_classes.insert(cls);
      } else {
        // Retract one triple of the picked instance.
        const rdf::Triple t =
            inst_triples.data[MutHash(mutation_.seed, day, op, 3) %
                              inst_triples.size];
        removes.push_back(t);
        staged += 1;
        bump_classes_of(t.s);
        if (t.p == type_lookup) {
          // Losing a type edge changes the class itself and the property
          // ranges of every class whose instances point at this one.
          dirty_classes.insert(t.o);
          rdf::TriplePattern incoming;
          incoming.o = t.s;
          for (const rdf::Triple& in : st.Span(incoming)) {
            if (in.p == type_lookup) continue;
            bump_classes_of(in.s);
          }
        }
      }
    }
  }

  // ---- Plan phase: structural churn (class births / retires). Runs even
  // with data churn disabled and on an empty store — it models schema
  // evolution, not data volume. All reads still hit the pre-day snapshot.
  bool structural_today = false;
  std::string born_class_iri;
  size_t born_instances = 0;
  if (mutation_.class_birth_probability > 0 &&
      UnitInterval(MutHash(mutation_.seed, day, 0xB117B117ULL, 1)) <
          mutation_.class_birth_probability) {
    born_class_iri = url() + "#class-born-d" + std::to_string(day);
    born_instances = 2 + MutHash(mutation_.seed, day, 0xB117B117ULL, 2) % 3;
    structural_today = true;
  }
  if (mutation_.class_retire_probability > 0 &&
      type_lookup != rdf::kInvalidTermId &&
      UnitInterval(MutHash(mutation_.seed, day, 0x5E71BEULL, 1)) <
          mutation_.class_retire_probability) {
    const auto classes = st.GroupedCountByObject(type_lookup);
    if (!classes.empty()) {
      const rdf::TermId retired =
          classes[MutHash(mutation_.seed, day, 0x5E71BEULL, 2) %
                  classes.size()]
              .first;
      dirty_classes.insert(retired);
      rdf::TriplePattern members;
      members.p = type_lookup;
      members.o = retired;
      std::vector<rdf::TermId> member_ids;
      for (const rdf::Triple& m : st.Span(members)) member_ids.push_back(m.s);
      for (const rdf::TermId member : member_ids) {
        bump_classes_of(member);  // members may carry other types too
        rdf::TriplePattern outgoing;
        outgoing.s = member;
        for (const rdf::Triple& t : st.Span(outgoing)) removes.push_back(t);
        // Incoming edges go too; their subjects' classes see their
        // property ranges change.
        rdf::TriplePattern incoming;
        incoming.o = member;
        for (const rdf::Triple& in : st.Span(incoming)) {
          if (in.p == type_lookup) continue;
          removes.push_back(in);
          bump_classes_of(in.s);
        }
      }
      structural_today = true;
    }
  }

  const bool will_write =
      !removes.empty() || !adds.empty() || born_instances > 0;
  if (!will_write) return;

  // Quiet-structural worlds answer probes from a snapshot taken before the
  // structural change; capture it now, while the store still shows the
  // pre-day state. Honest worlds never populate the snapshot.
  if (mutation_.quiet_structural_changes && structural_today &&
      !have_probe_snapshot_) {
    probe_snapshot_ = TruthfulProbe();
    have_probe_snapshot_ = true;
  }
  const uint64_t gen_before = st.generation();

  // ---- Apply phase: stage all writes, then rebuild exactly once so the
  // store generation moves by one per churning day.
  for (const rdf::Triple& t : removes) st.RemoveIds(t.s, t.p, t.o);
  for (const PlannedAdd& add : adds) {
    const rdf::TermId sid = st.dict().Intern(rdf::Term::Iri(add.subject_iri));
    for (const auto& [p, o] : add.po) st.AddIds(sid, p, o);
  }
  if (born_instances > 0) {
    const rdf::TermId type_id =
        st.dict().Intern(rdf::Term::Iri(rdf::vocab::kRdfType));
    const rdf::TermId cls =
        st.dict().Intern(rdf::Term::Iri(born_class_iri));
    const rdf::TermId prop =
        st.dict().Intern(rdf::Term::Iri(born_class_iri + "/label"));
    for (size_t k = 0; k < born_instances; ++k) {
      const rdf::TermId inst = st.dict().Intern(
          rdf::Term::Iri(born_class_iri + "/inst" + std::to_string(k)));
      const rdf::TermId val = st.dict().Intern(
          rdf::Term::Iri(born_class_iri + "/val" + std::to_string(k)));
      st.AddIds(inst, type_id, cls);
      st.AddIds(inst, prop, val);
    }
    dirty_classes.insert(cls);
  }
  for (const rdf::TermId cid : dirty_classes) {
    const std::string iri = st.dict().Get(cid).lexical();
    auto it = class_versions_.try_emplace(iri, 0).first;
    prev_class_versions_[iri] = it->second;
    ++it->second;
  }
  st.FinalizeIndex();
  prev_generation_ = gen_before;

  // Non-structural mutation days make the world visible again: the
  // endpoint's next probe answers live, revealing whatever the quiet
  // structural changes hid.
  if (mutation_.quiet_structural_changes && !structural_today) {
    have_probe_snapshot_ = false;
  }
}

ChangeProbe SimulatedRemoteEndpoint::TruthfulProbe() const {
  ChangeProbe probe;
  probe.store_generation = store_->generation();
  const rdf::TermId type_id =
      store_->dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
  if (type_id != rdf::kInvalidTermId) {
    for (const auto& [cid, count] : store_->GroupedCountByObject(type_id)) {
      ClassFingerprint f;
      f.class_iri = store_->dict().Get(cid).lexical();
      auto it = class_versions_.find(f.class_iri);
      f.version = it == class_versions_.end() ? 0 : it->second;
      probe.classes.push_back(std::move(f));
    }
    std::sort(probe.classes.begin(), probe.classes.end(),
              [](const ClassFingerprint& a, const ClassFingerprint& b) {
                return a.class_iri < b.class_iri;
              });
  }
  return probe;
}

Result<ChangeProbe> SimulatedRemoteEndpoint::ProbeChanges() {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  const int64_t today = clock_->NowDay();
  if (!availability_.IsUp(today)) {
    return Status::Unavailable("endpoint " + url() + " is down on day " +
                               std::to_string(today));
  }
  // Outage-recovery edge case: a probe arriving before the harness advanced
  // the endpoint's data (e.g. right after an outage window) would answer
  // from the un-churned store and report a generation that spuriously
  // matches the consumer's persisted one. Catch up first — idempotent when
  // the owner already called AdvanceDataDay for today.
  if (last_mutation_day_ < today) AdvanceDataDay(today);

  // Fault coins are salted with a per-day attempt index so a retry or a
  // post-merge validation echo can see a different fate than the first
  // attempt. Honest endpoints never touch the counter (or the mutex), and
  // a frozen adversary (freeze_after_day passed) answers truthfully — the
  // gate is a pure function of the day, so determinism holds either way.
  const bool faults_active =
      probe_faults_.Enabled() && (probe_faults_.freeze_after_day < 0 ||
                                  today <= probe_faults_.freeze_after_day);
  uint64_t attempt = 0;
  if (faults_active) {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    if (probe_attempt_day_ != today) {
      probe_attempt_day_ = today;
      probe_attempts_today_ = 0;
    }
    attempt = probe_attempts_today_++;
  }
  auto coin = [&](uint64_t salt) {
    return UnitInterval(MutHash(probe_faults_.seed, today, attempt, salt));
  };

  if (faults_active && probe_faults_.transient_failure_probability > 0 &&
      coin(1) < probe_faults_.transient_failure_probability) {
    return Status::Timeout("endpoint " + url() +
                           " probe connection dropped on day " +
                           std::to_string(today) + " (attempt " +
                           std::to_string(attempt) + ")");
  }

  ChangeProbe probe =
      (mutation_.quiet_structural_changes && have_probe_snapshot_)
          ? probe_snapshot_
          : TruthfulProbe();

  if (faults_active && probe_faults_.lie_generation_probability > 0 &&
      coin(2) < probe_faults_.lie_generation_probability) {
    // The quiet liar: report the generation from before the last change.
    probe.store_generation = prev_generation_;
  }
  if (faults_active && probe_faults_.lie_fingerprint_probability > 0) {
    for (ClassFingerprint& f : probe.classes) {
      const uint64_t h = MutHash(probe_faults_.seed ^ Fnv64(f.class_iri),
                                 today, attempt, 3);
      if (UnitInterval(h) < probe_faults_.lie_fingerprint_probability) {
        auto it = prev_class_versions_.find(f.class_iri);
        f.version = it == prev_class_versions_.end() ? 0 : it->second;
      }
    }
  }
  if (faults_active && probe_faults_.partial_probability > 0 &&
      !probe.classes.empty() &&
      coin(4) < probe_faults_.partial_probability) {
    // Partial fingerprint set: a per-class keep coin drops a subset. The
    // omission is silent — consumers must not read absence as removal.
    std::vector<ClassFingerprint> kept;
    for (ClassFingerprint& f : probe.classes) {
      const uint64_t h = MutHash(probe_faults_.seed ^ Fnv64(f.class_iri),
                                 today, attempt, 5);
      if (UnitInterval(h) < probe_faults_.partial_keep_fraction) {
        kept.push_back(std::move(f));
      }
    }
    probe.classes = std::move(kept);
  }
  if (faults_active && probe_faults_.truncate_probability > 0 &&
      !probe.classes.empty() &&
      coin(6) < probe_faults_.truncate_probability) {
    probe.classes.resize(MutHash(probe_faults_.seed, today, attempt, 7) %
                         probe.classes.size());
    probe.truncated = true;
  }
  // An honest row cap truncates the fingerprint list like any result set.
  if (dialect_.max_result_rows > 0 &&
      probe.classes.size() > dialect_.max_result_rows) {
    probe.classes.resize(dialect_.max_result_rows);
    probe.truncated = true;
  }
  probe.latency_ms = latency_.Cost(0, probe.classes.size());
  return probe;
}

Result<QueryOutcome> SimulatedRemoteEndpoint::Query(
    const std::string& query_text) {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  if (!availability_.IsUp(clock_->NowDay())) {
    return Status::Unavailable("endpoint " + url() + " is down on day " +
                               std::to_string(clock_->NowDay()));
  }
  // Dialect gate on the resolved AST (a text-tier hit or the one parse of
  // a miss): rejection happens before any planning or execution, as a
  // real server would reject at query planning time, so a rejected text
  // is never planned, cached or counted by the plan cache.
  HBOLD_ASSIGN_OR_RETURN(sparql::ResolvedQuery resolved,
                         local_.Resolve(query_text));
  const sparql::SelectQuery& parsed = resolved.query();
  if (!dialect_.supports_aggregates && parsed.UsesAggregates()) {
    return Status::Unsupported("endpoint " + url() +
                               " does not implement aggregates");
  }
  if (!dialect_.supports_group_by && !parsed.group_by.empty()) {
    return Status::Unsupported("endpoint " + url() +
                               " does not implement GROUP BY");
  }

  // Per-query stats live on this stack frame, so concurrent queries never
  // share them.
  sparql::ExecStats stats;
  HBOLD_ASSIGN_OR_RETURN(QueryOutcome outcome,
                         local_.Execute(std::move(resolved), &stats));

  if (dialect_.work_budget_bindings > 0 &&
      stats.intermediate_bindings > dialect_.work_budget_bindings) {
    return Status::Timeout("endpoint " + url() + " exceeded work budget (" +
                           std::to_string(stats.intermediate_bindings) + " > " +
                           std::to_string(dialect_.work_budget_bindings) + ")");
  }
  if (dialect_.max_result_rows > 0 &&
      outcome.table.num_rows() > dialect_.max_result_rows) {
    outcome.table.Truncate(dialect_.max_result_rows);
    outcome.truncated = true;
  }
  outcome.latency_ms =
      latency_.Cost(stats.intermediate_bindings, outcome.table.num_rows());
  return outcome;
}

}  // namespace hbold::endpoint
