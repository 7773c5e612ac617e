#include "sparql/executor.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "rdf/run_file.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace hbold::sparql {

namespace {

using rdf::kInvalidTermId;
using rdf::Term;
using rdf::TermId;
using rdf::TriplePos;

constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

/// Maps variable names to dense row slots.
class VarRegistry {
 public:
  size_t Intern(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    size_t id = names_.size();
    names_.push_back(name);
    index_.emplace(name, id);
    return id;
  }
  int Lookup(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> index_;
};

using RowIds = std::vector<TermId>;  // slot -> bound term id (0 = unbound)

/// FNV-1a over a TermId vector; key type for the hash-based GROUP BY and
/// DISTINCT machinery (replaces the former ToNTriples-string keys).
struct IdVecHash {
  size_t operator()(const std::vector<TermId>& v) const {
    size_t h = 1469598103934665603ull;
    for (TermId id : v) {
      h ^= static_cast<size_t>(id);
      h *= 1099511628211ull;
    }
    return h;
  }
};

void CollectVars(const GroupGraphPattern& g, VarRegistry* vars);

void CollectExprVars(const Expr& e, VarRegistry* vars) {
  if (e.kind == Expr::Kind::kVar || e.kind == Expr::Kind::kBound) {
    vars->Intern(e.var);
  }
  for (const auto& a : e.args) CollectExprVars(*a, vars);
}

void CollectExprVarNames(const Expr& e, std::set<std::string>* names) {
  if (e.kind == Expr::Kind::kVar || e.kind == Expr::Kind::kBound) {
    names->insert(e.var);
  }
  for (const auto& a : e.args) CollectExprVarNames(*a, names);
}

void CollectVars(const GroupGraphPattern& g, VarRegistry* vars) {
  for (const auto& t : g.triples) {
    if (t.s.is_var) vars->Intern(t.s.var);
    if (t.p.is_var) vars->Intern(t.p.var);
    if (t.o.is_var) vars->Intern(t.o.var);
  }
  for (const auto& f : g.filters) CollectExprVars(*f, vars);
  for (const auto& o : g.optionals) CollectVars(*o, vars);
  for (const auto& u : g.unions) {
    CollectVars(*u.left, vars);
    CollectVars(*u.right, vars);
  }
}

/// Value produced by expression evaluation. Errors propagate and make the
/// enclosing FILTER false (SPARQL error semantics).
struct EvalValue {
  enum class Kind { kTerm, kBool, kError };
  Kind kind = Kind::kError;
  Term term;
  bool b = false;

  static EvalValue Error() { return EvalValue{}; }
  static EvalValue Bool(bool v) {
    EvalValue e;
    e.kind = Kind::kBool;
    e.b = v;
    return e;
  }
  static EvalValue OfTerm(Term t) {
    EvalValue e;
    e.kind = Kind::kTerm;
    e.term = std::move(t);
    return e;
  }
};

bool TryParseNumber(const Term& t, double* out) {
  if (!t.is_literal()) return false;
  const std::string& lex = t.lexical();
  if (lex.empty()) return false;
  // strtod also accepts "inf"/"nan", hex floats and leading whitespace;
  // none of those are numeric literals in SPARQL, and letting them through
  // silently reorders ORDER BY results. Accept only plain decimal forms:
  // [+-]? digits [. digits] [eE [+-] digits].
  size_t i = 0;
  if (lex[i] == '+' || lex[i] == '-') ++i;
  size_t digits = 0;
  auto is_digit = [&](size_t k) {
    return k < lex.size() &&
           std::isdigit(static_cast<unsigned char>(lex[k])) != 0;
  };
  while (is_digit(i)) {
    ++i;
    ++digits;
  }
  if (i < lex.size() && lex[i] == '.') {
    ++i;
    while (is_digit(i)) {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) return false;
  if (i < lex.size() && (lex[i] == 'e' || lex[i] == 'E')) {
    ++i;
    if (i < lex.size() && (lex[i] == '+' || lex[i] == '-')) ++i;
    size_t exp_digits = 0;
    while (is_digit(i)) {
      ++i;
      ++exp_digits;
    }
    if (exp_digits == 0) return false;
  }
  if (i != lex.size()) return false;
  char* end = nullptr;
  double v = std::strtod(lex.c_str(), &end);
  if (end != lex.c_str() + lex.size()) return false;
  *out = v;
  return true;
}

/// Effective boolean value; returns kError-signalling nullopt on non-boolean
/// non-coercible values.
std::optional<bool> Ebv(const EvalValue& v) {
  switch (v.kind) {
    case EvalValue::Kind::kBool:
      return v.b;
    case EvalValue::Kind::kTerm: {
      const Term& t = v.term;
      if (t.is_literal()) {
        if (t.lexical() == "true") return true;
        if (t.lexical() == "false") return false;
        double d;
        if (TryParseNumber(t, &d)) return d != 0;
        return !t.lexical().empty();
      }
      return std::nullopt;
    }
    case EvalValue::Kind::kError:
      return std::nullopt;
  }
  return std::nullopt;
}

// ------------------------------------------------------------ slow path

/// Group pattern -> its slot in a QueryPlan, in ForEachGroup order. Built
/// once per execution so nested groups find their (possibly cached) plans.
using GroupPlanMap =
    std::unordered_map<const GroupGraphPattern*, const GroupPlan*>;

GroupPlanMap BuildGroupPlanMap(const SelectQuery& q, const QueryPlan& plan) {
  GroupPlanMap map;
  size_t idx = 0;
  ForEachGroup(q.where, [&](const GroupGraphPattern& g) {
    if (idx < plan.groups.size()) map.emplace(&g, &plan.groups[idx]);
    ++idx;
  });
  return map;
}

class GroupEvaluator {
 public:
  GroupEvaluator(const rdf::TripleStore* store, VarRegistry* vars,
                 ExecStats* stats, const ExecOptions& options,
                 const GroupPlanMap* plan_map)
      : store_(store),
        vars_(vars),
        stats_(stats),
        options_(options),
        plan_map_(plan_map) {}

  /// Joins `input` rows with the solutions of `group`. `row_cap` stops the
  /// BGP join loop early; the caller only passes a finite cap when no later
  /// stage (filters here, modifiers outside) could change the first
  /// `row_cap` rows.
  std::vector<RowIds> Eval(const GroupGraphPattern& group,
                           std::vector<RowIds> input, size_t row_cap = kNoCap) {
    std::vector<bool> filter_done(group.filters.size(), false);
    std::vector<RowIds> rows =
        EvalTriples(group, std::move(input), row_cap, &filter_done);
    for (const auto& u : group.unions) {
      std::vector<RowIds> left = Eval(*u.left, rows);
      std::vector<RowIds> right = Eval(*u.right, rows);
      rows = std::move(left);
      rows.insert(rows.end(), right.begin(), right.end());
    }
    for (const auto& opt : group.optionals) {
      std::vector<RowIds> joined;
      for (const RowIds& row : rows) {
        std::vector<RowIds> ext = Eval(*opt, {row});
        if (ext.empty()) {
          joined.push_back(row);
        } else {
          joined.insert(joined.end(), ext.begin(), ext.end());
        }
      }
      rows = std::move(joined);
    }
    for (size_t fi = 0; fi < group.filters.size(); ++fi) {
      if (filter_done[fi]) continue;
      rows = FilterRows(*group.filters[fi], std::move(rows));
    }
    return rows;
  }

  EvalValue EvalExpr(const Expr& e, const RowIds& row) const {
    switch (e.kind) {
      case Expr::Kind::kVar: {
        int slot = vars_->Lookup(e.var);
        if (slot < 0 || row[static_cast<size_t>(slot)] == kInvalidTermId) {
          return EvalValue::Error();
        }
        return EvalValue::OfTerm(
            store_->dict().Get(row[static_cast<size_t>(slot)]));
      }
      case Expr::Kind::kLiteral:
        return EvalValue::OfTerm(e.literal);
      case Expr::Kind::kBound: {
        int slot = vars_->Lookup(e.var);
        return EvalValue::Bool(slot >= 0 &&
                               row[static_cast<size_t>(slot)] !=
                                   kInvalidTermId);
      }
      case Expr::Kind::kNot: {
        std::optional<bool> v = Ebv(EvalExpr(*e.args[0], row));
        if (!v.has_value()) return EvalValue::Error();
        return EvalValue::Bool(!*v);
      }
      case Expr::Kind::kAnd: {
        std::optional<bool> a = Ebv(EvalExpr(*e.args[0], row));
        std::optional<bool> b = Ebv(EvalExpr(*e.args[1], row));
        // SPARQL three-valued logic: false && error == false.
        if (a.has_value() && !*a) return EvalValue::Bool(false);
        if (b.has_value() && !*b) return EvalValue::Bool(false);
        if (!a.has_value() || !b.has_value()) return EvalValue::Error();
        return EvalValue::Bool(true);
      }
      case Expr::Kind::kOr: {
        std::optional<bool> a = Ebv(EvalExpr(*e.args[0], row));
        std::optional<bool> b = Ebv(EvalExpr(*e.args[1], row));
        if (a.has_value() && *a) return EvalValue::Bool(true);
        if (b.has_value() && *b) return EvalValue::Bool(true);
        if (!a.has_value() || !b.has_value()) return EvalValue::Error();
        return EvalValue::Bool(false);
      }
      case Expr::Kind::kCompare: {
        EvalValue a = EvalExpr(*e.args[0], row);
        EvalValue b = EvalExpr(*e.args[1], row);
        if (a.kind != EvalValue::Kind::kTerm ||
            b.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        int cmp;
        double da, db;
        if (TryParseNumber(a.term, &da) && TryParseNumber(b.term, &db)) {
          cmp = da < db ? -1 : (da > db ? 1 : 0);
        } else {
          const std::string& sa = a.term.lexical();
          const std::string& sb = b.term.lexical();
          cmp = sa < sb ? -1 : (sa > sb ? 1 : 0);
        }
        switch (e.op) {
          case Expr::CmpOp::kEq:
            // Term equality also considers kind (IRI vs literal).
            if (cmp == 0 && a.term.kind() != b.term.kind()) {
              return EvalValue::Bool(false);
            }
            return EvalValue::Bool(cmp == 0);
          case Expr::CmpOp::kNe:
            if (cmp == 0 && a.term.kind() != b.term.kind()) {
              return EvalValue::Bool(true);
            }
            return EvalValue::Bool(cmp != 0);
          case Expr::CmpOp::kLt:
            return EvalValue::Bool(cmp < 0);
          case Expr::CmpOp::kGt:
            return EvalValue::Bool(cmp > 0);
          case Expr::CmpOp::kLe:
            return EvalValue::Bool(cmp <= 0);
          case Expr::CmpOp::kGe:
            return EvalValue::Bool(cmp >= 0);
        }
        return EvalValue::Error();
      }
      case Expr::Kind::kStr: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::OfTerm(Term::Literal(a.term.lexical()));
      }
      case Expr::Kind::kLcase: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::OfTerm(Term::Literal(ToLower(a.term.lexical())));
      }
      case Expr::Kind::kIsIri: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::Bool(a.term.is_iri());
      }
      case Expr::Kind::kIsLiteral: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::Bool(a.term.is_literal());
      }
      case Expr::Kind::kContains: {
        EvalValue a = EvalExpr(*e.args[0], row);
        EvalValue b = EvalExpr(*e.args[1], row);
        if (a.kind != EvalValue::Kind::kTerm ||
            b.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        return EvalValue::Bool(a.term.lexical().find(b.term.lexical()) !=
                               std::string::npos);
      }
      case Expr::Kind::kRegex: {
        // Lenient REGEX: the text argument is coerced with STR() semantics
        // so IRIs match too — the paper's Listing 1 applies
        // regex(?url, 'sparql') where ?url may be an IRI-valued accessURL.
        EvalValue text = EvalExpr(*e.args[0], row);
        EvalValue pattern = EvalExpr(*e.args[1], row);
        if (text.kind != EvalValue::Kind::kTerm ||
            pattern.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        // LitePatternMatch instead of std::regex: FILTER runs once per
        // candidate row, and compiling a std::regex NFA per evaluation
        // dominated query time. Patterns outside the supported subset
        // (groups, braces, ...) evaluate to an error — the row is
        // filtered out, as with a malformed regex before — rather than
        // silently matching metacharacters literally.
        if (!LitePatternSupported(pattern.term.lexical())) {
          return EvalValue::Error();
        }
        bool icase = false;
        if (e.args.size() > 2) {
          EvalValue f = EvalExpr(*e.args[2], row);
          icase = f.kind == EvalValue::Kind::kTerm &&
                  f.term.lexical().find('i') != std::string::npos;
        }
        return EvalValue::Bool(LitePatternMatch(
            text.term.lexical(), pattern.term.lexical(), icase));
      }
    }
    return EvalValue::Error();
  }

 private:
  /// Evaluates the BGP in PlanOrder's statistics-based order. A FILTER is
  /// pushed into the loop as soon as every variable it mentions has been
  /// bound by an evaluated pattern (pushed filters are marked in
  /// `filter_done`); since later patterns, unions and optionals never
  /// rebind a bound slot, early evaluation is equivalent to the end-of-
  /// group evaluation and only prunes rows sooner.
  std::vector<RowIds> EvalTriples(const GroupGraphPattern& group,
                                  std::vector<RowIds> input, size_t row_cap,
                                  std::vector<bool>* filter_done) {
    const std::vector<TriplePatternNode>& triples = group.triples;
    if (triples.empty()) return input;
    // The plan and the filters' variable sets depend only on the group, not
    // on row values — cache them so OPTIONAL groups (re-evaluated once per
    // outer row) pay the planning probes once. Top-level plans typically
    // arrive precomputed (and possibly plan-cache-served) via plan_map_.
    const ExecGroupPlan& plan = PlanFor(group);
    const std::vector<size_t>& order = plan.plan->order;
    const std::vector<std::set<std::string>>& filter_vars = plan.filter_vars;

    std::set<std::string> bound;  // variable names bound so far
    std::vector<RowIds> rows = std::move(input);
    for (size_t k = 0; k < order.size(); ++k) {
      const TriplePatternNode& pat = triples[order[k]];
      const bool last = k + 1 == order.size();
      const size_t cap = last ? row_cap : kNoCap;
      if (plan.plan->ops[k] == JoinOp::kHashJoin) {
        rows = HashExtendRows(pat, std::move(rows), cap);
      } else {
        rows = ExtendRows(pat, std::move(rows), cap);
      }
      if (pat.s.is_var) bound.insert(pat.s.var);
      if (pat.p.is_var) bound.insert(pat.p.var);
      if (pat.o.is_var) bound.insert(pat.o.var);
      if (options_.filter_pushdown) {
        for (size_t fi = 0; fi < group.filters.size(); ++fi) {
          if ((*filter_done)[fi]) continue;
          if (!std::includes(bound.begin(), bound.end(),
                             filter_vars[fi].begin(), filter_vars[fi].end())) {
            continue;
          }
          rows = FilterRows(*group.filters[fi], std::move(rows));
          (*filter_done)[fi] = true;
        }
      }
      if (rows.empty()) break;
    }
    return rows;
  }

  /// Cached per-group planning artifacts: the physical plan (shared from
  /// plan_map_ when present, else computed and owned here) plus the filter
  /// variable sets (always execution-local: they are variable *names*, so
  /// a cross-query cached plan — valid for any alpha-renaming — cannot
  /// carry them).
  struct ExecGroupPlan {
    const GroupPlan* plan = nullptr;
    GroupPlan owned;
    std::vector<std::set<std::string>> filter_vars;
  };

  const ExecGroupPlan& PlanFor(const GroupGraphPattern& group) {
    auto it = plans_.find(&group);
    if (it != plans_.end()) return it->second;
    ExecGroupPlan plan;
    const GroupPlan* shared = nullptr;
    if (plan_map_ != nullptr) {
      auto pit = plan_map_->find(&group);
      if (pit != plan_map_->end()) shared = pit->second;
    }
    const bool use_shared =
        shared != nullptr && shared->order.size() == group.triples.size();
    if (use_shared) {
      plan.plan = shared;
    } else {
      plan.owned = PlanGroup(group, options_, store_);
    }
    if (options_.filter_pushdown) {
      plan.filter_vars.resize(group.filters.size());
      for (size_t fi = 0; fi < group.filters.size(); ++fi) {
        CollectExprVarNames(*group.filters[fi], &plan.filter_vars[fi]);
      }
    }
    ExecGroupPlan& stored = plans_.emplace(&group, std::move(plan)).first->second;
    if (!use_shared) stored.plan = &stored.owned;
    return stored;
  }

  std::vector<RowIds> FilterRows(const Expr& f, std::vector<RowIds> rows) {
    std::vector<RowIds> kept;
    kept.reserve(rows.size());
    for (const RowIds& row : rows) {
      std::optional<bool> v = Ebv(EvalExpr(f, row));
      if (v.has_value() && *v) kept.push_back(row);
    }
    return kept;
  }

  std::vector<RowIds> ExtendRows(const TriplePatternNode& pat,
                                 std::vector<RowIds> rows, size_t cap) {
    std::vector<RowIds> out;
    const rdf::Dictionary& dict = store_->dict();

    // Pre-resolve constant term ids; a constant not present in the
    // dictionary can never match.
    TermId const_s = kInvalidTermId, const_p = kInvalidTermId,
           const_o = kInvalidTermId;
    if (!pat.s.is_var) {
      const_s = dict.Lookup(pat.s.term);
      if (const_s == kInvalidTermId) return out;
    }
    if (!pat.p.is_var) {
      const_p = dict.Lookup(pat.p.term);
      if (const_p == kInvalidTermId) return out;
    }
    if (!pat.o.is_var) {
      const_o = dict.Lookup(pat.o.term);
      if (const_o == kInvalidTermId) return out;
    }
    int slot_s = pat.s.is_var ? vars_->Lookup(pat.s.var) : -1;
    int slot_p = pat.p.is_var ? vars_->Lookup(pat.p.var) : -1;
    int slot_o = pat.o.is_var ? vars_->Lookup(pat.o.var) : -1;

    for (const RowIds& row : rows) {
      if (out.size() >= cap) break;
      rdf::TriplePattern q;
      q.s = pat.s.is_var ? row[static_cast<size_t>(slot_s)] : const_s;
      q.p = pat.p.is_var ? row[static_cast<size_t>(slot_p)] : const_p;
      q.o = pat.o.is_var ? row[static_cast<size_t>(slot_o)] : const_o;
      store_->Match(q, [&](const rdf::Triple& t) {
        RowIds next = row;
        // Shared-variable consistency within a single pattern, e.g.
        // ?x ?p ?x — enforce equal bindings.
        bool consistent = true;
        auto bind = [&](int slot, TermId value) {
          if (slot < 0) return;
          TermId& cell = next[static_cast<size_t>(slot)];
          if (cell == kInvalidTermId) {
            cell = value;
          } else if (cell != value) {
            consistent = false;
          }
        };
        bind(slot_s, t.s);
        bind(slot_p, t.p);
        bind(slot_o, t.o);
        if (consistent) {
          if (stats_ != nullptr) ++stats_->intermediate_bindings;
          out.push_back(std::move(next));
        }
        return out.size() < cap;
      });
    }
    return out;
  }

  /// Order-preserving hash join: builds a hash table over the contiguous
  /// index slice matching the pattern's constants, grouped by the join key
  /// (the pattern's row-bound variable slots) with each bucket sorted to
  /// the exact iteration order the nested index-loop's Match would have
  /// used, then probes with the input rows in order. Output rows, their
  /// order, and the charged intermediate_bindings are therefore
  /// bit-identical to ExtendRows — the operator choice is purely physical.
  ///
  /// Falls back to ExtendRows when the step is not actually hash-shaped at
  /// runtime: repeated variables in the pattern, no bound join variable,
  /// or rows with heterogeneous boundness (OPTIONAL/UNION residue).
  struct HashBuild;  // defined below (after the join methods)

  std::vector<RowIds> HashExtendRows(const TriplePatternNode& pat,
                                     std::vector<RowIds> rows, size_t cap) {
    if (rows.empty()) return rows;
    const rdf::Dictionary& dict = store_->dict();
    const int slot_s = pat.s.is_var ? vars_->Lookup(pat.s.var) : -1;
    const int slot_p = pat.p.is_var ? vars_->Lookup(pat.p.var) : -1;
    const int slot_o = pat.o.is_var ? vars_->Lookup(pat.o.var) : -1;
    if ((slot_s >= 0 && (slot_s == slot_p || slot_s == slot_o)) ||
        (slot_p >= 0 && slot_p == slot_o)) {
      return ExtendRows(pat, std::move(rows), cap);
    }
    auto bound_at = [](const RowIds& row, int slot) {
      return slot >= 0 && row[static_cast<size_t>(slot)] != kInvalidTermId;
    };
    const bool key_s = bound_at(rows[0], slot_s);
    const bool key_p = bound_at(rows[0], slot_p);
    const bool key_o = bound_at(rows[0], slot_o);
    if (!key_s && !key_p && !key_o) {
      return ExtendRows(pat, std::move(rows), cap);
    }
    for (const RowIds& row : rows) {
      if (bound_at(row, slot_s) != key_s || bound_at(row, slot_p) != key_p ||
          bound_at(row, slot_o) != key_o) {
        return ExtendRows(pat, std::move(rows), cap);
      }
    }

    PatternConsts consts = ResolveConsts(pat, dict);
    if (consts.missing) return {};

    // The build depends only on the pattern's resolved constants and the
    // key-slot mask — not on row values and not on variable names (a
    // constant slot is exactly a slot with a valid term id, so the consts
    // triple pins the var/const shape too). Keying on those values rather
    // than pattern identity means two different steps probing the same
    // constant span with the same key shape — `?a p ?b . ?c p ?d`-style
    // repeated predicates, or the same pattern in both UNION branches —
    // share one build, on top of the original win (OPTIONAL groups
    // re-evaluate once per outer row without re-sorting the span).
    const int mask = (key_s ? 1 : 0) | (key_p ? 2 : 0) | (key_o ? 4 : 0);
    auto build_key = std::make_tuple(consts.s, consts.p, consts.o, mask);
    // Probe-side boundness (constants + key variables) decides which
    // index the nested loop would have walked; bucket order must
    // replicate its iteration order.
    const bool bs = !pat.s.is_var || key_s;
    const bool bp = !pat.p.is_var || key_p;
    auto probe_tuple = [&](const rdf::Triple& t) {
      if (bs) return std::tuple<TermId, TermId, TermId>(t.s, t.p, t.o);
      if (bp) return std::tuple<TermId, TermId, TermId>(t.p, t.o, t.s);
      return std::tuple<TermId, TermId, TermId>(t.o, t.s, t.p);
    };
    auto key_of = [&](const rdf::Triple& t) {
      return std::tuple<TermId, TermId, TermId>(key_s ? t.s : kInvalidTermId,
                                                key_p ? t.p : kInvalidTermId,
                                                key_o ? t.o : kInvalidTermId);
    };
    auto bit = hash_builds_.find(build_key);
    if (bit != hash_builds_.end() && stats_ != nullptr) {
      ++stats_->hash_join_build_reuses;
    }
    if (bit == hash_builds_.end()) {
      // Build side: the contiguous slice matching the constants alone,
      // sorted by (join key, probe iteration order) — the comparator is
      // shared by the in-RAM and spilled representations, which is what
      // makes the spill bit-identical.
      rdf::TriplePattern build_pat;
      build_pat.s = consts.s;
      build_pat.p = consts.p;
      build_pat.o = consts.o;
      rdf::TripleSpan span = store_->Span(build_pat);
      auto build_less = [&](const rdf::Triple& a, const rdf::Triple& b) {
        auto ka = key_of(a);
        auto kb = key_of(b);
        if (ka != kb) return ka < kb;
        return probe_tuple(a) < probe_tuple(b);
      };
      const size_t budget = options_.hash_join_spill_budget_bytes;
      if (budget > 0 && span.size * sizeof(rdf::Triple) > budget) {
        HashBuild fresh;
        Status st = SpillBuildToRun(span, build_less, budget, &fresh);
        if (st.ok()) {
          fresh.on_disk = true;
          if (stats_ != nullptr) {
            ++stats_->hash_join_builds;
            ++stats_->hash_join_spills;
          }
          bit = hash_builds_.emplace(build_key, std::move(fresh)).first;
        } else {
          HBOLD_LOG(kWarn) << "hash-join spill failed, building in RAM: "
                           << st.message();
        }
      }
      if (bit == hash_builds_.end()) {
        HashBuild fresh;
        fresh.triples.assign(span.begin(), span.end());
        std::sort(fresh.triples.begin(), fresh.triples.end(), build_less);
        fresh.buckets.reserve(fresh.triples.size());
        size_t i = 0;
        while (i < fresh.triples.size()) {
          auto k = key_of(fresh.triples[i]);
          size_t j = i + 1;
          while (j < fresh.triples.size() && key_of(fresh.triples[j]) == k) {
            ++j;
          }
          fresh.buckets.emplace(
              std::vector<TermId>{std::get<0>(k), std::get<1>(k),
                                  std::get<2>(k)},
              std::make_pair(i, j));
          i = j;
        }
        if (stats_ != nullptr) ++stats_->hash_join_builds;
        bit = hash_builds_.emplace(build_key, std::move(fresh)).first;
      }
    }

    auto emit = [&](const RowIds& row, const rdf::Triple& t,
                    std::vector<RowIds>* out) {
      RowIds next = row;
      if (slot_s >= 0 && !key_s) next[static_cast<size_t>(slot_s)] = t.s;
      if (slot_p >= 0 && !key_p) next[static_cast<size_t>(slot_p)] = t.p;
      if (slot_o >= 0 && !key_o) next[static_cast<size_t>(slot_o)] = t.o;
      if (stats_ != nullptr) ++stats_->intermediate_bindings;
      out->push_back(std::move(next));
    };

    std::vector<RowIds> out;
    if (bit->second.on_disk) {
      // Spilled build: the run holds the same triples in the same
      // (key, probe order) sort; each bucket is found by binary search
      // over the mapping instead of a hash lookup.
      const rdf::TripleSpan build = bit->second.spilled.view();
      using Key = std::tuple<TermId, TermId, TermId>;
      for (const RowIds& row : rows) {
        if (out.size() >= cap) break;
        const Key k(key_s ? row[static_cast<size_t>(slot_s)] : kInvalidTermId,
                    key_p ? row[static_cast<size_t>(slot_p)] : kInvalidTermId,
                    key_o ? row[static_cast<size_t>(slot_o)] : kInvalidTermId);
        const rdf::Triple* lo = std::lower_bound(
            build.begin(), build.end(), k,
            [&](const rdf::Triple& t, const Key& v) { return key_of(t) < v; });
        const rdf::Triple* hi = std::upper_bound(
            lo, build.end(), k,
            [&](const Key& v, const rdf::Triple& t) { return v < key_of(t); });
        for (const rdf::Triple* t = lo; t != hi && out.size() < cap; ++t) {
          emit(row, *t, &out);
        }
      }
      return out;
    }

    const std::vector<rdf::Triple>& build = bit->second.triples;
    const auto& buckets = bit->second.buckets;
    std::vector<TermId> probe_key(3);
    for (const RowIds& row : rows) {
      if (out.size() >= cap) break;
      probe_key[0] = key_s ? row[static_cast<size_t>(slot_s)] : kInvalidTermId;
      probe_key[1] = key_p ? row[static_cast<size_t>(slot_p)] : kInvalidTermId;
      probe_key[2] = key_o ? row[static_cast<size_t>(slot_o)] : kInvalidTermId;
      auto it = buckets.find(probe_key);
      if (it == buckets.end()) continue;
      for (size_t b = it->second.first;
           b < it->second.second && out.size() < cap; ++b) {
        emit(row, build[b], &out);
      }
    }
    return out;
  }

  /// Externally sorts a too-large build span into a temporary run file
  /// under the system temp directory and maps it into `out->spilled`. The
  /// scratch directory (and the run file itself) are unlinked immediately —
  /// the mapping keeps the data alive for the lifetime of the build, and
  /// nothing leaks if the process dies.
  Status SpillBuildToRun(
      rdf::TripleSpan span,
      const std::function<bool(const rdf::Triple&, const rdf::Triple&)>& less,
      size_t budget, HashBuild* out) {
    namespace fs = std::filesystem;
    static std::atomic<uint64_t> counter{0};
    std::error_code ec;
    const fs::path dir =
        fs::temp_directory_path(ec) /
        ("hbold-spill-" + std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)));
    if (ec) return Status::IOError("no temp directory: " + ec.message());
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create '" + dir.string() +
                             "': " + ec.message());
    }
    Status st = rdf::ExternalSortToRunBy(span, less, budget, dir.string(),
                                         (dir / "build.run").string(),
                                         &out->spilled);
    fs::remove_all(dir, ec);  // mapping survives the unlink
    return st;
  }

  /// One hash-join build: the constant-matched span, key-grouped and
  /// bucket-sorted to the probe order. In RAM it is a triple vector plus
  /// key -> [begin, end) buckets; past the spill budget it is the same
  /// sorted sequence as a memory-mapped temporary run (`on_disk`), probed
  /// by binary search.
  struct HashBuild {
    std::vector<rdf::Triple> triples;
    std::unordered_map<std::vector<TermId>, std::pair<size_t, size_t>,
                       IdVecHash>
        buckets;
    rdf::MappedTripleRun spilled;
    bool on_disk = false;
  };

  const rdf::TripleStore* store_;
  VarRegistry* vars_;
  ExecStats* stats_;
  ExecOptions options_;
  const GroupPlanMap* plan_map_;
  std::unordered_map<const GroupGraphPattern*, ExecGroupPlan> plans_;
  /// Hash-join builds cached per (resolved constants, key mask) for this
  /// execution — OPTIONAL re-evaluations and distinct steps probing the
  /// same constant span with the same key shape reuse one build.
  std::map<std::tuple<TermId, TermId, TermId, int>, HashBuild> hash_builds_;
};

// ------------------------------------------------------- result modifiers

/// ORDER BY via decorate-sort-undecorate: numeric keys are parsed once per
/// row instead of on every comparison. Ordering semantics: unbound cells
/// first, numeric comparison when both keys parse as numbers and differ,
/// lexical comparison otherwise.
void ApplyOrderBy(const SelectQuery& q, ResultTable* table) {
  if (q.order_by.empty()) return;
  struct SortKey {
    bool present = false;
    bool numeric = false;
    double num = 0;
    const std::string* lex = nullptr;
  };
  std::vector<std::pair<int, bool>> cols;
  for (const auto& [var, asc] : q.order_by) {
    cols.emplace_back(table->ColumnIndex(var), asc);
  }
  const std::vector<ResultTable::Row>& rows = table->rows();
  std::vector<std::vector<SortKey>> keys(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    keys[r].resize(cols.size());
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k].first < 0) continue;
      const std::optional<Term>& cell =
          rows[r][static_cast<size_t>(cols[k].first)];
      SortKey& key = keys[r][k];
      if (!cell.has_value()) continue;
      key.present = true;
      key.lex = &cell->lexical();
      key.numeric = TryParseNumber(*cell, &key.num);
    }
  }
  // Strict weak ordering over mixed columns: unbound first, then numeric
  // keys (by value, lexical tiebreak), then non-numeric keys lexically. A
  // same-tier-only numeric comparison would form cycles like
  // "2" < "10" < "1z" < "2" — undefined behavior under std::stable_sort.
  auto key_less = [](const SortKey& a, const SortKey& b) {
    if (!a.present || !b.present) return b.present;
    if (a.numeric != b.numeric) return a.numeric;
    if (a.numeric && a.num != b.num) return a.num < b.num;
    return *a.lex < *b.lex;
  };
  std::vector<size_t> idx(rows.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](size_t i, size_t j) {
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k].first < 0) continue;
      const SortKey& a = keys[i][k];
      const SortKey& b = keys[j][k];
      if (key_less(a, b)) return cols[k].second;
      if (key_less(b, a)) return !cols[k].second;
    }
    return false;
  });
  ResultTable reordered(table->columns());
  for (size_t i : idx) reordered.AddRow(rows[i]);
  *table = std::move(reordered);
}

void ApplySlice(const SelectQuery& q, ResultTable* table) {
  if (!q.offset.has_value() && !q.limit.has_value()) return;
  size_t off = q.offset.value_or(0);
  size_t lim = q.limit.value_or(table->num_rows());
  ResultTable sliced(table->columns());
  for (size_t i = off; i < table->num_rows() && i < off + lim; ++i) {
    sliced.AddRow(table->rows()[i]);
  }
  *table = std::move(sliced);
}

/// DISTINCT over rows that may contain computed terms (aggregate output)
/// not backed by the dictionary, so keyed by serialized cells.
void ApplyTermDistinct(ResultTable* table) {
  std::set<std::string> seen;
  ResultTable deduped(table->columns());
  for (const auto& row : table->rows()) {
    std::string key;
    for (const auto& cell : row) {
      key += cell.has_value() ? cell->ToNTriples() : "~";
      key += '\x1f';
    }
    if (seen.insert(std::move(key)).second) {
      deduped.AddRow(row);
    }
  }
  *table = std::move(deduped);
}

// -------------------------------------------- aggregate-pushdown fast path

/// How one COUNT aggregate is computed by the fast path.
enum class AggMode {
  kCountRows,       // equals the group's row count (COUNT(*), COUNT of an
                    // always-bound var, or DISTINCT of the sole non-key var)
  kOne,             // COUNT(DISTINCT ?v) where ?v is a group key
  kDistinctSet,     // COUNT(DISTINCT ?v): per-group id set filled in-walk
  kDistinctGlobal,  // COUNT(DISTINCT ?v), no GROUP BY: CountDistinct()
};

/// Per-group accumulator for the walking branches.
struct GroupAcc {
  size_t count = 0;
  std::vector<std::unordered_set<TermId>> sets;  // one per kDistinctSet agg
};

using GroupMap = std::unordered_map<std::vector<TermId>, GroupAcc, IdVecHash>;

TermId IdAt(const rdf::Triple& t, TriplePos pos) {
  return pos == TriplePos::kS ? t.s : (pos == TriplePos::kP ? t.p : t.o);
}

void Charge(ExecStats* stats, size_t bindings) {
  if (stats == nullptr) return;
  stats->intermediate_bindings += bindings;
  stats->rows_avoided += bindings;
}

/// Recognizes the count-query family (COUNT / COUNT(DISTINCT) / grouped
/// counts over a single pattern or an anchor join `?x <p> <o> . ?x ?p ?o`)
/// and answers it with the store's index-arithmetic primitives. Returns
/// nullopt when the query is outside the family — the caller then runs the
/// materializing path. Result tables and charged intermediate_bindings are
/// bit-identical with that path by construction.
std::optional<ResultTable> TryAggregatePushdown(
    const SelectQuery& q, const rdf::TripleStore* store,
    const std::vector<size_t>& plan_order, ExecStats* stats) {
  const GroupGraphPattern& where = q.where;
  if (q.form != QueryForm::kSelect || q.select_all) return std::nullopt;
  if (q.aggregates.empty()) return std::nullopt;
  if (!where.filters.empty() || !where.optionals.empty() ||
      !where.unions.empty()) {
    return std::nullopt;
  }
  const std::vector<TriplePatternNode>& triples = where.triples;
  if (triples.empty() || triples.size() > 2) return std::nullopt;

  // Map variables to (pattern, position). The only legal repeated variable
  // is the shared subject of the two-pattern anchor join; any other repeat
  // (e.g. `?x ?p ?x`) has consistency semantics the fast path skips.
  struct VarPos {
    size_t pattern;
    TriplePos pos;
  };
  std::unordered_map<std::string, VarPos> var_at;
  std::string shared_subject;
  for (size_t pi = 0; pi < triples.size(); ++pi) {
    const TriplePatternNode& t = triples[pi];
    const TermOrVar* slots[3] = {&t.s, &t.p, &t.o};
    const TriplePos poses[3] = {TriplePos::kS, TriplePos::kP, TriplePos::kO};
    for (int k = 0; k < 3; ++k) {
      if (!slots[k]->is_var) continue;
      auto [it, fresh] = var_at.emplace(slots[k]->var, VarPos{pi, poses[k]});
      if (fresh) continue;
      const bool subject_share = triples.size() == 2 && pi == 1 &&
                                 poses[k] == TriplePos::kS &&
                                 it->second.pattern == 0 &&
                                 it->second.pos == TriplePos::kS;
      if (!subject_share) return std::nullopt;
      shared_subject = slots[k]->var;
    }
  }
  if (triples.size() == 2 && shared_subject.empty()) {
    return std::nullopt;  // cartesian product of two patterns
  }

  // Key and projection checks: every GROUP BY var must be a pattern var and
  // every projected plain var must be a group key (the materializing path
  // projects the group's first row, which for key vars is the key itself).
  for (const std::string& g : q.group_by) {
    if (var_at.find(g) == var_at.end()) return std::nullopt;
  }
  for (const std::string& v : q.vars) {
    if (std::find(q.group_by.begin(), q.group_by.end(), v) ==
        q.group_by.end()) {
      return std::nullopt;
    }
  }

  // Variables not in the group key: group rows are distinct tuples over
  // these, so a DISTINCT count of the *sole* non-key var equals the row
  // count (pattern constants are fixed, triples are unique).
  std::set<std::string> nonkey;
  for (const auto& [name, at] : var_at) {
    if (std::find(q.group_by.begin(), q.group_by.end(), name) ==
        q.group_by.end()) {
      nonkey.insert(name);
    }
  }

  std::vector<AggMode> modes;
  std::vector<size_t> set_index(q.aggregates.size(), 0);
  size_t num_sets = 0;
  for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
    const Aggregate& a = q.aggregates[ai];
    if (!a.var.has_value()) {
      // COUNT(*): group rows are distinct binding tuples, so DISTINCT
      // changes nothing.
      modes.push_back(AggMode::kCountRows);
      continue;
    }
    if (var_at.find(*a.var) == var_at.end()) return std::nullopt;
    if (!a.distinct) {
      // Pattern vars are bound in every row.
      modes.push_back(AggMode::kCountRows);
      continue;
    }
    const bool is_key = std::find(q.group_by.begin(), q.group_by.end(),
                                  *a.var) != q.group_by.end();
    if (is_key) {
      modes.push_back(AggMode::kOne);
    } else if (nonkey.size() == 1 && *nonkey.begin() == *a.var) {
      modes.push_back(AggMode::kCountRows);
    } else if (q.group_by.empty() && triples.size() == 1) {
      modes.push_back(AggMode::kDistinctGlobal);
    } else {
      modes.push_back(AggMode::kDistinctSet);
      set_index[ai] = num_sets++;
    }
  }

  // The fast path must charge intermediate_bindings exactly the way the
  // materializing path would, so it follows the shared planner's join
  // order: either the anchor (`?x <p> <o>`) drives and the open pattern is
  // range-scanned per subject, or — when the open pattern is the more
  // selective side — it drives and the anchor becomes a binary-search 0/1
  // membership probe per row.
  const std::vector<size_t>& order = plan_order;
  const TriplePatternNode* first = &triples[order[0]];
  const TriplePatternNode* second =
      triples.size() == 2 ? &triples[order[1]] : nullptr;
  auto is_anchor = [](const TriplePatternNode* t) {
    return t->s.is_var && !t->p.is_var && !t->o.is_var;
  };
  if (second != nullptr && !is_anchor(first) && !is_anchor(second)) {
    return std::nullopt;  // no selective anchor on either side
  }

  const rdf::Dictionary& dict = store->dict();
  std::vector<std::string> columns = q.vars;
  for (const Aggregate& a : q.aggregates) columns.push_back(a.as);
  ResultTable table(columns);
  if (stats != nullptr) ++stats->fast_path_hits;

  // Builds one output row from a group key and its accumulator, matching
  // the materializing path's projection (key vars from the key, counts as
  // integer literals).
  auto emit_row = [&](const std::vector<TermId>& key, const GroupAcc& acc) {
    ResultTable::Row row;
    for (const std::string& v : q.vars) {
      size_t j = static_cast<size_t>(
          std::find(q.group_by.begin(), q.group_by.end(), v) -
          q.group_by.begin());
      if (acc.count == 0 || key[j] == kInvalidTermId) {
        row.push_back(std::nullopt);
      } else {
        row.push_back(dict.Get(key[j]));
      }
    }
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      int64_t n = 0;
      switch (modes[ai]) {
        case AggMode::kCountRows:
          n = static_cast<int64_t>(acc.count);
          break;
        case AggMode::kOne:
          n = acc.count > 0 ? 1 : 0;
          break;
        case AggMode::kDistinctSet:
          n = static_cast<int64_t>(acc.sets[set_index[ai]].size());
          break;
        case AggMode::kDistinctGlobal:
          n = 0;  // filled by the caller branch below
          break;
      }
      row.push_back(Term::IntLiteral(n));
    }
    table.AddRow(std::move(row));
  };

  // Emits the no-matches result: with no GROUP BY there is still one global
  // group (all counts zero), otherwise the table stays empty.
  auto emit_empty = [&]() {
    if (!q.group_by.empty()) return;
    GroupAcc acc;
    acc.sets.resize(num_sets);
    emit_row({}, acc);
  };

  // Emits accumulated groups in ascending key order — the exact order the
  // materializing path's sorted group emission produces. Every walking
  // branch funnels through here so the parity contract has one home.
  auto emit_groups = [&](const GroupMap& groups) {
    if (groups.empty()) {
      emit_empty();
      return;
    }
    std::vector<const std::pair<const std::vector<TermId>, GroupAcc>*> sorted;
    sorted.reserve(groups.size());
    for (const auto& entry : groups) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->first < b->first;
    });
    for (const auto* entry : sorted) emit_row(entry->first, entry->second);
  };

  // ---------------- single pattern ----------------
  if (triples.size() == 1) {
    PatternConsts consts = ResolveConsts(*first, dict);
    rdf::TriplePattern probe;
    probe.s = first->s.is_var ? kInvalidTermId : consts.s;
    probe.p = first->p.is_var ? kInvalidTermId : consts.p;
    probe.o = first->o.is_var ? kInvalidTermId : consts.o;
    const size_t total = consts.missing ? 0 : store->Count(probe);
    Charge(stats, total);

    if (q.group_by.empty()) {
      // Pure index arithmetic: no walk at all.
      ResultTable::Row row;
      for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
        int64_t n = 0;
        switch (modes[ai]) {
          case AggMode::kCountRows:
            n = static_cast<int64_t>(total);
            break;
          case AggMode::kDistinctGlobal: {
            const std::string& v = *q.aggregates[ai].var;
            n = consts.missing
                    ? 0
                    : static_cast<int64_t>(
                          store->CountDistinct(probe, var_at[v].pos));
            break;
          }
          case AggMode::kOne:
          case AggMode::kDistinctSet:
            n = 0;  // unreachable: no group key, no multi-var distinct here
            break;
        }
        row.push_back(Term::IntLiteral(n));
      }
      table.AddRow(std::move(row));
      return table;
    }

    if (total == 0) {
      emit_empty();
      return table;
    }

    // Grouped-count primitive: `?s <p> ?o GROUP BY ?o` walks the POS
    // sub-range boundaries — one (object, count) pair per class, no
    // per-triple work, already in ascending key order.
    const bool boundary_shape =
        first->s.is_var && !first->p.is_var && first->o.is_var &&
        q.group_by.size() == 1 && q.group_by[0] == first->o.var &&
        std::all_of(modes.begin(), modes.end(), [](AggMode m) {
          return m == AggMode::kCountRows || m == AggMode::kOne;
        });
    if (boundary_shape) {
      for (const auto& [o, n] : store->GroupedCountByObject(probe.p)) {
        GroupAcc acc;
        acc.count = n;
        emit_row({o}, acc);
      }
      return table;
    }

    // Generic grouped walk: accumulate counters per TermId key, then sort
    // keys to match the materializing path's map order. Still no binding
    // rows — only counters and (when needed) id sets.
    std::vector<TriplePos> key_pos;
    for (const std::string& g : q.group_by) key_pos.push_back(var_at[g].pos);
    GroupMap groups;
    std::vector<TriplePos> set_pos(num_sets);
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      if (modes[ai] == AggMode::kDistinctSet) {
        set_pos[set_index[ai]] = var_at[*q.aggregates[ai].var].pos;
      }
    }
    store->Match(probe, [&](const rdf::Triple& t) {
      std::vector<TermId> key;
      key.reserve(key_pos.size());
      for (TriplePos kp : key_pos) key.push_back(IdAt(t, kp));
      GroupAcc& acc = groups[std::move(key)];
      if (acc.sets.size() != num_sets) acc.sets.resize(num_sets);
      ++acc.count;
      for (size_t si = 0; si < num_sets; ++si) {
        acc.sets[si].insert(IdAt(t, set_pos[si]));
      }
      return true;
    });
    emit_groups(groups);
    return table;
  }

  // --------------- anchor join: ?x <pa> <oa> . ?x ?p ?o ---------------
  //
  // Mirror case first: when the planner evaluates the *open* pattern
  // before the anchor (the open side is more selective), walk the open
  // pattern's range and turn the anchor into a binary-search membership
  // probe per row. All keys and distinct vars live on the open pattern
  // (the anchor only carries the shared subject), so one walk suffices.
  if (!is_anchor(first)) {
    PatternConsts cd = ResolveConsts(*first, dict);   // open driver
    PatternConsts ca = ResolveConsts(*second, dict);  // anchor probe
    rdf::TriplePattern driver;
    driver.p = first->p.is_var ? kInvalidTermId : cd.p;
    driver.o = first->o.is_var ? kInvalidTermId : cd.o;
    const size_t count_d = cd.missing ? 0 : store->Count(driver);
    Charge(stats, count_d);
    if (count_d == 0 || ca.missing) {
      emit_empty();
      return table;
    }
    std::vector<TriplePos> key_pos;
    for (const std::string& g : q.group_by) key_pos.push_back(var_at[g].pos);
    std::vector<TriplePos> set_pos(num_sets);
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      if (modes[ai] == AggMode::kDistinctSet) {
        set_pos[set_index[ai]] = var_at[*q.aggregates[ai].var].pos;
      }
    }
    GroupMap groups;
    size_t ext = 0;
    store->Match(driver, [&](const rdf::Triple& td) {
      rdf::TriplePattern member;
      member.s = td.s;
      member.p = ca.p;
      member.o = ca.o;
      if (store->Count(member) == 0) return true;  // subject not anchored
      ++ext;
      std::vector<TermId> key;
      key.reserve(key_pos.size());
      for (TriplePos kp : key_pos) key.push_back(IdAt(td, kp));
      GroupAcc& acc = groups[std::move(key)];
      if (acc.sets.size() != num_sets) acc.sets.resize(num_sets);
      ++acc.count;
      for (size_t si = 0; si < num_sets; ++si) {
        acc.sets[si].insert(IdAt(td, set_pos[si]));
      }
      return true;
    });
    Charge(stats, ext);
    emit_groups(groups);
    return table;
  }

  const TriplePatternNode* anchor = first;
  const TriplePatternNode* other = second;
  PatternConsts ca = ResolveConsts(*anchor, dict);
  PatternConsts cb = ResolveConsts(*other, dict);
  rdf::TriplePattern probe_a;
  probe_a.p = ca.p;
  probe_a.o = ca.o;
  const size_t count_a = ca.missing ? 0 : store->Count(probe_a);
  Charge(stats, count_a);
  if (count_a == 0 || cb.missing) {
    emit_empty();
    return table;
  }

  const TermId pb = other->p.is_var ? kInvalidTermId : cb.p;
  const TermId ob = other->o.is_var ? kInvalidTermId : cb.o;

  // Arithmetic shortcut: a global count whose aggregates only need per-
  // anchor match counts (plus "anchors with >= 1 match" for DISTINCT of
  // the shared subject) is O(|anchor| log n) — one range count per anchor
  // subject, no inner walk.
  bool arithmetic = q.group_by.empty();
  for (size_t ai = 0; ai < q.aggregates.size() && arithmetic; ++ai) {
    if (modes[ai] == AggMode::kCountRows) continue;
    if (modes[ai] == AggMode::kDistinctSet &&
        *q.aggregates[ai].var == shared_subject) {
      continue;
    }
    arithmetic = false;
  }
  if (arithmetic) {
    size_t ext = 0;
    size_t anchors_with_match = 0;
    store->Match(probe_a, [&](const rdf::Triple& ta) {
      rdf::TriplePattern pbq;
      pbq.s = ta.s;
      pbq.p = pb;
      pbq.o = ob;
      size_t n = store->Count(pbq);
      ext += n;
      if (n > 0) ++anchors_with_match;
      return true;
    });
    Charge(stats, ext);
    ResultTable::Row row;
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      int64_t n = modes[ai] == AggMode::kCountRows
                      ? static_cast<int64_t>(ext)
                      : static_cast<int64_t>(anchors_with_match);
      row.push_back(Term::IntLiteral(n));
    }
    table.AddRow(std::move(row));
    return table;
  }

  // Grouped walk over the join: for each anchor subject, scan its SPO
  // range (optionally keyed by a constant predicate) and bump per-group
  // counters. No binding rows are materialized.
  std::vector<TriplePos> key_pos;
  std::vector<bool> key_is_subject;
  for (const std::string& g : q.group_by) {
    key_is_subject.push_back(g == shared_subject);
    key_pos.push_back(var_at[g].pos);
  }
  size_t num_set_aggs = num_sets;
  std::vector<TriplePos> set_pos(num_set_aggs);
  std::vector<bool> set_is_subject(num_set_aggs, false);
  for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
    if (modes[ai] != AggMode::kDistinctSet) continue;
    const std::string& v = *q.aggregates[ai].var;
    set_is_subject[set_index[ai]] = v == shared_subject;
    set_pos[set_index[ai]] = var_at[v].pos;
  }
  GroupMap groups;
  size_t ext = 0;
  store->Match(probe_a, [&](const rdf::Triple& ta) {
    rdf::TriplePattern pbq;
    pbq.s = ta.s;
    pbq.p = pb;
    pbq.o = ob;
    store->Match(pbq, [&](const rdf::Triple& tb) {
      ++ext;
      std::vector<TermId> key;
      key.reserve(key_pos.size());
      for (size_t ki = 0; ki < key_pos.size(); ++ki) {
        key.push_back(key_is_subject[ki] ? ta.s : IdAt(tb, key_pos[ki]));
      }
      GroupAcc& acc = groups[std::move(key)];
      if (acc.sets.size() != num_set_aggs) acc.sets.resize(num_set_aggs);
      ++acc.count;
      for (size_t si = 0; si < num_set_aggs; ++si) {
        acc.sets[si].insert(set_is_subject[si] ? ta.s : IdAt(tb, set_pos[si]));
      }
      return true;
    });
    return true;
  });
  Charge(stats, ext);
  emit_groups(groups);
  return table;
}

// ---------------------------------------------- star/range pushdown

/// Recognizes the 3-pattern star/range shape the extraction profiler
/// issues — `?s <pa> <oa> . ?s ?p ?o . ?o <pc> ?rc` (the `?p ?rc`
/// range-class query; the open pattern's predicate may also be constant)
/// — and answers it by walking TripleStore sub-range spans: the anchor's
/// POS range, each subject's SPO span, each object's type span. No
/// binding rows are materialized. Charged intermediate_bindings equal the
/// materializing path's by construction: the walk follows the shared plan
/// order (anchor, open, chain) and bails out for any other order.
std::optional<ResultTable> TryStarPushdown(const SelectQuery& q,
                                           const rdf::TripleStore* store,
                                           const std::vector<size_t>& plan_order,
                                           ExecStats* stats) {
  const GroupGraphPattern& where = q.where;
  if (q.form != QueryForm::kSelect || q.select_all) return std::nullopt;
  if (q.aggregates.empty()) return std::nullopt;
  if (!where.filters.empty() || !where.optionals.empty() ||
      !where.unions.empty()) {
    return std::nullopt;
  }
  const std::vector<TriplePatternNode>& triples = where.triples;
  if (triples.size() != 3) return std::nullopt;

  auto is_anchor = [](const TriplePatternNode& t) {
    return t.s.is_var && !t.p.is_var && !t.o.is_var;
  };
  auto is_open = [](const TriplePatternNode& t) {
    return t.s.is_var && t.o.is_var;  // predicate var or constant
  };
  auto is_chain = [](const TriplePatternNode& t) {
    return t.s.is_var && !t.p.is_var && t.o.is_var;
  };
  int ia = -1, ib = -1, ic = -1;
  for (int a = 0; a < 3 && ia < 0; ++a) {
    if (!is_anchor(triples[static_cast<size_t>(a)])) continue;
    for (int b = 0; b < 3; ++b) {
      if (b == a || !is_open(triples[static_cast<size_t>(b)])) continue;
      if (triples[static_cast<size_t>(b)].s.var !=
          triples[static_cast<size_t>(a)].s.var) {
        continue;
      }
      const int c = 3 - a - b;
      if (!is_chain(triples[static_cast<size_t>(c)])) continue;
      if (triples[static_cast<size_t>(c)].s.var !=
          triples[static_cast<size_t>(b)].o.var) {
        continue;
      }
      ia = a;
      ib = b;
      ic = c;
      break;
    }
  }
  if (ia < 0) return std::nullopt;
  const TriplePatternNode& A = triples[static_cast<size_t>(ia)];
  const TriplePatternNode& B = triples[static_cast<size_t>(ib)];
  const TriplePatternNode& C = triples[static_cast<size_t>(ic)];

  // All variable names distinct: s, (p), o, rc. Repeats have consistency
  // semantics this walk does not model.
  const std::string& vs = A.s.var;
  const std::string& vo = B.o.var;
  const std::string& vrc = C.o.var;
  std::set<std::string> names{vs, vo, vrc};
  if (names.size() != 3) return std::nullopt;
  std::string vp;
  if (B.p.is_var) {
    vp = B.p.var;
    if (!names.insert(vp).second) return std::nullopt;
  }

  // The walk charges anchor -> open -> chain; any other planned order
  // charges differently, so only this one is eligible.
  if (plan_order.size() != 3 || plan_order[0] != static_cast<size_t>(ia) ||
      plan_order[1] != static_cast<size_t>(ib) ||
      plan_order[2] != static_cast<size_t>(ic)) {
    return std::nullopt;
  }

  // Where each variable's value lives in one emitted join row.
  enum class Src { kS, kP, kO, kRC };
  auto src_of = [&](const std::string& name) -> std::optional<Src> {
    if (name == vs) return Src::kS;
    if (!vp.empty() && name == vp) return Src::kP;
    if (name == vo) return Src::kO;
    if (name == vrc) return Src::kRC;
    return std::nullopt;
  };

  // Key and projection checks, as in the 2-pattern fast path.
  for (const std::string& g : q.group_by) {
    if (!src_of(g).has_value()) return std::nullopt;
  }
  for (const std::string& v : q.vars) {
    if (std::find(q.group_by.begin(), q.group_by.end(), v) ==
        q.group_by.end()) {
      return std::nullopt;
    }
  }
  std::set<std::string> nonkey;
  for (const std::string& n : names) {
    if (std::find(q.group_by.begin(), q.group_by.end(), n) ==
        q.group_by.end()) {
      nonkey.insert(n);
    }
  }

  std::vector<AggMode> modes;
  std::vector<size_t> set_index(q.aggregates.size(), 0);
  size_t num_sets = 0;
  for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
    const Aggregate& a = q.aggregates[ai];
    if (!a.var.has_value()) {
      modes.push_back(AggMode::kCountRows);
      continue;
    }
    if (!src_of(*a.var).has_value()) return std::nullopt;
    if (!a.distinct) {
      modes.push_back(AggMode::kCountRows);
      continue;
    }
    const bool is_key = std::find(q.group_by.begin(), q.group_by.end(),
                                  *a.var) != q.group_by.end();
    if (is_key) {
      modes.push_back(AggMode::kOne);
    } else if (nonkey.size() == 1 && *nonkey.begin() == *a.var) {
      // Join rows are distinct (s, p, o, rc) tuples, so with every other
      // variable in the key the sole non-key var is distinct per row.
      modes.push_back(AggMode::kCountRows);
    } else {
      modes.push_back(AggMode::kDistinctSet);
      set_index[ai] = num_sets++;
    }
  }

  const rdf::Dictionary& dict = store->dict();
  PatternConsts ca = ResolveConsts(A, dict);
  PatternConsts cb = ResolveConsts(B, dict);
  PatternConsts cc = ResolveConsts(C, dict);

  std::vector<std::string> columns = q.vars;
  for (const Aggregate& a : q.aggregates) columns.push_back(a.as);
  ResultTable table(columns);
  if (stats != nullptr) ++stats->fast_path_hits;

  std::vector<Src> key_src;
  for (const std::string& g : q.group_by) key_src.push_back(*src_of(g));
  std::vector<Src> set_src(num_sets, Src::kS);
  for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
    if (modes[ai] == AggMode::kDistinctSet) {
      set_src[set_index[ai]] = *src_of(*q.aggregates[ai].var);
    }
  }

  auto emit_row = [&](const std::vector<TermId>& key, const GroupAcc& acc) {
    ResultTable::Row row;
    for (const std::string& v : q.vars) {
      size_t j = static_cast<size_t>(
          std::find(q.group_by.begin(), q.group_by.end(), v) -
          q.group_by.begin());
      if (acc.count == 0 || key[j] == kInvalidTermId) {
        row.push_back(std::nullopt);
      } else {
        row.push_back(dict.Get(key[j]));
      }
    }
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      int64_t n = 0;
      switch (modes[ai]) {
        case AggMode::kCountRows:
          n = static_cast<int64_t>(acc.count);
          break;
        case AggMode::kOne:
          n = acc.count > 0 ? 1 : 0;
          break;
        case AggMode::kDistinctSet:
          n = static_cast<int64_t>(acc.sets[set_index[ai]].size());
          break;
        case AggMode::kDistinctGlobal:
          n = 0;  // unreachable: the star walk never derives this mode
          break;
      }
      row.push_back(Term::IntLiteral(n));
    }
    table.AddRow(std::move(row));
  };
  auto emit_empty = [&]() {
    if (!q.group_by.empty()) return;
    GroupAcc acc;
    acc.sets.resize(num_sets);
    emit_row({}, acc);
  };
  auto emit_groups = [&](const GroupMap& groups) {
    if (groups.empty()) {
      emit_empty();
      return;
    }
    std::vector<const std::pair<const std::vector<TermId>, GroupAcc>*> sorted;
    sorted.reserve(groups.size());
    for (const auto& entry : groups) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->first < b->first;
    });
    for (const auto* entry : sorted) emit_row(entry->first, entry->second);
  };

  // The walk. Charging replays the materializing path's three steps: the
  // anchor range, then per-subject open spans, then per-row type spans —
  // with the same early exits (a missing constant or an empty step stops
  // the charging exactly where the join loop would have emptied out).
  GroupMap groups;
  if (!ca.missing) {
    rdf::TriplePattern pa;
    pa.p = ca.p;
    pa.o = ca.o;
    rdf::TripleSpan span_a = store->Span(pa);
    Charge(stats, span_a.size);
    if (span_a.size > 0 && !cb.missing) {
      size_t rows_b = 0;
      for (const rdf::Triple& ta : span_a) {
        rdf::TriplePattern pb;
        pb.s = ta.s;
        pb.p = B.p.is_var ? kInvalidTermId : cb.p;
        rdf::TripleSpan span_b = store->Span(pb);
        rows_b += span_b.size;
        if (cc.missing) continue;
        for (const rdf::Triple& tb : span_b) {
          rdf::TriplePattern pc;
          pc.s = tb.o;
          pc.p = cc.p;
          rdf::TripleSpan span_c = store->Span(pc);
          Charge(stats, span_c.size);
          for (const rdf::Triple& tc : span_c) {
            auto value_of = [&](Src src) {
              switch (src) {
                case Src::kS:
                  return ta.s;
                case Src::kP:
                  return tb.p;
                case Src::kO:
                  return tb.o;
                case Src::kRC:
                  return tc.o;
              }
              return kInvalidTermId;
            };
            std::vector<TermId> key;
            key.reserve(key_src.size());
            for (Src ks : key_src) key.push_back(value_of(ks));
            GroupAcc& acc = groups[std::move(key)];
            if (acc.sets.size() != num_sets) acc.sets.resize(num_sets);
            ++acc.count;
            for (size_t si = 0; si < num_sets; ++si) {
              acc.sets[si].insert(value_of(set_src[si]));
            }
          }
        }
      }
      Charge(stats, rows_b);
    }
  }
  emit_groups(groups);
  return table;
}

/// CI sanitizer runs export HBOLD_FORCE_HASH_JOIN=1 to drive every
/// eligible join step through the hash operator across the whole test
/// suite — results are bit-identical by construction, so only operator
/// lifetime/memory bugs can surface.
bool ForceHashJoinFromEnv() {
  static const bool forced = std::getenv("HBOLD_FORCE_HASH_JOIN") != nullptr;
  return forced;
}

/// HBOLD_HASH_SPILL_BUDGET=<bytes> overrides the hash-join spill threshold
/// — sanitizer runs set a tiny budget to drive every build through the
/// spill path (results are bit-identical by construction).
bool HashSpillBudgetFromEnv(size_t* budget) {
  const char* env = std::getenv("HBOLD_HASH_SPILL_BUDGET");
  if (env == nullptr || *env == '\0') return false;
  *budget = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  return true;
}

}  // namespace

Executor::Executor(const rdf::TripleStore* store, ExecOptions options,
                   PlanCache* plan_cache)
    : store_(store), options_(options), plan_cache_(plan_cache) {
  if (ForceHashJoinFromEnv()) options_.hash_join = HashJoinMode::kForce;
  size_t budget = 0;
  if (HashSpillBudgetFromEnv(&budget) &&
      options_.hash_join_spill_budget_bytes ==
          ExecOptions{}.hash_join_spill_budget_bytes) {
    // The env override stands in for the default only: a caller that set
    // an explicit budget (differential tests pinning spill behavior)
    // keeps it even under the CI-wide override.
    options_.hash_join_spill_budget_bytes = budget;
  }
}

Result<ResultTable> Executor::Execute(std::string_view query_text,
                                      ExecStats* stats) const {
  HBOLD_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(query_text));
  return Execute(std::move(resolved), stats);
}

Result<ResolvedQuery> Executor::Resolve(std::string_view query_text) const {
  ResolvedQuery resolved;
  if (plan_cache_ != nullptr) {
    // Prepared-statement tier: a repeated text skips parse AND planning.
    resolved.generation_ = store_->generation();
    resolved.text_ = std::string(query_text);
    resolved.prepared_ =
        plan_cache_->LookupPrepared(resolved.text_, resolved.generation_);
    if (resolved.prepared_ != nullptr) return resolved;
  }
  HBOLD_ASSIGN_OR_RETURN(resolved.parsed_, ParseQuery(query_text));
  return resolved;
}

Result<ResultTable> Executor::Execute(ResolvedQuery resolved,
                                      ExecStats* stats) const {
  if (resolved.prepared_ != nullptr) {
    if (stats != nullptr) ++stats->plan_cache_hits;
    return ExecutePlanned(resolved.prepared_->query, *resolved.prepared_->plan,
                          stats);
  }
  if (plan_cache_ == nullptr) return Execute(resolved.parsed_, stats);
  bool reused = false;
  std::shared_ptr<const QueryPlan> plan =
      AcquirePlan(resolved.parsed_, stats, &reused);
  if (!reused) return ExecutePlanned(resolved.parsed_, *plan, stats);
  // Admission on reuse: this shape was already planned in this store
  // generation, so the text is likely to come back. A one-shot text costs
  // only its normalized entry, never a resident AST.
  auto insert = std::make_shared<PreparedQuery>();
  insert->query = std::move(resolved.parsed_);
  insert->plan = plan;
  plan_cache_->InsertPrepared(resolved.text_, resolved.generation_, insert);
  return ExecutePlanned(insert->query, *plan, stats);
}

std::shared_ptr<const QueryPlan> Executor::AcquirePlan(const SelectQuery& q,
                                                       ExecStats* stats,
                                                       bool* reused) const {
  // The physical plan: served by the cross-query cache (keyed on the
  // normalized WHERE tree + the store's rebuild generation) or computed
  // fresh. Cached and fresh plans are identical — planning is a
  // deterministic function of (query shape, store content) and a rebuilt
  // store changes its generation — so caching can never change results or
  // charged accounting, only planning work.
  if (plan_cache_ == nullptr) {
    return std::make_shared<QueryPlan>(PlanQuery(q, options_, store_));
  }
  const std::string key = NormalizeWhereKey(q);
  const uint64_t generation = store_->generation();
  std::shared_ptr<const QueryPlan> plan = plan_cache_->Lookup(key, generation);
  if (reused != nullptr) *reused = plan != nullptr;
  if (plan != nullptr) {
    if (stats != nullptr) ++stats->plan_cache_hits;
  } else {
    // Whole-query miss: plan group by group, serving non-root groups
    // (OPTIONAL/UNION bodies) from the cache's group tier. Queries that
    // disagree at the top level but share a sub-group — the extraction
    // corpus's OPTIONAL label/comment tails — replan only the parts that
    // actually differ. The root group is skipped: it is exactly what the
    // whole-query tiers above already key on.
    auto fresh = std::make_shared<QueryPlan>();
    bool root = true;
    ForEachGroup(q.where, [&](const GroupGraphPattern& g) {
      if (root) {
        root = false;
        fresh->groups.push_back(PlanGroup(g, options_, store_));
        return;
      }
      const std::string gkey = NormalizeGroupKey(g);
      std::shared_ptr<const GroupPlan> cached =
          plan_cache_->LookupGroup(gkey, generation);
      if (cached == nullptr) {
        cached = std::make_shared<GroupPlan>(PlanGroup(g, options_, store_));
        plan_cache_->InsertGroup(gkey, generation, cached);
      }
      fresh->groups.push_back(*cached);
    });
    plan = fresh;
    plan_cache_->Insert(key, generation, plan);
    if (stats != nullptr) ++stats->plan_cache_misses;
  }
  return plan;
}

Result<ResultTable> Executor::Execute(const SelectQuery& q,
                                      ExecStats* stats) const {
  std::shared_ptr<const QueryPlan> plan = AcquirePlan(q, stats);
  return ExecutePlanned(q, *plan, stats);
}

Result<ResultTable> Executor::ExecutePlanned(const SelectQuery& q,
                                             const QueryPlan& plan,
                                             ExecStats* stats) const {
  const std::vector<size_t>& top_order = plan.groups.front().order;

  // Pushdown fast paths: the count-query family by index range arithmetic,
  // then the 3-pattern star/range shape by sub-range span walks; ordinary
  // solution modifiers run on top. Falls through to the materializing path
  // for everything outside the recognized families.
  if (options_.aggregate_pushdown) {
    std::optional<ResultTable> fast =
        TryAggregatePushdown(q, store_, top_order, stats);
    if (!fast.has_value() && options_.star_pushdown) {
      fast = TryStarPushdown(q, store_, top_order, stats);
    }
    if (fast.has_value()) {
      if (q.distinct) ApplyTermDistinct(&*fast);
      ApplyOrderBy(q, &*fast);
      ApplySlice(q, &*fast);
      if (stats != nullptr) stats->result_rows = fast->num_rows();
      return *std::move(fast);
    }
  }

  VarRegistry vars;
  CollectVars(q.where, &vars);
  for (const std::string& v : q.vars) vars.Intern(v);
  for (const std::string& v : q.group_by) vars.Intern(v);
  for (const Aggregate& a : q.aggregates) {
    if (a.var.has_value()) vars.Intern(*a.var);
  }

  const bool grouping = !q.group_by.empty() || !q.aggregates.empty();

  // LIMIT pushdown: when nothing downstream (grouping, DISTINCT, ORDER BY,
  // filters, optionals, unions) can change which rows survive, the join
  // loop may stop at OFFSET+LIMIT rows. ASK stops at the first solution.
  size_t row_cap = kNoCap;
  if (options_.limit_pushdown && !grouping && !q.distinct &&
      q.order_by.empty() && q.where.filters.empty() &&
      q.where.optionals.empty() && q.where.unions.empty()) {
    if (q.form == QueryForm::kAsk) {
      row_cap = 1;
    } else if (q.limit.has_value()) {
      size_t off = q.offset.value_or(0);
      size_t cap = off + *q.limit;
      if (cap >= off) row_cap = cap;  // saturating add
    }
  }

  GroupPlanMap plan_map = BuildGroupPlanMap(q, plan);
  GroupEvaluator evaluator(store_, &vars, stats, options_, &plan_map);
  std::vector<RowIds> rows = evaluator.Eval(
      q.where, {RowIds(vars.size(), kInvalidTermId)}, row_cap);

  // ASK: one row, one boolean cell named "ask" (mirrors the SPARQL JSON
  // results `boolean` member; ResultTable::AskResult decodes it).
  if (q.form == QueryForm::kAsk) {
    ResultTable ask_table({"ask"});
    ask_table.AddRow({Term::BoolLiteral(!rows.empty())});
    if (stats != nullptr) stats->result_rows = 1;
    return ask_table;
  }

  const rdf::Dictionary& dict = store_->dict();
  auto term_at = [&](const RowIds& row, int slot) -> std::optional<Term> {
    if (slot < 0 || row[static_cast<size_t>(slot)] == kInvalidTermId) {
      return std::nullopt;
    }
    return dict.Get(row[static_cast<size_t>(slot)]);
  };

  // Projection column list.
  std::vector<std::string> columns;
  if (q.select_all) {
    columns = vars.names();
  } else {
    columns = q.vars;
    for (const Aggregate& a : q.aggregates) columns.push_back(a.as);
  }
  ResultTable table(columns);

  if (grouping) {
    // Group rows by the GROUP BY key (empty key = single global group).
    // Hash-accumulate on TermId vectors, then emit in sorted key order —
    // identical output to the former ordered-map walk without per-row
    // O(log groups) key-vector comparisons.
    std::vector<int> key_slots;
    for (const std::string& g : q.group_by) key_slots.push_back(vars.Lookup(g));
    std::unordered_map<std::vector<TermId>, std::vector<const RowIds*>,
                       IdVecHash>
        groups;
    for (const RowIds& row : rows) {
      std::vector<TermId> key;
      key.reserve(key_slots.size());
      for (int s : key_slots) {
        key.push_back(s < 0 ? kInvalidTermId : row[static_cast<size_t>(s)]);
      }
      groups[std::move(key)].push_back(&row);
    }
    // An empty input still yields one (empty) group for a global aggregate.
    if (groups.empty() && q.group_by.empty()) {
      groups[{}] = {};
    }
    std::vector<
        const std::pair<const std::vector<TermId>, std::vector<const RowIds*>>*>
        ordered;
    ordered.reserve(groups.size());
    for (const auto& entry : groups) ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* entry : ordered) {
      const std::vector<const RowIds*>& members = entry->second;
      ResultTable::Row out_row;
      for (const std::string& v : q.vars) {
        int slot = vars.Lookup(v);
        if (!members.empty()) {
          out_row.push_back(term_at(*members.front(), slot));
        } else {
          out_row.push_back(std::nullopt);
        }
      }
      for (const Aggregate& a : q.aggregates) {
        int64_t count = 0;
        if (!a.var.has_value()) {
          if (a.distinct) {
            std::unordered_set<std::vector<TermId>, IdVecHash> distinct_rows;
            for (const RowIds* r : members) distinct_rows.insert(*r);
            count = static_cast<int64_t>(distinct_rows.size());
          } else {
            count = static_cast<int64_t>(members.size());
          }
        } else {
          int slot = vars.Lookup(*a.var);
          if (a.distinct) {
            std::unordered_set<TermId> seen;
            for (const RowIds* r : members) {
              TermId v = slot < 0 ? kInvalidTermId
                                  : (*r)[static_cast<size_t>(slot)];
              if (v != kInvalidTermId) seen.insert(v);
            }
            count = static_cast<int64_t>(seen.size());
          } else {
            for (const RowIds* r : members) {
              if (slot >= 0 &&
                  (*r)[static_cast<size_t>(slot)] != kInvalidTermId) {
                ++count;
              }
            }
          }
        }
        out_row.push_back(Term::IntLiteral(count));
      }
      table.AddRow(std::move(out_row));
    }
    // Aggregate rows contain computed terms, so DISTINCT falls back to the
    // serialized-cell keying.
    if (q.distinct) ApplyTermDistinct(&table);
  } else {
    std::vector<int> slots;
    for (const std::string& c : columns) slots.push_back(vars.Lookup(c));
    // Non-aggregate DISTINCT dedups on the projected id tuple — equal ids
    // iff equal terms, since the dictionary interns.
    std::unordered_set<std::vector<TermId>, IdVecHash> seen;
    for (const RowIds& row : rows) {
      if (q.distinct) {
        std::vector<TermId> key;
        key.reserve(slots.size());
        for (int s : slots) {
          key.push_back(s < 0 ? kInvalidTermId : row[static_cast<size_t>(s)]);
        }
        if (!seen.insert(std::move(key)).second) continue;
      }
      ResultTable::Row out_row;
      out_row.reserve(slots.size());
      for (int s : slots) out_row.push_back(term_at(row, s));
      table.AddRow(std::move(out_row));
    }
  }

  ApplyOrderBy(q, &table);
  ApplySlice(q, &table);

  if (stats != nullptr) stats->result_rows = table.num_rows();
  return table;
}

}  // namespace hbold::sparql
