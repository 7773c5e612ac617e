#!/usr/bin/env python3
"""CI bench-regression harness.

Compares freshly emitted BENCH_*.json reports against the committed
baselines in bench/baselines/ and fails (exit 1) when a gated metric
regresses by more than the tolerance (default 20%).

Metric directions:
  higher  - bigger is better; fail when new < old * (1 - tol)
  lower   - smaller is better; fail when new > old * (1 + tol)
  stable  - deterministic figure; fail when it drifts more than tol
            either way (catches silent workload changes, not just
            slowdowns)
  bool    - must be true in the current report
  exact   - string/value equality with the baseline (canonical
            fingerprints: any divergence is a correctness regression or
            an intentional change that must re-bless the baseline)

Metrics carrying a `when` path are skipped unless that path is truthy in
BOTH reports — used for wall-clock gates that benches themselves only
enforce on >= 4-core machines.

Usage:
  tools/check_bench.py                 # compare all gated reports in cwd
  tools/check_bench.py --update        # re-bless baselines from cwd
  tools/check_bench.py --current-dir build
"""

import argparse
import json
import os
import shutil
import sys


def lookup(doc, path):
    """Dotted-path lookup; returns None when any step is missing."""
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def grid_total(field):
    """Sum a field over the extraction grid's successful entries."""

    def extract(doc):
        grid = doc.get("extraction_grid")
        if not isinstance(grid, list):
            return None
        return sum(e.get(field, 0) for e in grid if not e.get("failed"))

    extract.label = "extraction_grid.sum(%s)" % field
    return extract


class Metric:
    def __init__(self, path, direction, tolerance=0.20, when=None):
        self.path = path  # dotted path or callable(doc) -> value
        self.direction = direction
        self.tolerance = tolerance
        self.when = when

    @property
    def label(self):
        if callable(self.path):
            return getattr(self.path, "label", self.path.__name__)
        return self.path

    def value(self, doc):
        if callable(self.path):
            return self.path(doc)
        return lookup(doc, self.path)

    def check(self, baseline, current):
        """Returns (ok, detail)."""
        if self.when is not None:
            # A missing gate flag is indistinguishable from "not enforced"
            # only if we let it be: a bench that stops emitting the flag
            # must fail loudly, not silently skip its wall-clock gate.
            base_flag = lookup(baseline, self.when)
            cur_flag = lookup(current, self.when)
            if base_flag is None or cur_flag is None:
                side = "baseline" if base_flag is None else "current"
                return False, "gate flag %s missing from %s report" % (
                    self.when, side)
            if not base_flag or not cur_flag:
                return True, "skipped (%s not enforced)" % self.when
        old, new = self.value(baseline), self.value(current)
        if new is None:
            return False, "missing from current report"
        if self.direction == "bool":
            return bool(new), "%r" % new
        if old is None:
            return False, "missing from baseline (re-bless with --update)"
        if self.direction == "exact":
            ok = new == old
            return ok, "%r vs baseline %r" % (new, old)
        old, new = float(old), float(new)
        detail = "%.4g vs baseline %.4g (tol %d%%)" % (
            new, old, round(self.tolerance * 100))
        if old == 0:
            return new == 0, detail
        ratio = new / old
        if self.direction == "higher":
            return ratio >= 1 - self.tolerance, detail
        if self.direction == "lower":
            return ratio <= 1 + self.tolerance, detail
        if self.direction == "stable":
            return 1 - self.tolerance <= ratio <= 1 + self.tolerance, detail
        raise ValueError("unknown direction %r" % self.direction)


# The gated surface: one entry per bench report wired into CI.
GATED = {
    "BENCH_plan_cache.json": [
        # The bench's own >=2x bool gate is the wall-clock authority (a
        # 7x baseline ratio measured on one machine must not become a
        # hard gate on another); bit identity and steady-state hit
        # behavior are the deterministic correctness gates.
        Metric("gates.plan_cache_speedup_2x", "bool"),
        Metric("gates.bit_identity", "bool"),
        Metric("gates.steady_state_all_hits", "bool"),
        Metric("steady_misses", "stable"),
    ],
    "BENCH_query_fastpath.json": [
        # The bench's own gates are the wall-clock authority (they know
        # the machine's core count); a baseline ratio measured on one
        # machine must not become a hard wall-clock gate on another.
        Metric("gates.count_speedup_5x", "bool"),
        Metric("gates.bit_identity", "bool"),
        Metric("gates.batched_wallclock_2x", "bool"),
        Metric("batched_local.speedup", "higher",
               when="batched_local.gate_enforced"),
    ],
    "BENCH_index_extraction.json": [
        # The grid is a fixed simulated workload: query counts and
        # simulated latency are deterministic, so drift means the
        # extraction strategies changed behavior.
        Metric(grid_total("queries"), "stable"),
        Metric(grid_total("endpoint_ms"), "lower"),
        # Out-of-core leg (--ooc): the mmap-backed store must finish the
        # full extraction under an RLIMIT_AS cap the in-RAM vectors cannot
        # fit. A report without the "ooc" section fails these outright —
        # CI always passes --ooc, and a silently dropped leg must not
        # read as green.
        Metric("ooc.gates.disk_completed_under_cap", "bool"),
        Metric("ooc.gates.in_ram_exceeds_cap", "bool"),
        Metric("ooc.strategy", "exact"),
        Metric("ooc.triples", "stable"),
        Metric("ooc.queries", "stable"),
    ],
    "BENCH_async_extraction.json": [
        Metric("intra_speedup_at_4", "higher"),
        Metric("sim_cost_ms", "lower"),
        Metric("gates.sequential_equality", "bool"),
        Metric("gates.intra_speedup_2x", "bool"),
    ],
    "BENCH_fleet_simulation.json": [
        Metric("gates.shard_count_invariance", "bool"),
        Metric("fingerprint", "exact"),
        Metric("sim_total_makespan_ms", "lower"),
        Metric("total_failed", "stable"),
        Metric("speedup", "higher", when="gate_enforced"),
    ],
    "BENCH_mixed_timeline.json": [
        # Extraction cycles and serving sessions share one sim::EventLoop.
        # Everything on that loop is seeded and single-timeline, so the
        # event history, session transcripts, and fleet fingerprint are
        # deterministic hard gates; the overrun day is the scheduling
        # regression canary (losing it means catch-up cycles stopped
        # being exercised).
        Metric("gates.history_invariance", "bool"),
        Metric("gates.transcript_identity", "bool"),
        Metric("gates.overrun_present", "bool"),
        Metric("gates.sessions_served_nonzero", "bool"),
        Metric("fingerprint", "exact"),
        Metric("history_fingerprint", "exact"),
        Metric("transcript_fingerprint", "exact"),
        Metric("sessions_served", "stable"),
        Metric("overran_days", "stable"),
    ],
    "BENCH_delta_extraction.json": [
        # The seeded churning world is fully deterministic (simulated
        # makespan, not wall clock), so every figure here is a hard gate:
        # content divergence or a shrinking reduction means the
        # incremental pipeline changed behavior.
        Metric("gates.content_identity", "bool"),
        Metric("gates.deployment_invariance", "bool"),
        Metric("gates.makespan_reduction_3x", "bool"),
        Metric("content_fingerprint", "exact"),
        # FleetReport::Fingerprint() of the kDelta arm: pins how the
        # delta path talked to the endpoints and every day counter.
        Metric("delta_fingerprint", "exact"),
        Metric("makespan_reduction", "higher"),
        Metric("query_reduction", "higher"),
        Metric("probe_skips", "stable"),
        Metric("delta_extractions", "stable"),
    ],
    "BENCH_adversarial_delta.json": [
        # Mixed honest/lying/partial/flaky fleet under kBounded. The
        # world and the adversary are seeded and frozen before the end,
        # so convergence, detection counters, and the canonical
        # fingerprint are all deterministic hard gates.
        Metric("gates.final_state_identity", "bool"),
        Metric("gates.deployment_invariance", "bool"),
        Metric("gates.adversary_detected", "bool"),
        Metric("gates.makespan_reduction_1_2x", "bool"),
        Metric("bounded_fingerprint", "exact"),
        Metric("probe_mismatches", "stable"),
        Metric("forced_refreshes", "stable"),
        Metric("quarantines_entered", "stable"),
        Metric("makespan_reduction", "higher"),
    ],
    "BENCH_exploration_serving.json": [
        # The session stream is fully seeded: transcripts and cache miss
        # counts are deterministic, so the fingerprint is a hard gate.
        # The bench's own >=2x speedup bool is the wall-clock authority.
        Metric("gates.transcript_identity", "bool"),
        Metric("gates.deterministic_misses", "bool"),
        Metric("gates.cache_speedup_2x", "bool"),
        Metric("gates.refresh_keeps_layouts", "bool"),
        Metric("transcript_fingerprint", "exact"),
        # A refresh over unchanged stores keeps every cached layout and
        # serves the same transcripts.
        Metric("refresh_misses", "exact"),
        Metric("refresh_transcript_fingerprint", "exact"),
        Metric("cache_misses", "stable"),
        Metric("sessions", "stable"),
    ],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--update", action="store_true",
                        help="copy current reports over the baselines")
    parser.add_argument("reports", nargs="*",
                        help="subset of report filenames to check")
    args = parser.parse_args()

    names = args.reports or sorted(GATED)
    unknown = [n for n in names if n not in GATED]
    if unknown:
        print("unknown report(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name in names:
            src = os.path.join(args.current_dir, name)
            if not os.path.exists(src):
                print("cannot bless %s: not found in %s" %
                      (name, args.current_dir), file=sys.stderr)
                return 2
            shutil.copyfile(src, os.path.join(args.baseline_dir, name))
            print("blessed %s" % name)
        return 0

    failures = 0
    for name in names:
        current_path = os.path.join(args.current_dir, name)
        baseline_path = os.path.join(args.baseline_dir, name)
        print("== %s" % name)
        if not os.path.exists(current_path):
            print("  FAIL: report not emitted (expected %s)" % current_path)
            failures += 1
            continue
        if not os.path.exists(baseline_path):
            print("  FAIL: no committed baseline (%s); run "
                  "tools/check_bench.py --update and commit" % baseline_path)
            failures += 1
            continue
        with open(current_path) as f:
            current = json.load(f)
        with open(baseline_path) as f:
            baseline = json.load(f)
        for metric in GATED[name]:
            ok, detail = metric.check(baseline, current)
            print("  %-4s %-40s %s" % ("ok" if ok else "FAIL",
                                       metric.label, detail))
            if not ok:
                failures += 1

    if failures:
        print("\n%d gated metric(s) regressed beyond tolerance" % failures)
        return 1
    print("\nall gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
