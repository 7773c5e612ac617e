#ifndef HBOLD_SIM_EVENT_LOOP_H_
#define HBOLD_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace hbold::sim {

/// What kind of simulated occurrence an event represents. The taxonomy is
/// part of the determinism contract: HistoryDump() serializes kind names,
/// so two runs have the same history only if the same kinds fired at the
/// same times in the same order.
enum class EventKind : uint8_t {
  /// Uncategorized (tests, ad-hoc scheduling).
  kGeneric,
  /// A simulated day ticked over. Dispatching the event is what advances
  /// the clock across the boundary — day boundaries are just scheduled
  /// events, not privileged clock arithmetic.
  kDayBoundary,
  /// Fleet churn applies for a day: scheduled arrivals join, the seeded
  /// death lottery runs. Always dispatched before the same instant's
  /// kCycleStart (scheduled first, lower sequence).
  kChurn,
  /// A fleet-wide daily extraction cycle begins.
  kCycleStart,
  /// One endpoint's extraction pipeline finished, at the canonical
  /// list-scheduled completion time of its charged latency.
  kPipelineComplete,
  /// An endpoint pushed back (Timeout fallbacks) during its pipeline.
  kThrottle,
  /// The whole cycle's canonical makespan elapsed; day report finalized.
  kCycleComplete,
  /// A simulated user session arrives at the serving layer.
  kSessionArrival,
};

/// Stable lower-case name for an EventKind ("cycle-start", ...).
const char* EventKindName(EventKind kind);

/// Identifies one scheduled event; doubles as the tie-break sequence
/// number (monotonic in scheduling order).
using EventId = uint64_t;

/// One dispatched (or annotated) occurrence in the loop's history.
struct EventRecord {
  int64_t time_ms = 0;
  EventId sequence = 0;
  EventKind kind = EventKind::kGeneric;
  std::string label;
};

/// A discrete-event loop in the DESP-C++ mold: a priority queue of
/// {time_ms, sequence, event} dispatched in time order, ties broken by
/// scheduling sequence — so simultaneous events replay in exactly the
/// order they were scheduled, which is what makes event histories
/// byte-comparable across runs.
///
/// The loop drives a SimClock (owned, or bound via the SimClock
/// constructor): dispatching an event first sets the clock to the event's
/// time, so everything that reads that clock — servers, schedulers,
/// availability models, simulated endpoints — sees a consistent instant.
///
/// Not thread-safe: all scheduling and dispatching must happen on one
/// thread (handlers may fan work out over pools internally, but only the
/// dispatching thread touches the loop). That single-threaded discipline
/// is deliberate — it is what keeps sequence numbers, and with them the
/// whole history, independent of worker counts.
class EventLoop final {
 public:
  using Handler = std::function<void()>;

  /// Owns its clock, starting at t = 0.
  EventLoop();

  /// Binds an externally-owned clock: simulated endpoints built against
  /// `clock` share the loop's timeline without being rebuilt. `clock`
  /// must outlive the loop.
  explicit EventLoop(SimClock* clock);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Milliseconds since the simulation epoch, and the simulated day
  /// index (§3.1 refresh granularity).
  int64_t NowMs() const { return clock_->NowMs(); }
  int64_t NowDay() const { return clock_->NowDay(); }

  /// The driven clock — what servers and simulated endpoints read.
  SimClock* clock() { return clock_; }
  const SimClock* clock() const { return clock_; }

  /// Schedules `fn` at absolute simulated time `time_ms` (clamped to now:
  /// the past is not schedulable). Returns the event's id.
  EventId ScheduleAt(int64_t time_ms, EventKind kind, std::string label,
                     Handler fn);

  /// Schedules `fn` `delay_ms` after now (negative clamps to now).
  EventId ScheduleAfter(int64_t delay_ms, EventKind kind, std::string label,
                        Handler fn);

  /// Removes a pending event. False when already dispatched, cancelled,
  /// or unknown. Cancelled events never enter the history.
  bool Cancel(EventId id);

  /// True while `id` is scheduled but not yet dispatched or cancelled.
  bool IsPending(EventId id) const { return time_of_.count(id) > 0; }

  /// Appends an annotation to the history at the current instant without
  /// scheduling anything — how handlers record sub-occurrences (individual
  /// churn deaths, throttle pressure) that have no handler of their own.
  void Note(EventKind kind, std::string label);

  /// Dispatches the next pending event (advancing the clock to its time).
  /// False when the queue is empty.
  bool Step();

  /// Dispatches until the queue drains; returns events dispatched.
  size_t RunUntilIdle();

  /// Dispatches every event with time <= `horizon_ms`, then advances the
  /// clock to the horizon (a bare time-passes fast-forward). Events
  /// scheduled beyond the horizon stay queued. Returns events dispatched.
  size_t RunUntil(int64_t horizon_ms);

  size_t pending() const { return queue_.size(); }

  /// Every dispatched event and annotation, in dispatch order.
  const std::vector<EventRecord>& history() const { return history_; }

  /// Canonical one-line-per-event serialization of the history:
  /// "time_ms|seq|kind|label\n". Two runs of the same seeded world are
  /// the same simulation iff these strings are byte-identical — the
  /// event-loop half of the determinism contract (FleetReport::
  /// CanonicalDump() is the report half).
  std::string HistoryDump() const;

  /// FNV-1a fingerprint of HistoryDump(), as 16 hex chars.
  std::string HistoryFingerprint() const;

  /// Forgets the recorded history (queue and clock untouched) — lets
  /// long simulations bound memory once a segment has been fingerprinted.
  void ClearHistory();

 private:
  struct Pending {
    EventKind kind;
    std::string label;
    Handler fn;
  };

  void Dispatch(int64_t time_ms, EventId id, Pending pending);

  SimClock owned_clock_;
  SimClock* clock_;
  /// Keyed by (time, sequence): iteration order IS dispatch order, and
  /// erase-by-id stays cheap for Cancel.
  std::map<std::pair<int64_t, EventId>, Pending> queue_;
  /// Cancel/IsPending index: id -> scheduled time.
  std::map<EventId, int64_t> time_of_;
  EventId next_id_ = 1;
  std::vector<EventRecord> history_;
};

/// Handle to a recurring simulated activity (DESP-C++'s "process"): owns
/// at most one pending activation on the loop and cancels it on
/// destruction, so an activity cannot fire into a destroyed owner. Each
/// activation is a plain event (same kind/label prefix); the handler
/// typically re-activates the process to continue the chain — the fleet's
/// daily-cycle chain is one Process.
class Process {
 public:
  /// `loop` must outlive the process.
  Process(EventLoop* loop, EventKind kind, std::string label);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Schedules the next activation (cancelling any pending one).
  void ActivateAt(int64_t time_ms, EventLoop::Handler fn);
  void ActivateAfter(int64_t delay_ms, EventLoop::Handler fn);

  /// Cancels the pending activation, if any.
  void Cancel();

  /// True while an activation is scheduled but not yet dispatched.
  bool active() const;

  const std::string& label() const { return label_; }

 private:
  EventLoop* loop_;
  EventKind kind_;
  std::string label_;
  EventId pending_ = 0;
};

/// Seeded arrival-process generator: deterministic exponential-ish
/// inter-arrival gaps from hashed uniform draws, so a workload's arrival
/// times are a pure function of (seed, index) — identical across runs,
/// deployment shapes, and generation order. Used to pour user sessions
/// onto the shared loop next to extraction traffic.
class ArrivalProcess {
 public:
  /// `mean_gap_ms` is the mean inter-arrival time (must be > 0).
  ArrivalProcess(uint64_t seed, double mean_gap_ms);

  /// Gap before arrival `index` (index-addressed, stateless: draw 7 is
  /// the same whether or not draws 0..6 were ever asked for).
  int64_t GapMs(uint64_t index) const;

  /// Absolute arrival times in [start_ms, end_ms), oldest first, starting
  /// from draw `first_index`. Cumulative from `start_ms`.
  std::vector<int64_t> ArrivalsIn(int64_t start_ms, int64_t end_ms,
                                  uint64_t first_index = 0) const;

 private:
  uint64_t seed_;
  double mean_gap_ms_;
};

}  // namespace hbold::sim

#endif  // HBOLD_SIM_EVENT_LOOP_H_
