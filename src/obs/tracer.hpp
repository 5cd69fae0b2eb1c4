// Structured request-lifecycle tracing.
//
// Every layer of the stack (RemoteFrontend -> wire -> server admission ->
// Backend batching -> DecisionEngine -> gpusim::FluidEngine) records spans
// and instant events here; the exporter (obs/chrome_trace.hpp) turns them
// into a Perfetto-loadable Chrome-trace JSON and a plain-text top-N report.
//
// Two clock domains coexist:
//   * kWall — real time, std::chrono::steady_clock microseconds. On Linux
//     steady_clock is CLOCK_MONOTONIC (since boot), so wall timestamps from
//     different processes on one host line up on one Perfetto timeline —
//     that is what correlates a client's launch span with the daemon's
//     admission span for the same request_id.
//   * kSim — simulated seconds. Simulation layers have no real duration;
//     their spans carry simulated timestamps (exported under a separate
//     synthetic pid so the two domains never visually interleave). The
//     thread-local SimClockScope supplies the batch's base offset, since
//     FluidEngine runs are each relative to their own t=0.
//
// Cost model: everything is gated on one relaxed atomic load
// (Tracer::enabled()); when tracing is off a ScopedSpan is two branches and
// no clock read. When on, events append to a fixed-capacity per-thread ring
// buffer (oldest events overwritten, wrap counted) guarded by an
// uncontended per-thread mutex, so a hot loop can record without touching
// any global lock.
//
// Trace context: request_id. Layers that know it pass it explicitly; layers
// that don't inherit the thread's current RequestScope. id 0 means "no
// request".
//
// Distributed trace context: trace_id / parent_span_id. A trace_id names one
// end-to-end request across processes (assigned by the originating client,
// carried on the wire by the additive EWC1 launch fields); parent_span_id
// names the upstream span the local work hangs under. Both default to the
// thread's TraceScope, mirroring RequestScope, and 0 means "none". The
// exporter renders them as hex strings in args and trace-merge uses them to
// stitch Perfetto flow arrows across process boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ewc::obs {

enum class Clock : std::uint8_t { kWall, kSim };

struct SpanEvent {
  std::string name;
  /// Pre-rendered JSON members for the Chrome-trace "args" object, without
  /// the surrounding braces (e.g. R"("batch":4,"tmpl":"t56")"); empty ok.
  std::string args;
  double ts_us = 0.0;    ///< kWall: steady-clock µs; kSim: simulated µs
  double dur_us = -1.0;  ///< < 0 marks an instant event
  std::uint64_t request_id = 0;  ///< 0 = none
  std::uint64_t trace_id = 0;        ///< distributed trace id; 0 = none
  std::uint64_t parent_span_id = 0;  ///< upstream span id; 0 = none
  /// kSim: simulator lane (0 = batch-level, 1+i = SM i). kWall: stamped by
  /// Tracer::record with the recording thread's ring id.
  std::uint32_t lane = 0;
  Clock clock = Clock::kWall;
};

class Tracer {
 public:
  static Tracer& instance();

  /// The global gate every recording site checks first.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Ring capacity for threads that register *after* the call (existing
  /// rings keep their size). Default 32768 events per thread.
  void set_thread_capacity(std::size_t events);

  /// Append to the calling thread's ring buffer. Callers gate on enabled().
  void record(SpanEvent ev);

  /// steady-clock microseconds (the kWall timestamp domain).
  static double now_us();

  /// Snapshot every thread's events, in timestamp order. Recording may
  /// continue concurrently; the snapshot is internally consistent per ring.
  std::vector<SpanEvent> collect() const;

  /// Events overwritten by ring wrap-around since the last clear(), summed
  /// over all threads (a non-zero value means the trace has a hole).
  std::uint64_t wrapped() const;

  /// Drop all recorded events (rings stay registered).
  void clear();

  // ---- thread-local trace context ----
  static std::uint64_t current_request_id();
  static std::uint64_t current_trace_id();
  static std::uint64_t current_parent_span_id();
  static double sim_base_seconds();

  /// Implementation detail, public only so the thread-local registration in
  /// tracer.cpp can name it.
  struct ThreadRing {
    std::mutex mu;
    std::vector<SpanEvent> ring;
    std::size_t next = 0;      ///< write cursor
    std::uint64_t written = 0; ///< total records (wrap = written - size)
    std::uint32_t tid = 0;     ///< stable per-thread id for the exporter
  };

 private:
  friend class RequestScope;
  friend class TraceScope;
  friend class SimClockScope;

  Tracer() = default;
  ThreadRing* ring_for_this_thread();

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::size_t capacity_ = 32768;
};

/// RAII wall-clock span: records name + [ctor, dtor) into the thread ring.
/// Inherits the thread's RequestScope id unless one is set explicitly.
class ScopedSpan {
 public:
  /// The name is copied only when tracing is on.
  explicit ScopedSpan(std::string_view name, std::uint64_t request_id = 0)
      : active_(Tracer::enabled()) {
    if (!active_) return;
    ev_.name = name;
    ev_.request_id = request_id ? request_id : Tracer::current_request_id();
    ev_.trace_id = Tracer::current_trace_id();
    ev_.parent_span_id = Tracer::current_parent_span_id();
    ev_.ts_us = Tracer::now_us();
  }
  ~ScopedSpan() {
    if (!active_) return;
    ev_.dur_us = Tracer::now_us() - ev_.ts_us;
    Tracer::instance().record(std::move(ev_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  /// Attach/override details discovered after the span began (the request
  /// id is assigned mid-launch on the client; args often aren't known until
  /// the work is done).
  void set_request_id(std::uint64_t id) { ev_.request_id = id; }
  void set_trace(std::uint64_t trace_id, std::uint64_t parent_span_id) {
    ev_.trace_id = trace_id;
    ev_.parent_span_id = parent_span_id;
  }
  void set_args(std::string args_json_members) {
    ev_.args = std::move(args_json_members);
  }

 private:
  bool active_;
  SpanEvent ev_;
};

/// Thread-local trace context: spans opened inside the scope default their
/// request_id to `id`.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Thread-local distributed-trace context: spans opened inside the scope
/// default their trace_id/parent_span_id to the scope's values. Install one
/// wherever a request crosses into this process (client launch, server
/// admission, backend per-request execution).
class TraceScope {
 public:
  TraceScope(std::uint64_t trace_id, std::uint64_t parent_span_id);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint64_t saved_trace_;
  std::uint64_t saved_parent_;
};

/// Thread-local simulated-clock base: kSim events recorded inside the scope
/// are offset by `base_seconds` (the simulated start of the current batch).
class SimClockScope {
 public:
  explicit SimClockScope(double base_seconds);
  ~SimClockScope();
  SimClockScope(const SimClockScope&) = delete;
  SimClockScope& operator=(const SimClockScope&) = delete;

 private:
  double saved_;
};

/// Record an instant wall-clock event (admission rejects, protocol errors).
void instant(std::string name, std::uint64_t request_id = 0,
             std::string args = {});

/// Record a simulated-time span on `lane`, offset by the thread's
/// SimClockScope base.
void sim_span(std::string name, double start_seconds, double dur_seconds,
              std::uint32_t lane, std::string args = {},
              std::uint64_t request_id = 0);

/// Record a simulated-time instant event on `lane`.
void sim_instant(std::string name, double at_seconds, std::uint32_t lane,
                 std::string args = {}, std::uint64_t request_id = 0);

/// JSON string escaping for span args values (shared with the exporter).
std::string json_escape(const std::string& s);

}  // namespace ewc::obs
