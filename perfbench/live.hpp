// The open-loop generator: one dispatcher thread sends a loadgen schedule
// over a few ClientConnection sessions with launch_async, and every request
// is timed from its due time. A separate control connection carries the
// flushes and kStats snapshots, so measurement traffic never mixes with a
// measured session's stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/kernel_desc.hpp"
#include "loadgen/loadgen.hpp"
#include "server/client.hpp"

namespace perfbench {

struct Sessions {
  std::unique_ptr<ewc::server::ClientConnection> control;
  std::vector<std::unique_ptr<ewc::server::ClientConnection>> launch;
};

/// Dial `n` launch sessions, then the control connection. Behind a router
/// every connection is placed on the shard with the fewest sessions, the
/// lower index on a tie, so the two launch sessions land on different
/// shards whether or not the router has yet dropped the connection
/// Fleet::start polled it with. The control connection is placed last.
bool connect_sessions(const std::string& endpoint, int n, Sessions* out,
                      std::string* error);

enum class Status : std::uint8_t { kNone, kOk, kRejected, kFailed };

/// What happened to each request of one phase, indexed like the schedule.
/// Completion callbacks write their own request's slots on the session
/// reader threads; the dispatcher reads them after `completed` says so.
struct RequestLog {
  explicit RequestLog(std::size_t n);

  std::vector<double> due;        ///< s after phase start
  std::vector<double> sent;       ///< s after phase start, at the call
  std::vector<double> self_late;  ///< s; see ProbeStats::self_late_p99_s
  std::vector<double> replied;    ///< s after phase start
  /// Stored last (release) by the callback; kNone until the reply is in.
  std::unique_ptr<std::atomic<Status>[]> status;
  std::vector<std::uint8_t> where;
  std::vector<double> finish_s;
  std::vector<std::uint32_t> session;
  std::unique_ptr<std::atomic<std::uint32_t>[]> answers;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> duplicates{0};
};

struct PhaseResult {
  std::shared_ptr<RequestLog> log;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
  /// Every ok reply named a known `where` and a finite, positive
  /// finish_time.
  bool replies_valid = true;
  double drain_s = 0.0;  ///< last due time to nothing outstanding
};

/// Send `schedule` (entry.session picks the launch session), then drain
/// with back-to-back flushes on the control connection until nothing is
/// outstanding or 60 s pass (the rest count as lost).
PhaseResult run_phase(Sessions& sessions,
                      const std::vector<ewc::loadgen::ScheduleEntry>& schedule,
                      const std::vector<ewc::gpusim::KernelDesc>& descs);

}  // namespace perfbench
