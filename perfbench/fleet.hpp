// The server processes one benchmark run serves from: `ewcsim serve`
// shards, optionally behind one `ewcsim route`, spawned pinned to the
// server cores and always stopped (SIGTERM, then SIGKILL) and reaped.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Batch threshold of every shard, in every workload.
inline constexpr int kThreshold = 16;

/// Peak resident memory of one process (VmHWM), MB.
double peak_rss_mb(pid_t pid);

/// CPU time of every thread of a process, from each thread's
/// /proc/<pid>/task/<tid>/schedstat: the same user + sys time as
/// /proc/<pid>/stat, but in nanoseconds rather than 100 Hz ticks.
double thread_cpu_seconds(pid_t pid);

/// Which cores the driver and the servers run on. With four or more cores
/// the driver takes the first two and the servers the rest; below that both
/// share every core.
struct CoreSplit {
  cpu_set_t driver;
  cpu_set_t server;
  std::string text;  ///< e.g. "driver=0-1 server=2-3"
};
CoreSplit choose_core_split();

struct FleetSpec {
  std::string ewcsim;          ///< path of the ewcsim binary
  std::vector<std::string> workload_flags;  ///< "name=count" per --workload
  int shards = 1;
  bool router = false;
};

class Fleet {
 public:
  Fleet(FleetSpec spec, const cpu_set_t& server_cores);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawn every process and wait until each endpoint answers a hello (and,
  /// behind a router, until the router reports every shard alive). Returns
  /// the seconds that took, or a negative value with *error set.
  double start(std::string* error);
  /// SIGTERM every process, wait for it to exit (SIGKILL after a grace
  /// period) and remove the sockets.
  void stop();

  /// The endpoint clients dial: the router when there is one, else shard 0.
  std::string endpoint() const;
  bool has_router() const { return spec_.router; }
  /// pids of the shard processes, and of the router (-1 when none).
  std::vector<pid_t> shard_pids() const;
  pid_t router_pid() const;
  /// Every server process still running; false names the first that died.
  bool alive(std::string* which) const;

 private:
  struct Proc {
    std::string name;
    pid_t pid = -1;
  };
  pid_t spawn(const std::vector<std::string>& argv, const std::string& log);

  FleetSpec spec_;
  cpu_set_t cores_;
  std::vector<Proc> shards_;
  Proc router_;
};

}  // namespace perfbench
