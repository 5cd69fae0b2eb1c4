#include "fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "server/client.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::string cpu_list(const std::vector<int>& cpus) {
  if (cpus.empty()) return "-";
  std::string s = std::to_string(cpus.front());
  if (cpus.size() > 1) {
    s += '-';
    s += std::to_string(cpus.back());
  }
  return s;
}

std::string shard_socket(int i) { return "shard" + std::to_string(i) + ".sock"; }
constexpr const char* kRouterSocket = "router.sock";
/// Per-client admission limit. Set high enough that a probe near the knee
/// misses the latency SLO before admission starts rejecting, so the SLO,
/// not this limit, decides capacity.
constexpr int kInflight = 4096;

/// Reap `pid`, waiting up to `grace` after the signal already sent; then
/// SIGKILL and wait for it.
void reap(pid_t pid, std::chrono::milliseconds grace) {
  const auto deadline = Clock::now() + grace;
  while (Clock::now() < deadline) {
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double thread_cpu_seconds(pid_t pid) {
  double ns = 0.0;
  std::error_code ec;
  const std::filesystem::path tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu_ns = 0.0;
    if (in >> on_cpu_ns) ns += on_cpu_ns;
  }
  return ns * 1e-9;
}

CoreSplit choose_core_split() {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  ::sched_getaffinity(0, sizeof mine, &mine);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mine)) cpus.push_back(c);
  }
  CoreSplit split;
  CPU_ZERO(&split.driver);
  CPU_ZERO(&split.server);
  if (cpus.size() >= 4) {
    const std::vector<int> driver(cpus.begin(), cpus.begin() + 2);
    const std::vector<int> server(cpus.begin() + 2, cpus.end());
    for (int c : driver) CPU_SET(c, &split.driver);
    for (int c : server) CPU_SET(c, &split.server);
    split.text = "driver=" + cpu_list(driver) + " server=" + cpu_list(server);
  } else {
    split.driver = mine;
    split.server = mine;
    split.text = "shared=" + cpu_list(cpus);
  }
  return split;
}

Fleet::Fleet(FleetSpec spec, const cpu_set_t& server_cores)
    : spec_(std::move(spec)), cores_(server_cores) {}

Fleet::~Fleet() { stop(); }

pid_t Fleet::spawn(const std::vector<std::string>& argv,
                   const std::string& log) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::sched_setaffinity(0, sizeof cores_, &cores_);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

double Fleet::start(std::string* error) {
  stop();
  const auto t0 = Clock::now();
  for (int i = 0; i < spec_.shards; ++i) {
    const std::string sock = shard_socket(i);
    ::unlink(sock.c_str());
    std::vector<std::string> argv = {spec_.ewcsim, "serve", "--socket", sock,
                                     "--threshold",
                                     std::to_string(kThreshold),
                                     "--inflight",
                                     std::to_string(kInflight)};
    for (const auto& w : spec_.workload_flags) {
      argv.push_back("--workload");
      argv.push_back(w);
    }
    const std::string name = "shard" + std::to_string(i);
    shards_.push_back({name, spawn(argv, name + ".err")});
  }
  if (spec_.router) {
    ::unlink(kRouterSocket);
    std::vector<std::string> argv = {spec_.ewcsim, "route", "--listen",
                                     kRouterSocket};
    for (int i = 0; i < spec_.shards; ++i) {
      argv.push_back("--shard");
      argv.push_back(shard_socket(i));
    }
    router_ = {"router", spawn(argv, "router.err")};
  }

  const auto timeout = ewc::common::Duration::from_seconds(20.0);
  auto hello = [&](const std::string& ep) {
    std::string err;
    auto conn = ewc::server::ClientConnection::connect(ep, "perfbench-ready",
                                                       timeout, &err);
    if (conn == nullptr && error) *error = ep + ": " + err;
    return conn;
  };
  for (int i = 0; i < spec_.shards; ++i) {
    if (hello(shard_socket(i)) == nullptr) return -1.0;
  }
  if (spec_.router) {
    auto conn = hello(kRouterSocket);
    if (conn == nullptr) return -1.0;
    const auto deadline = t0 + std::chrono::seconds(20);
    for (;;) {
      const auto stats = conn->stats(false, timeout);
      if (stats.has_value()) {
        const auto it = stats->counters.find("router.shards_alive");
        if (it != stats->counters.end() && it->second >= spec_.shards) break;
      }
      if (Clock::now() > deadline) {
        if (error) *error = "router never reported every shard alive";
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Fleet::stop() {
  std::vector<Proc*> procs;
  if (router_.pid > 0) procs.push_back(&router_);
  for (auto& s : shards_) {
    if (s.pid > 0) procs.push_back(&s);
  }
  for (Proc* p : procs) ::kill(p->pid, SIGTERM);
  for (Proc* p : procs) {
    reap(p->pid, std::chrono::milliseconds(15000));
    p->pid = -1;
  }
  shards_.clear();
  router_ = Proc{};
  for (int i = 0; i < spec_.shards; ++i) ::unlink(shard_socket(i).c_str());
  if (spec_.router) ::unlink(kRouterSocket);
}

std::string Fleet::endpoint() const {
  return spec_.router ? kRouterSocket : shard_socket(0);
}

std::vector<pid_t> Fleet::shard_pids() const {
  std::vector<pid_t> pids;
  for (const auto& s : shards_) pids.push_back(s.pid);
  return pids;
}

pid_t Fleet::router_pid() const { return router_.pid; }

bool Fleet::alive(std::string* which) const {
  std::vector<const Proc*> procs;
  for (const auto& s : shards_) procs.push_back(&s);
  if (router_.pid > 0) procs.push_back(&router_);
  for (const Proc* p : procs) {
    if (p->pid <= 0 || ::waitpid(p->pid, nullptr, WNOHANG) != 0) {
      if (which) *which = p->name;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
