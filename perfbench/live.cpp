#include "live.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Outstanding requests still unanswered this long after the last send
/// count as lost.
constexpr double kDrainTimeoutS = 60.0;

bool is_admission_rejection(const ewc::consolidate::CompletionReply& r) {
  return r.error.find("in-flight limit") != std::string::npos;
}

}  // namespace

RequestLog::RequestLog(std::size_t n)
    : due(n, 0.0),
      sent(n, 0.0),
      self_late(n, 0.0),
      replied(n, std::nan("")),
      status(new std::atomic<Status>[n]),
      where(n, 0),
      finish_s(n, 0.0),
      session(n, 0),
      answers(new std::atomic<std::uint32_t>[n]) {
  for (std::size_t i = 0; i < n; ++i) {
    status[i].store(Status::kNone);
    answers[i].store(0);
  }
}

bool connect_sessions(const std::string& endpoint, int n, Sessions* out,
                      std::string* error) {
  const auto timeout = ewc::common::Duration::from_seconds(20.0);
  for (int i = 0; i < n; ++i) {
    auto conn = ewc::server::ClientConnection::connect(
        endpoint, "perfbench-" + std::to_string(i), timeout, error);
    if (conn == nullptr) return false;
    out->launch.push_back(std::move(conn));
  }
  out->control = ewc::server::ClientConnection::connect(
      endpoint, "perfbench-control", timeout, error);
  return out->control != nullptr;
}

PhaseResult run_phase(Sessions& sessions,
                      const std::vector<ewc::loadgen::ScheduleEntry>& schedule,
                      const std::vector<ewc::gpusim::KernelDesc>& descs) {
  PhaseResult result;
  auto log = std::make_shared<RequestLog>(schedule.size());
  result.log = log;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);

  double prev_return = 0.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto& entry = schedule[i];
    const double due = entry.at_seconds;
    if (due - seconds_since(t0) > 50e-6) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due)));
    }
    const double sent_at = seconds_since(t0);
    log->due[i] = due;
    log->sent[i] = sent_at;
    log->self_late[i] = sent_at - std::max(due, prev_return);
    log->session[i] = entry.session;
    auto& conn = *sessions.launch[entry.session % sessions.launch.size()];
    ewc::consolidate::LaunchRequest req;
    req.owner = conn.owner();
    req.desc = descs[entry.mix_index];
    req.api_messages = 1;
    conn.launch_async(
        std::move(req),
        [log, i, t0](const ewc::consolidate::CompletionReply& reply) {
          const double at = seconds_since(t0);
          if (log->answers[i].fetch_add(1, std::memory_order_relaxed) > 0) {
            log->duplicates.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          log->replied[i] = at;
          Status status = Status::kFailed;
          if (reply.ok) {
            status = Status::kOk;
            log->where[i] = static_cast<std::uint8_t>(reply.where);
            log->finish_s[i] = reply.finish_time.seconds();
          } else if (is_admission_rejection(reply)) {
            status = Status::kRejected;
          }
          log->status[i].store(status, std::memory_order_release);
          log->completed.fetch_add(1, std::memory_order_release);
        });
    prev_return = seconds_since(t0);
  }

  const double last_due = schedule.empty() ? 0.0 : schedule.back().at_seconds;
  const auto flush_budget = ewc::common::Duration::from_seconds(5.0);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainTimeoutS));
  while (log->completed.load(std::memory_order_acquire) < schedule.size() &&
         Clock::now() < deadline) {
    sessions.control->flush(flush_budget);
  }
  result.drain_s = std::max(0.0, seconds_since(t0) - last_due);

  result.sent = schedule.size();
  result.dup = log->duplicates.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    switch (log->status[i].load(std::memory_order_acquire)) {
      case Status::kOk: {
        ++result.ok;
        const double f = log->finish_s[i];
        if (log->where[i] > 2 || !std::isfinite(f) || f <= 0.0) {
          result.replies_valid = false;
        }
        break;
      }
      case Status::kRejected:
        ++result.rejected;
        break;
      case Status::kFailed:
        ++result.failed;
        break;
      case Status::kNone:
        ++result.lost;
        break;
    }
  }
  return result;
}

}  // namespace perfbench
