// Cooperative cancellation.
//
// The protocol engine is a long straight-line computation.  A CancelToken
// is a flag that long-running loops poll at natural yield points —
// transport receive loops, protocol step boundaries, thread-pool chunk
// boundaries — and that another thread fires; the serving runtime's drain
// fires it at its deadline.  Cancellation is cooperative: code that never
// reaches a poll point (e.g. a wedged syscall) cannot be interrupted, but
// every protocol phase polls at frame granularity.
#pragma once

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace primer {

// Thrown at a poll point after the token was cancelled.  Deliberately not a
// ProtocolError: cancellation is a local decision, not a wire defect, so
// the restart loop (PrimerEngine::run_resilient) never retries it.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(const std::string& what)
      : std::runtime_error("OperationCancelled: " + what) {}
};

class CancelToken {
 public:
  void cancel(std::string reason) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (reason_.empty()) reason_ = std::move(reason);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  std::string reason() const {
    std::lock_guard<std::mutex> lk(mu_);
    return reason_;
  }

  // Throws OperationCancelled if the token fired.  `where` names the poll
  // point so the error localizes the interrupted work.
  void check(const std::string& where) const {
    if (!cancelled()) return;
    throw OperationCancelled(where + ": " + reason());
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    reason_.clear();
    cancelled_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

}  // namespace primer
