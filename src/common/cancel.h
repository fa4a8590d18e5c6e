// Cooperative cancellation.
//
// The protocol engine is a long straight-line computation.  A CancelToken
// is a flag another thread fires (the serving runtime's drain fires it at
// its deadline) and the protocol polls at every wire frame and every
// protocol step (SimDeadline, net/session.h).  Cancellation is
// cooperative: work between two polls, such as a parallel loop inside one
// step or a wedged syscall, runs to its end first.
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

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

}  // namespace primer
