// Admission-control vocabulary for the serving runtime.
//
// A saturated server must degrade predictably: either the newest request is
// shed with a typed, retryable rejection the client can back off on, or —
// when the operator prefers liveness of fresh traffic over stuck tenants —
// the longest-stalled in-flight session is evicted to make room.  Both
// decisions are visible in ServerStats, and a shed request costs the server
// O(1) work.
#pragma once

#include <cstddef>
#include <string>

#include "net/frame.h"

namespace primer {

// What the server does when admission limits are hit.
enum class LoadShedPolicy {
  // Refuse the incoming request with ServerOverloaded; running sessions are
  // never disturbed.  The default: strict isolation, clients retry later.
  kRejectNewest,
  // If some running session has shown no progress beat for longer than the
  // stall grace, cancel it (outcome kEvicted) and admit the newcomer; with
  // no stalled session to reclaim, fall back to rejecting the newcomer.
  kEvictLongestStalled,
};

// Typed, retryable admission rejection.  Retryable by design: overload is
// transient, and a client that backs off and resubmits may well be admitted
// — its checkpoint store (if any) is untouched by the shed.
class ServerOverloaded : public ProtocolError {
 public:
  ServerOverloaded(const std::string& why, std::size_t queue_depth,
                   std::size_t in_flight)
      : ProtocolError(ProtocolErrorKind::kServerOverloaded,
                      why + " (queue depth " + std::to_string(queue_depth) +
                          ", in flight " + std::to_string(in_flight) + ")"),
        queue_depth_(queue_depth),
        in_flight_(in_flight) {}

  std::size_t queue_depth() const { return queue_depth_; }
  std::size_t in_flight() const { return in_flight_; }

 private:
  std::size_t queue_depth_;
  std::size_t in_flight_;
};

}  // namespace primer
