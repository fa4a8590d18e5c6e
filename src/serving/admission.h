// Admission-control vocabulary for the serving runtime.
//
// A saturated server must degrade predictably: the newest request is shed
// with a typed, retryable rejection the client can back off on, running
// sessions are never disturbed, every shed is visible in ServerStats, and
// a shed request costs the server O(1) work.
#pragma once

#include <cstddef>
#include <string>

#include "net/frame.h"

namespace primer {

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
