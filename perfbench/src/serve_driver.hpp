// Closed-loop loopback client for the serve_mixed workload.
//
// One thread multiplexes every connection with poll(2): connection 0 is
// lockstep (untagged, one bid in flight), the rest are pipelined (tagged,
// a fixed window each). Bids leave in trace order; before a bid is queued
// on its connection the driver advances the server's VirtualPacingClock to
// the bid's trace arrival, so sim-time density is fixed by the trace and
// not by how fast the server answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/pacing_clock.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/// "<runtime> <value> <decay> <bound>" at %.17g — the BID arguments of a
/// trace task, so the server rebuilds it bit-for-bit.
std::string bid_body(const mbts::Task& task);

/// Opens `count` non-blocking TCP_NODELAY connections to 127.0.0.1:port.
/// Returns an empty vector (closing any it opened) on failure.
std::vector<int> connect_loopback(std::uint16_t port, std::size_t count);
void close_all(std::vector<int>& fds);

struct DriveResult {
  /// Empty when the drive completed; else why it stopped.
  std::string error;
  /// First send to last reply.
  double wall_s = 0.0;
  std::vector<double> pipelined_ms;
  std::vector<double> lockstep_ms;
  /// Bids answered AWARD/REJECT exactly once.
  std::uint64_t answered = 0;
  /// Replies that were anything else (BUSY, ERR, ...), duplicate or
  /// unknown tags, and bids never answered.
  std::uint64_t bad = 0;
};

/// Drives every bid of `trace` over `fds` (fds[0] lockstep, the rest
/// pipelined with `window` tags in flight each).
DriveResult drive_closed_loop(const std::vector<int>& fds,
                              const mbts::Trace& trace,
                              const std::vector<std::string>& bodies,
                              std::size_t window,
                              mbts::VirtualPacingClock& clock);

}  // namespace perfbench
