#pragma once
// MeteredNetwork: a forwarding comm::Network decorator the benchmark
// installs with DistributedSolver::set_network, in front of the
// fault-injecting resilience::FaultyNetwork.  It sees exactly what the
// solver puts on the wire — before any fault is applied — times every send
// and receive, and counts messages and bytes per (src, dst) pair, so the
// traffic can be checked exactly against decomp::build_halo_plan.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/network.hpp"
#include "decomp/partition.hpp"

namespace hemo::bench {

struct WireCounts {
  std::int64_t step_attempts = 0;  // begin_step calls (replays included)
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t receives = 0;       // receive calls, failed ones included
  std::int64_t failed_receives = 0;
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  /// Sends and the payload sizes seen per ordered pair.
  std::map<std::pair<Rank, Rank>, std::int64_t> sends_by_pair;
  std::map<std::pair<Rank, Rank>, std::vector<std::size_t>> sizes_by_pair;
};

class MeteredNetwork final : public comm::Network {
 public:
  explicit MeteredNetwork(std::unique_ptr<comm::Network> inner);

  const WireCounts& counts() const { return counts_; }
  comm::Network& inner() { return *inner_; }

  void begin_step(std::int64_t step) override;
  void send(Rank src, Rank dst, std::vector<double> payload) override;
  using comm::Network::receive;  // keep the size-checked overload visible
  std::vector<double> receive(Rank dst, Rank src) override;
  std::int64_t pending(Rank dst, Rank src) const override;
  bool drained() const override;
  void reset() override;

 private:
  std::unique_ptr<comm::Network> inner_;
  WireCounts counts_;
};

/// Checks metered traffic against the halo plan: only planned pairs carry
/// messages, every message holds the plan's values plus `frame_words` CRC
/// words, and the message total is step attempts x planned messages plus
/// `retransmits`.  Returns one line per discrepancy; empty means exact.
std::vector<std::string> check_wire_against_plan(const WireCounts& counts,
                                                 const decomp::HaloPlan& plan,
                                                 int frame_words,
                                                 std::int64_t retransmits);

}  // namespace hemo::bench
