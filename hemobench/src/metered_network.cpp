#include "metered_network.hpp"

#include <algorithm>
#include <sstream>

#include "common.hpp"

namespace hemo::bench {

MeteredNetwork::MeteredNetwork(std::unique_ptr<comm::Network> inner)
    : comm::Network(inner->n_ranks()), inner_(std::move(inner)) {}

void MeteredNetwork::begin_step(std::int64_t step) {
  ++counts_.step_attempts;
  inner_->begin_step(step);
}

void MeteredNetwork::send(Rank src, Rank dst, std::vector<double> payload) {
  const std::size_t values = payload.size();
  const Clock::time_point t0 = Clock::now();
  inner_->send(src, dst, std::move(payload));
  counts_.send_seconds += seconds_since(t0);
  ++counts_.messages;
  counts_.bytes += static_cast<std::int64_t>(values * sizeof(double));
  ++counts_.sends_by_pair[{src, dst}];
  std::vector<std::size_t>& sizes = counts_.sizes_by_pair[{src, dst}];
  if (std::find(sizes.begin(), sizes.end(), values) == sizes.end())
    sizes.push_back(values);
}

std::vector<double> MeteredNetwork::receive(Rank dst, Rank src) {
  ++counts_.receives;
  const Clock::time_point t0 = Clock::now();
  try {
    std::vector<double> payload = inner_->receive(dst, src);
    counts_.recv_seconds += seconds_since(t0);
    return payload;
  } catch (...) {
    counts_.recv_seconds += seconds_since(t0);
    ++counts_.failed_receives;
    throw;
  }
}

std::int64_t MeteredNetwork::pending(Rank dst, Rank src) const {
  return inner_->pending(dst, src);
}

bool MeteredNetwork::drained() const { return inner_->drained(); }

void MeteredNetwork::reset() { inner_->reset(); }

std::vector<std::string> check_wire_against_plan(const WireCounts& counts,
                                                 const decomp::HaloPlan& plan,
                                                 int frame_words,
                                                 std::int64_t retransmits) {
  std::vector<std::string> problems;
  std::map<std::pair<Rank, Rank>, std::int64_t> planned;
  for (const decomp::HaloMessage& m : plan.messages)
    planned[{m.src, m.dst}] = m.values + frame_words;

  for (const auto& [pair, sizes] : counts.sizes_by_pair) {
    const auto it = planned.find(pair);
    if (it == planned.end()) {
      std::ostringstream msg;
      msg << "off-plan traffic " << pair.first << "->" << pair.second;
      problems.push_back(msg.str());
      continue;
    }
    for (const std::size_t size : sizes) {
      if (static_cast<std::int64_t>(size) == it->second) continue;
      std::ostringstream msg;
      msg << "message " << pair.first << "->" << pair.second << " carries "
          << size << " values, plan says " << it->second;
      problems.push_back(msg.str());
    }
  }
  for (const auto& [pair, values] : planned) {
    const auto it = counts.sends_by_pair.find(pair);
    const std::int64_t sent = it == counts.sends_by_pair.end() ? 0 : it->second;
    if (sent < counts.step_attempts) {
      std::ostringstream msg;
      msg << "pair " << pair.first << "->" << pair.second << " sent " << sent
          << " messages over " << counts.step_attempts << " step attempts";
      problems.push_back(msg.str());
    }
  }
  std::int64_t planned_bytes = 0;
  for (const auto& [pair, sent] : counts.sends_by_pair) {
    const auto it = planned.find(pair);
    if (it != planned.end())
      planned_bytes += sent * it->second *
                       static_cast<std::int64_t>(sizeof(double));
  }
  if (counts.bytes != planned_bytes) {
    std::ostringstream msg;
    msg << "sent " << counts.bytes << " bytes, plan sizes give "
        << planned_bytes;
    problems.push_back(msg.str());
  }
  const std::int64_t expected =
      counts.step_attempts * static_cast<std::int64_t>(plan.messages.size()) +
      retransmits;
  if (counts.messages != expected) {
    std::ostringstream msg;
    msg << "sent " << counts.messages << " messages, expected "
        << counts.step_attempts << " attempts x " << plan.messages.size()
        << " planned + " << retransmits << " retransmits = " << expected;
    problems.push_back(msg.str());
  }
  return problems;
}

}  // namespace hemo::bench
