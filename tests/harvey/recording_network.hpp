#pragma once
// RecordingNetwork: a comm::Network for tests that keeps a copy of every
// payload a solver sends.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "comm/network.hpp"

namespace hemo::harvey {

/// Forwards every call to an inner network and records every payload the
/// solver sends, with the step it was sent in, before the inner network
/// (which may damage it) sees it.
class RecordingNetwork : public comm::Network {
 public:
  explicit RecordingNetwork(std::unique_ptr<comm::Network> inner)
      : Network(inner->n_ranks()), inner_(std::move(inner)) {}
  struct Sent {
    std::int64_t step;
    Rank src;
    Rank dst;
    std::vector<double> payload;
  };
  void begin_step(std::int64_t step) override {
    step_ = step;
    inner_->begin_step(step);
  }
  void send(Rank src, Rank dst, std::vector<double> payload) override {
    sent.push_back(Sent{step_, src, dst, payload});
    inner_->send(src, dst, std::move(payload));
  }
  using Network::receive;
  std::vector<double> receive(Rank dst, Rank src) override {
    return inner_->receive(dst, src);
  }
  std::int64_t pending(Rank dst, Rank src) const override {
    return inner_->pending(dst, src);
  }
  bool drained() const override { return inner_->drained(); }
  void reset() override { inner_->reset(); }

  std::vector<Sent> sent;

 private:
  std::unique_ptr<comm::Network> inner_;
  std::int64_t step_ = -1;
};

}  // namespace hemo::harvey
