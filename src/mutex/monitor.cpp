#include "mutex/monitor.hpp"

#include <utility>

#include "net/network.hpp"

namespace mobidist::mutex {

void CsMonitor::bind(net::Network& net, std::string label) {
  net_ = &net;
  label_ = std::move(label);
  auto& registry = net.metrics();
  wait_hist_ = &registry.histogram("mutex.cs_wait", obs::latency_buckets());
  grants_counter_ = &registry.counter("mutex.cs_grants");
  violations_counter_ = &registry.counter("mutex.cs_violations");
}

void CsMonitor::count_violation() noexcept {
  ++violations_;
  if (violations_counter_ != nullptr) ++*violations_counter_;
}

void CsMonitor::note_request(net::MhId mh, sim::SimTime now) {
  pending_requests_[mh].push_back(now);
  if (net_ != nullptr) {
    net_->emit({.kind = obs::EventKind::kCsRequest,
                .entity = obs::Entity::mh(net::index(mh)),
                .detail = label_});
  }
}

std::size_t CsMonitor::enter(net::MhId mh, std::uint64_t order_key, sim::SimTime now) {
  if (holder_.has_value()) count_violation();  // overlapping critical sections
  holder_ = mh;
  Grant grant{mh, order_key, 0, now, 0, false, false};
  if (auto it = pending_requests_.find(mh);
      it != pending_requests_.end() && !it->second.empty()) {
    grant.requested = it->second.front();
    grant.has_request_time = true;
    it->second.pop_front();
  }
  if (grants_counter_ != nullptr) ++*grants_counter_;
  if (wait_hist_ != nullptr && grant.has_request_time) {
    wait_hist_->record(grant.entered - grant.requested);
  }
  if (net_ != nullptr) {
    grant.enter_event = net_->emit({.kind = obs::EventKind::kCsEnter,
                                    .entity = obs::Entity::mh(net::index(mh)),
                                    .arg = order_key,
                                    .detail = label_});
  }
  history_.push_back(grant);
  holder_grant_ = history_.size() - 1;
  return history_.size() - 1;
}

double CsMonitor::mean_grant_latency() const noexcept {
  double total = 0;
  std::uint64_t counted = 0;
  for (const auto& grant : history_) {
    if (!grant.has_request_time) continue;
    total += static_cast<double>(grant.entered - grant.requested);
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

void CsMonitor::exit(std::size_t grant_index, sim::SimTime now) {
  if (grant_index >= history_.size() || history_[grant_index].done) {
    count_violation();  // exit without matching entry
    return;
  }
  history_[grant_index].exited = now;
  history_[grant_index].done = true;
  if (net_ != nullptr) {
    net_->emit({.kind = obs::EventKind::kCsExit,
                .entity = obs::Entity::mh(net::index(history_[grant_index].mh)),
                .cause = history_[grant_index].enter_event,
                .detail = label_});
  }
  if (holder_grant_ == grant_index) {
    holder_.reset();
    holder_grant_.reset();
  }
}

std::uint64_t CsMonitor::order_inversions() const noexcept {
  std::uint64_t inversions = 0;
  for (std::size_t i = 1; i < history_.size(); ++i) {
    if (history_[i].order_key < history_[i - 1].order_key) ++inversions;
  }
  return inversions;
}

}  // namespace mobidist::mutex
