#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/ids.hpp"

namespace mobidist::group {

/// A process group of mobile hosts (§4). Membership is static for the
/// lifetime of the group — the paper explicitly separates the (solved)
/// membership problem from the (new) group-location problem.
struct Group {
  std::vector<net::MhId> members;  ///< sorted, unique

  /// True when `mh` is a member (binary search over `members`).
  [[nodiscard]] bool contains(net::MhId mh) const {
    return std::binary_search(members.begin(), members.end(), mh);
  }
  /// Number of members.
  [[nodiscard]] std::size_t size() const noexcept { return members.size(); }

  /// A group of `mhs`, sorted and with duplicates removed.
  [[nodiscard]] static Group of(std::vector<net::MhId> mhs) {
    std::sort(mhs.begin(), mhs.end());
    mhs.erase(std::unique(mhs.begin(), mhs.end()), mhs.end());
    return Group{std::move(mhs)};
  }
};

/// Observes group-message delivery; the oracle for the exactly-once /
/// at-least-once properties. Strategies report raw deliveries here
/// *after* their own duplicate suppression.
class DeliveryMonitor {
 public:
  /// Record that `sender` sent group message `msg_id`.
  void sent(std::uint64_t msg_id, net::MhId sender) {
    senders_[msg_id] = sender;
    ++sent_;
  }

  /// Record one delivery of `msg_id` to `member` (repeats count up).
  void delivered(std::uint64_t msg_id, net::MhId member) {
    ++deliveries_[msg_id][member];
  }

  /// Record one copy a strategy suppressed as a duplicate.
  void duplicate() noexcept { ++duplicates_suppressed_; }

  /// Group messages sent so far.
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
  /// Copies suppressed so far (see duplicate()).
  [[nodiscard]] std::uint64_t duplicates_suppressed() const noexcept {
    return duplicates_suppressed_;
  }

  /// Deliveries of `msg_id` to `member`.
  [[nodiscard]] std::uint64_t count(std::uint64_t msg_id, net::MhId member) const {
    const auto it = deliveries_.find(msg_id);
    if (it == deliveries_.end()) return 0;
    const auto jt = it->second.find(member);
    return jt == it->second.end() ? 0 : jt->second;
  }

  /// Every sent message reached every member except its sender exactly
  /// once.
  [[nodiscard]] bool exactly_once(const Group& group) const {
    for (const auto& [msg_id, sender] : senders_) {
      for (const auto member : group.members) {
        if (member == sender) continue;
        if (count(msg_id, member) != 1) return false;
      }
    }
    return true;
  }

  /// (message, member) pairs that never arrived.
  [[nodiscard]] std::uint64_t missing(const Group& group) const {
    std::uint64_t gaps = 0;
    for (const auto& [msg_id, sender] : senders_) {
      for (const auto member : group.members) {
        if (member == sender) continue;
        if (count(msg_id, member) == 0) ++gaps;
      }
    }
    return gaps;
  }

  /// (message, member) pairs delivered more than once.
  [[nodiscard]] std::uint64_t over_delivered(const Group& group) const {
    std::uint64_t extra = 0;
    for (const auto& [msg_id, sender] : senders_) {
      for (const auto member : group.members) {
        if (count(msg_id, member) > 1) ++extra;
      }
    }
    return extra;
  }

 private:
  std::map<std::uint64_t, net::MhId> senders_;
  std::map<std::uint64_t, std::map<net::MhId, std::uint64_t>> deliveries_;
  std::uint64_t sent_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
};

}  // namespace mobidist::group
