#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "group/group.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mobidist::group {

/// §4.1 Pure-search strategy: no location state at all. A sender fires a
/// point-to-point MH-to-MH message at every other member; each one
/// incurs a full search.
///
/// Cost per group message: (|G|-1) * (2*c_wireless + c_search) —
/// independent of mobility (MOB never appears), which is exactly what
/// the E5 bench shows against always-inform and location-view.
class PureSearchGroup {
 public:
  PureSearchGroup(net::Network& net, Group group,
                  net::ProtocolId proto = net::protocol::kGroupData);

  /// Send one group message from `sender` (must be a member). Callable
  /// from inside the simulation. Returns the message id.
  std::uint64_t send_group_message(net::MhId sender);

  /// The (static) group this strategy serves.
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  /// The delivery oracle every member delivery is reported to.
  [[nodiscard]] DeliveryMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const DeliveryMonitor& monitor() const noexcept { return monitor_; }

 private:
  class Agent;
  net::Network& net_;
  Group group_;
  DeliveryMonitor monitor_;
  std::vector<std::shared_ptr<Agent>> agents_;
  std::uint64_t next_msg_ = 1;
  obs::Counter& group_msgs_;  // "group.pure_search.group_msgs"
};

}  // namespace mobidist::group
