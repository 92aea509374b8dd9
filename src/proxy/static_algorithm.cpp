#include "proxy/static_algorithm.hpp"

namespace mobidist::proxy {

using net::MhId;
using net::MssId;

ProxiedLamport::ProxiedLamport(net::Network& net, ProxyService& proxies,
                               mutex::CsMonitor& monitor, mutex::MutexOptions opts)
    : net_(net), proxies_(proxies), monitor_(monitor), opts_(opts) {
  monitor.bind(net, "proxy");
  const std::uint32_t m = net.num_mss();
  pending_.resize(m);
  next_req_.assign(m, 1);
  engines_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    auto engine = std::make_unique<mutex::LamportEngine>(i, m);
    engine->set_send([this, i](std::uint32_t peer, const mutex::LamportMsg& msg) {
      proxies_.peer_send(static_cast<MssId>(i), static_cast<MssId>(peer), Wire{msg});
    });
    engine->set_on_acquired([this, i](std::uint64_t req_id, std::uint64_t ts) {
      const auto it = pending_[i].find(req_id);
      if (it == pending_[i].end()) return;  // aborted meanwhile
      // The grant travels through the proxy layer; if the MH turns out
      // to be disconnected we are notified and release on its behalf.
      proxies_.proxy_send(static_cast<MssId>(i), it->second,
                          Granted{req_id, static_cast<MssId>(i), ts},
                          net::SendPolicy::kNotifyIfDisconnected);
    });
    engines_.push_back(std::move(engine));
  }
  proxies_.set_proxy_handler([this](MssId proxy, MhId from, const std::any& body) {
    on_client_message(proxy, from, body);
  });
  proxies_.set_client_handler(
      [this](MhId self, const std::any& body) { on_down_message(self, body); });
  proxies_.set_peer_handler([this](MssId self, MssId from, const std::any& body) {
    on_peer_message(self, from, body);
  });
  proxies_.set_unreachable_handler([this](MssId proxy, MhId mh, const std::any& body) {
    on_unreachable(proxy, mh, body);
  });
}

void ProxiedLamport::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  proxies_.client_send(mh, InitReq{});
}

void ProxiedLamport::on_client_message(MssId proxy, MhId from, const std::any& body) {
  const auto index = net::index(proxy);
  if (std::any_cast<InitReq>(&body) != nullptr) {
    const std::uint64_t req_id = next_req_[index]++;
    pending_[index].emplace(req_id, from);
    engines_[index]->submit(req_id);
    return;
  }
  if (const auto* release = std::any_cast<ReleaseReq>(&body)) {
    // With a local-MSS scope the MH may have moved since the grant: the
    // release lands at its *current* proxy, which relays it to the home
    // engine over the wire (the L2 release-resource relay, one c_fixed).
    if (release->home != proxy) {
      proxies_.peer_send(proxy, release->home, *release);
      return;
    }
    finish_release(*release);
    return;
  }
}

void ProxiedLamport::finish_release(const ReleaseReq& release) {
  const auto index = net::index(release.home);
  if (pending_[index].erase(release.req_id) > 0) {
    ++completed_;
    engines_[index]->release(release.req_id);
  }
}

void ProxiedLamport::on_down_message(MhId self, const std::any& body) {
  const auto* granted = std::any_cast<Granted>(&body);
  if (granted == nullptr) return;
  const std::uint64_t key = (granted->ts << 20) | net::index(granted->home);
  const std::size_t grant = monitor_.enter(self, key, net_.sched().now());
  net_.sched().schedule(opts_.cs_hold, [this, self, grant, msg = *granted] {
    monitor_.exit(grant, net_.sched().now());
    proxies_.client_send(self, ReleaseReq{msg.req_id, msg.home});
  });
}

void ProxiedLamport::on_peer_message(MssId self, MssId from, const std::any& body) {
  if (const auto* wire = std::any_cast<Wire>(&body)) {
    engines_[net::index(self)]->on_message(net::index(from), wire->msg);
    return;
  }
  if (const auto* release = std::any_cast<ReleaseReq>(&body)) {
    finish_release(*release);
    return;
  }
}

void ProxiedLamport::on_unreachable(MssId proxy, MhId /*mh*/, const std::any& body) {
  const auto* granted = std::any_cast<Granted>(&body);
  if (granted == nullptr) return;
  const auto index = net::index(granted->home);
  (void)proxy;
  if (pending_[index].erase(granted->req_id) > 0) {
    ++aborted_;
    engines_[index]->release(granted->req_id);
  }
}

// --- ProxiedPathRev ---------------------------------------------------------

ProxiedPathRev::ProxiedPathRev(net::Network& net, ProxyService& proxies,
                               mutex::CsMonitor& monitor, mutex::MutexOptions opts)
    : net_(net),
      proxies_(proxies),
      monitor_(monitor),
      opts_(opts),
      claim_hops_counter_(net.metrics().counter("proxy.pathrev.claim_hops")),
      token_passes_counter_(net.metrics().counter("proxy.pathrev.token_passes")) {
  monitor.bind(net, label());
  const std::uint32_t m = net.num_mss();
  pending_.assign(net.num_mh(), 0);
  engines_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    engines_.push_back(std::make_unique<mutex::PathRevEngine>(
        i, /*has_token=*/i == 0, i == 0 ? mutex::PathRevEngine::kNoNode : 0,
        mutex::PathRevEngine::Hooks{
            [this, i](std::uint32_t to, std::uint32_t origin) {
              ++claim_hops_counter_;
              net_.emit({.kind = obs::EventKind::kReqForward,
                         .entity = obs::Entity::mss(i),
                         .peer = obs::Entity::mss(to),
                         .arg = origin,
                         .detail = label()});
              proxies_.peer_send(static_cast<MssId>(i), static_cast<MssId>(to),
                                 ClaimWire{origin});
            },
            [this, i](std::uint32_t to) {
              const std::uint64_t serial = ++transfers_;
              ++token_passes_counter_;
              net_.emit({.kind = obs::EventKind::kTokenDepart,
                         .entity = obs::Entity::mss(i),
                         .peer = obs::Entity::mss(to),
                         .arg = serial,
                         .detail = label()});
              proxies_.peer_send(static_cast<MssId>(i), static_cast<MssId>(to),
                                 TokenWire{serial});
            },
            [this, i](MhId mh) {
              const std::uint64_t serial = ++transfers_;
              net_.emit({.kind = obs::EventKind::kTokenDepart,
                         .entity = obs::Entity::mss(i),
                         .peer = obs::Entity::mh(net::index(mh)),
                         .arg = serial,
                         .detail = label()});
              proxies_.proxy_send(static_cast<MssId>(i), mh,
                                  GrantDown{static_cast<MssId>(i), serial},
                                  net::SendPolicy::kNotifyIfDisconnected);
            },
            [this, i](std::uint32_t new_father) {
              net_.emit({.kind = obs::EventKind::kPathReversal,
                         .entity = obs::Entity::mss(i),
                         .peer = obs::Entity::mss(new_father),
                         .detail = label()});
            },
        }));
  }
  // The injection: node 0 starts with the token.
  net_.emit({.kind = obs::EventKind::kTokenArrive,
             .entity = obs::Entity::mss(0),
             .arg = 0,
             .detail = label()});
  proxies_.set_proxy_handler([this](MssId proxy, MhId from, const std::any& body) {
    on_client_message(proxy, from, body);
  });
  proxies_.set_client_handler(
      [this](MhId self, const std::any& body) { on_down_message(self, body); });
  proxies_.set_peer_handler([this](MssId self, MssId from, const std::any& body) {
    on_peer_message(self, from, body);
  });
  proxies_.set_unreachable_handler([this](MssId proxy, MhId mh, const std::any& body) {
    on_unreachable(proxy, mh, body);
  });
}

void ProxiedPathRev::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  ++pending_[net::index(mh)];
  proxies_.client_send(mh, ReqUp{});
}

void ProxiedPathRev::token_arrived_at(MssId node, std::uint64_t serial) {
  net_.emit({.kind = obs::EventKind::kTokenArrive,
             .entity = obs::Entity::mss(net::index(node)),
             .arg = serial,
             .detail = label()});
}

void ProxiedPathRev::on_client_message(MssId proxy, MhId from, const std::any& body) {
  if (std::any_cast<ReqUp>(&body) != nullptr) {
    engines_[net::index(proxy)]->local_request(from);
    return;
  }
  if (const auto* ret = std::any_cast<ReturnUp>(&body)) {
    // With a local-MSS scope the MH may have moved since the grant: the
    // return lands at its *current* proxy, which relays it home.
    if (ret->home != proxy) {
      proxies_.peer_send(proxy, ret->home, ReturnWire{ret->home, ret->serial});
      return;
    }
    token_arrived_at(proxy, ret->serial);
    engines_[net::index(proxy)]->grant_done();
    return;
  }
}

void ProxiedPathRev::on_down_message(MhId self, const std::any& body) {
  const auto* grant = std::any_cast<GrantDown>(&body);
  if (grant == nullptr) return;
  const auto arrive_id = net_.emit({.kind = obs::EventKind::kTokenArrive,
                                    .entity = obs::Entity::mh(net::index(self)),
                                    .arg = grant->serial,
                                    .detail = label()});
  auto return_token = [this, self, home = grant->home, serial = grant->serial] {
    net_.emit({.kind = obs::EventKind::kTokenDepart,
               .entity = obs::Entity::mh(net::index(self)),
               .peer = obs::Entity::mss(net::index(home)),
               .arg = serial,
               .detail = label()});
    proxies_.client_send(self, ReturnUp{home, serial});
  };
  auto& pending = pending_[net::index(self)];
  if (pending == 0) {
    return_token();  // defensive: never enter the CS on a surplus grant
    return;
  }
  --pending;
  const std::size_t cs = monitor_.enter(self, grant->serial, net_.sched().now());
  net_.sched().schedule(opts_.cs_hold, [this, cs, arrive_id, return_token] {
    obs::CauseScope scope(net_.events(), arrive_id);
    monitor_.exit(cs, net_.sched().now());
    ++completed_;
    return_token();
  });
}

void ProxiedPathRev::on_peer_message(MssId self, MssId /*from*/, const std::any& body) {
  const auto index = net::index(self);
  if (const auto* claim = std::any_cast<ClaimWire>(&body)) {
    engines_[index]->on_claim(claim->origin);
    return;
  }
  if (const auto* token = std::any_cast<TokenWire>(&body)) {
    token_arrived_at(self, token->serial);
    engines_[index]->on_token();
    return;
  }
  if (const auto* ret = std::any_cast<ReturnWire>(&body)) {
    token_arrived_at(self, ret->serial);
    engines_[index]->grant_done();
    return;
  }
}

void ProxiedPathRev::on_unreachable(MssId /*proxy*/, MhId mh, const std::any& body) {
  const auto* grant = std::any_cast<GrantDown>(&body);
  if (grant == nullptr) return;
  // Abort on the MH's behalf (the ProxiedLamport obligation): the token
  // bounces back to the granting engine and the request is dropped. The
  // arrival is booked at the grant's home — the depart_from endpoint the
  // conservation checker accepts for a bounce.
  ++aborted_;
  auto& pending = pending_[net::index(mh)];
  if (pending > 0) --pending;
  net_.ledger().charge_fixed();  // the modeled token-return message
  token_arrived_at(grant->home, grant->serial);
  engines_[net::index(grant->home)]->grant_done();
}

}  // namespace mobidist::proxy
