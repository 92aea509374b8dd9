#include "net/channel.hpp"

#include <algorithm>
#include <cassert>

namespace mobidist::net {

bool WseqDedup::deliver(std::uint64_t wseq) {
  if (wseq <= floor) return false;
  if (wseq == floor + 1 && above.empty()) {
    ++floor;  // in-order frame, nothing parked: the vector is untouched
    return true;
  }
  const auto pos = std::lower_bound(above.begin(), above.end(), wseq);
  if (pos != above.end() && *pos == wseq) return false;
  above.insert(pos, wseq);
  // Every parked wseq is above the floor, so the floor advances exactly
  // while the smallest parked one is floor + 1. `consumed` leading
  // entries are already below the floor and leave with the run.
  const auto advance = [this](std::size_t consumed) {
    while (consumed < above.size() && above[consumed] == floor + 1) {
      ++floor;
      ++consumed;
    }
    above.erase(above.begin(), above.begin() + static_cast<std::ptrdiff_t>(consumed));
  };
  advance(0);
  // Bound the parked set: a gap older than the retransmit window can
  // never fill (its sender abandoned the frame), so declare the oldest
  // gap lost and jump the floor to the smallest parked wseq.
  while (above.size() > kRetransmitWindow) {
    floor = above.front();
    advance(1);
  }
  assert(above.size() <= kRetransmitWindow);
  return true;
}

}  // namespace mobidist::net
