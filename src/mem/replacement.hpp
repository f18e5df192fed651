// Way masks: the currency of way-mask restricted insertion.
//
// The LLC model keeps true LRU (the paper assumes a standard LRU-replacement
// LLC) as per-set recency ranks inside mem::SetAssocCache; every scheme
// expresses its allocation as the mask of ways a core may insert into.
#pragma once

#include <cstdint>

namespace delta::mem {

using WayMask = std::uint32_t;  ///< Bit i set => way i eligible.

inline constexpr WayMask full_mask(int ways) {
  return ways >= 32 ? ~WayMask{0} : ((WayMask{1} << ways) - 1);
}

}  // namespace delta::mem
