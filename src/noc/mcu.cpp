#include "noc/mcu.hpp"

#include <cassert>

namespace delta::noc {

MemorySystem::MemorySystem(int num_mcus, int mesh_width, int mesh_height, McuConfig cfg) {
  assert(num_mcus >= 1);
  const auto n = static_cast<std::uint64_t>(num_mcus);
  interleave_ = Interleave{n, n - 1, (n & (n - 1)) == 0};
  mcus_.assign(static_cast<std::size_t>(num_mcus), MemoryController(cfg));
  attach_tiles_.resize(static_cast<std::size_t>(num_mcus));
  // Half the controllers on the top row, half on the bottom row, evenly
  // spaced in x.  With 4 MCUs on a 4x4 mesh: tiles 0, 2 (top), 12, 14
  // (bottom); with 8 on 8x8: 0, 2, 4, 6 and 56, 58, 60, 62.
  const int per_row = (num_mcus + 1) / 2;
  for (int i = 0; i < num_mcus; ++i) {
    const bool top = i < per_row;
    const int idx_in_row = top ? i : i - per_row;
    const int row_count = top ? per_row : num_mcus - per_row;
    const int stride = row_count > 0 ? mesh_width / row_count : mesh_width;
    const int x = std::min(idx_in_row * (stride > 0 ? stride : 1), mesh_width - 1);
    const int y = top ? 0 : mesh_height - 1;
    attach_tiles_[i] = y * mesh_width + x;
  }
}

}  // namespace delta::noc
