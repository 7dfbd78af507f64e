#include "route/ripup_coloring.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

namespace maestro::route {

std::vector<std::vector<std::uint32_t>> color_first_fit(std::span<const TileRect> rects) {
  std::uint32_t tcols = 0;
  std::uint32_t trows = 0;
  for (const TileRect& r : rects) {
    tcols = std::max(tcols, r.tc1 + 1);
    trows = std::max(trows, r.tr1 + 1);
  }
  const std::size_t tiles = static_cast<std::size_t>(tcols) * trows;

  // occupied[w * tiles + t], bit j: batch 64w + j has a member touching
  // tile t. Word-major, so a new word of batches appends one block.
  std::vector<std::uint64_t> occupied;
  // Per distinct rectangle: every batch below the cursor conflicts with it.
  std::unordered_map<std::uint64_t, std::uint32_t> cursor;
  std::vector<std::vector<std::uint32_t>> batches;

  for (std::uint32_t pos = 0; pos < rects.size(); ++pos) {
    const TileRect& r = rects[pos];
    assert(r.tc1 < (1u << 16) && r.tr1 < (1u << 16));
    const std::uint64_t key = std::uint64_t{r.tc0} | std::uint64_t{r.tc1} << 16 |
                              std::uint64_t{r.tr0} << 32 | std::uint64_t{r.tr1} << 48;
    std::uint32_t& from = cursor[key];

    // Lowest batch >= from that no tile of r has occupied, a word at a time.
    std::uint32_t b = from;
    for (;;) {
      const std::size_t word = b / 64;
      if ((word + 1) * tiles > occupied.size()) break;  // nothing placed this high yet
      std::uint64_t busy = (std::uint64_t{1} << (b % 64)) - 1;  // below b: not candidates
      const std::uint64_t* block = occupied.data() + word * tiles;
      for (std::uint32_t tr = r.tr0; tr <= r.tr1; ++tr) {
        for (std::uint32_t tc = r.tc0; tc <= r.tc1; ++tc) {
          busy |= block[static_cast<std::size_t>(tr) * tcols + tc];
        }
      }
      if (busy != ~std::uint64_t{0}) {
        b = static_cast<std::uint32_t>(word * 64) + static_cast<std::uint32_t>(std::countr_one(busy));
        break;
      }
      b = static_cast<std::uint32_t>((word + 1) * 64);
    }
    assert(b <= batches.size());
    from = b + 1;

    if (b == batches.size()) {
      batches.emplace_back();
      if ((b / 64 + 1) * tiles > occupied.size()) occupied.resize((b / 64 + 1) * tiles, 0);
    }
    batches[b].push_back(pos);
    std::uint64_t* block = occupied.data() + (b / 64) * tiles;
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    for (std::uint32_t tr = r.tr0; tr <= r.tr1; ++tr) {
      for (std::uint32_t tc = r.tc0; tc <= r.tc1; ++tc) {
        block[static_cast<std::size_t>(tr) * tcols + tc] |= bit;
      }
    }
  }
  return batches;
}

}  // namespace maestro::route
