#pragma once
// Rip-up coloring: bins a round's victim segments into batches whose search
// windows are pairwise disjoint, tested conservatively on square GCell
// tiles. Members of one batch cannot read or write an edge another member
// touches, so they may search concurrently against a frozen grid with the
// result of processing them one at a time.
//
// The batches are exactly those of the rescanning greedy that fills batch 0
// with every victim (in order) whose tiles are still free in it, then batch 1
// from the victims left over, and so on. color_first_fit builds the same
// partition, with the same member order, in one pass: each victim goes to
// the lowest-numbered batch where no earlier member shares one of its tiles.
// By induction on the victim index, a victim reaches batch k in one scheme
// iff it does in the other — batches below k hold the same earlier members
// in both, so it conflicts with each of them in both, and batch k holds the
// same earlier members, so it fits k in both.
//
// Cost: every tile keeps a bitset of the batches occupying it, and every
// distinct tile rectangle a cursor below which all batches are known to
// conflict with it. Occupancy only grows, so cursors only move up, and the
// whole coloring costs O(victims x tiles per rectangle + rectangles x
// batches / 64 x tiles per rectangle) — against O(victims x batches) for the
// rescanning greedy, which is quadratic when batches hold one segment each
// (a 32x32 grid has only 16 tiles).

#include <cstdint>
#include <span>
#include <vector>

#include "route/maze_arena.hpp"

namespace maestro::route {

/// Side, in GCells, of the square tiles coloring tests windows on.
inline constexpr std::uint32_t kColorTile = 8;

/// The inclusive range of coloring tiles a search window touches.
struct TileRect {
  std::uint32_t tc0 = 0;
  std::uint32_t tc1 = 0;
  std::uint32_t tr0 = 0;
  std::uint32_t tr1 = 0;
};

inline TileRect tile_rect(const SearchWindow& w) {
  return {w.col_lo / kColorTile, w.col_hi / kColorTile, w.row_lo / kColorTile,
          w.row_hi / kColorTile};
}

/// First-fit coloring of `rects` (in order): batches of indices into
/// `rects`, ascending within each batch, whose members are pairwise
/// tile-disjoint.
std::vector<std::vector<std::uint32_t>> color_first_fit(std::span<const TileRect> rects);

}  // namespace maestro::route
