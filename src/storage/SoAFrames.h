//===- storage/SoAFrames.h - Structure-of-arrays frame storage --*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-of-arrays attribute frame storage for cohorts of same-shape
/// trees, modeled on GeNN's merged-group layout: when every member of a
/// cohort applies the identical production at the identical tree position,
/// one instruction stream drives them all, and the per-position attribute
/// slots become *lanes* — member-contiguous Value runs — so the merged
/// engine's inner loop walks memory linearly across the cohort.
///
/// Layout: positions are the level-order (BFS) node indices of the shared
/// tree shape. Position P owns LaneSlots[P] lanes of NumMembers values each
/// (the production's attribute + local slots, plus one lexeme pseudo-slot
/// when any rule of the production reads the lexeme), and one computed-bit
/// mask of (RealSlots[P] + 63) / 64 words. The mask is per-position, not
/// per-member: cohort members execute in lockstep, so their computed state
/// is identical by construction, and the words are laid out exactly like
/// TreeNode::ComputedBits so scatter is a straight word copy.
///
/// Header-only: the eval layer's merged engine uses this, and fnc2_storage
/// links against fnc2_eval (not the reverse), so adding a .cpp here would
/// cycle the link graph.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_STORAGE_SOAFRAMES_H
#define FNC2_STORAGE_SOAFRAMES_H

#include "value/Value.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace fnc2 {

/// One cohort's worth of SoA frames. layout() sizes it for a (shape,
/// members) pair; the same arena object is reused across cohort shards so
/// lane and mask capacity survives.
class SoAFrameArena {
public:
  /// Sizes the arena: \p RealSlots / \p LaneSlots give each position's
  /// frame slot count without / with the lexeme pseudo-slot, \p NumMembers
  /// the cohort shard width. Every lane value is reset to Value() and every
  /// mask bit to zero.
  void layout(std::span<const uint16_t> RealSlots,
              std::span<const uint16_t> LaneSlots, unsigned NumMembers) {
    assert(RealSlots.size() == LaneSlots.size() && "slot table mismatch");
    Members = NumMembers;
    const size_t P = LaneSlots.size();
    LaneBase.resize(P + 1);
    MaskBase.resize(P + 1);
    LaneBase[0] = MaskBase[0] = 0;
    for (size_t I = 0; I != P; ++I) {
      assert(LaneSlots[I] >= RealSlots[I] && "pseudo-slots only add lanes");
      LaneBase[I + 1] = LaneBase[I] + LaneSlots[I];
      MaskBase[I + 1] = MaskBase[I] + (RealSlots[I] + 63u) / 64u;
    }
    Values.assign(size_t(LaneBase[P]) * Members, Value());
    Mask.assign(MaskBase[P], 0);
  }

  unsigned numMembers() const { return Members; }
  size_t numPositions() const { return LaneBase.empty() ? 0 : LaneBase.size() - 1; }

  /// The member-contiguous value lane of (position, slot); lane[M] is
  /// member M's value.
  Value *lane(size_t Pos, unsigned Slot) {
    assert(Pos + 1 < LaneBase.size() &&
           LaneBase[Pos] + Slot < LaneBase[Pos + 1] && "lane out of range");
    return Values.data() + size_t(LaneBase[Pos] + Slot) * Members;
  }
  const Value *lane(size_t Pos, unsigned Slot) const {
    return const_cast<SoAFrameArena *>(this)->lane(Pos, Slot);
  }

  /// The position's computed-bit words, TreeNode::ComputedBits layout.
  uint64_t *mask(size_t Pos) { return Mask.data() + MaskBase[Pos]; }
  const uint64_t *mask(size_t Pos) const { return Mask.data() + MaskBase[Pos]; }
  unsigned maskWords(size_t Pos) const {
    return MaskBase[Pos + 1] - MaskBase[Pos];
  }

  void setComputed(size_t Pos, unsigned Slot) {
    assert((Slot >> 6) < maskWords(Pos) && "mask bit out of range");
    Mask[MaskBase[Pos] + (Slot >> 6)] |= uint64_t(1) << (Slot & 63);
  }
  bool computed(size_t Pos, unsigned Slot) const {
    return (Mask[MaskBase[Pos] + (Slot >> 6)] >> (Slot & 63)) & 1;
  }

  /// Drops the values (capacity kept) — lanes whose contents were moved out
  /// by scatter still hold empty Values, but failed runs may leave live
  /// ones behind.
  void clear() {
    Values.clear();
    Mask.clear();
    Members = 0;
  }

private:
  unsigned Members = 0;
  /// Prefix sums: position P's lanes are [LaneBase[P], LaneBase[P+1]), its
  /// mask words [MaskBase[P], MaskBase[P+1]).
  std::vector<uint32_t> LaneBase;
  std::vector<uint32_t> MaskBase;
  std::vector<Value> Values;
  std::vector<uint64_t> Mask;
};

} // namespace fnc2

#endif // FNC2_STORAGE_SOAFRAMES_H
