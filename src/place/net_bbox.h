// Incremental per-pin-set bounding boxes for the temporal-placement
// annealer.
//
// The SA objective sums, per pin set (pin_sets.h: the distinct SMB sets of
// the design's nets, weighted), the half-perimeter of the bounding box of
// its SMBs. Recomputing a box from scratch is O(set size); with large sets
// that scan dominates the move loop. This kernel caches every set's box
// augmented with VPR-style boundary occupancy counts — how many of the
// set's SMBs sit exactly on each of the four box edges — so moving one SMB
// updates the box in O(1): a growing edge just moves to the SMB's new
// coordinate, an SMB landing on an edge increments its count, and an SMB
// leaving an edge decrements it. Only when the moved SMB was the *last*
// one on a shrinking edge is the new edge position unknown, and an O(set
// size) rescan of that axis runs.
//
// An SMB appears at most once per set, so a move shifts at most one pin of
// a set; a swap of two SMBs of the same set only exchanges their
// coordinates and leaves the box and its counts as they were.
//
// The boxes are pure integer state (min/max coordinates + counts), so the
// incrementally maintained box is exactly — not approximately — the box a
// from-scratch scan would produce, and any cost derived from it is
// bit-identical to a recompute of the pin-set objective.
//
// Rollback protocol: the cache never snapshots anything itself. A caller
// evaluating a speculative move copies the NetBox of every affected set,
// dry-runs the update on the copies (update_box), and commits them with
// store() only if the move is accepted — a rejected move never writes the
// cache. See Annealer::try_move.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "place/pin_sets.h"
#include "util/thread_pool.h"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define NANOMAP_BBOX_SSE2 1
#endif

namespace nanomap {

struct Placement;

// Bounding box of one pin set's SMBs plus edge-occupancy counts. An SMB
// whose coordinate equals an edge counts toward that edge; with a
// degenerate box (xmin == xmax) every SMB counts on both x edges, which
// keeps the update rules uniform. The field order — four edges then four counts — is
// load-bearing: the SSE2 update treats the struct as two 128-bit vectors,
// [xmin,xmax,ymin,ymax] and their counts.
struct NetBox {
  std::int32_t xmin = 0;
  std::int32_t xmax = 0;
  std::int32_t ymin = 0;
  std::int32_t ymax = 0;
  std::int32_t on_xmin = 0;  // SMBs with x == xmin
  std::int32_t on_xmax = 0;
  std::int32_t on_ymin = 0;
  std::int32_t on_ymax = 0;

  int hpwl() const { return (xmax - xmin) + (ymax - ymin); }

  friend bool operator==(const NetBox& a, const NetBox& b) {
    return a.xmin == b.xmin && a.xmax == b.xmax && a.ymin == b.ymin &&
           a.ymax == b.ymax && a.on_xmin == b.on_xmin &&
           a.on_xmax == b.on_xmax && a.on_ymin == b.on_ymin &&
           a.on_ymax == b.on_ymax;
  }
};

class NetBoxCache {
 public:
  // Builds the box of every set of `sets` (which must outlive the cache)
  // at `placement`. SMB coordinates are copied into flat per-SMB arrays —
  // a rescan never needs the site->x,y divisions — so after init the cache
  // no longer reads the placement: the caller reports coordinate changes
  // through set_smb_xy. Per-set boxes may be computed on `pool`
  // (independent writes to distinct slots).
  void init(const PinSets& sets, const Placement& placement,
            ThreadPool* pool = nullptr);

  int size() const { return static_cast<int>(boxes_.size()); }
  const NetBox& box(int set) const {
    return boxes_[static_cast<std::size_t>(set)];
  }

  int x_of(int smb) const { return xs_[static_cast<std::size_t>(smb)]; }
  int y_of(int smb) const { return ys_[static_cast<std::size_t>(smb)]; }

  // Records that `smb` now sits at (x, y). Call before the box updates of
  // a move (rescans read these coordinates) and again on rollback.
  void set_smb_xy(int smb, int x, int y) {
    xs_[static_cast<std::size_t>(smb)] = x;
    ys_[static_cast<std::size_t>(smb)] = y;
  }

  // Accounts for the SMB of `set` at (x_old, y_old) having moved to
  // (x_new, y_new), updating the cached box in place. Call AFTER
  // set_smb_xy for the moved SMB: a shrink-edge rescan reads the
  // coordinate mirror and must see the SMB at its new coordinates.
  void move_pin(int set, int x_old, int y_old, int x_new, int y_new) {
    update_box(&boxes_[static_cast<std::size_t>(set)], set, x_old, y_old,
               x_new, y_new, true, false);
  }

  // Two-site swap update applied to a caller-owned copy of `set`'s box:
  // `fwd` says the set holds the SMB that moved (fx,fy)->(tx,ty), `rev`
  // that it holds the SMB that moved the other way. Writing into `b`
  // instead of the cache is what makes speculative move evaluation cheap
  // — the annealer dry-runs every move on scratch copies and only
  // store()s them back on accept, so a rejected move never touches the
  // cached boxes at all. When both flags are set the two SMBs traded
  // coordinates and the box is unchanged. Requires set_smb_xy applied
  // for BOTH SMBs beforehand. Inline: this sits in the annealer's
  // innermost loop; only the rescan fallbacks are out-of-line calls.
  void update_box(NetBox* b, int set, int fx, int fy, int tx, int ty,
                  bool fwd, bool rev) const {
    if (fwd == rev) return;
    if (rev) {
      std::swap(fx, tx);
      std::swap(fy, ty);
    }
#ifdef NANOMAP_BBOX_SSE2
    // Both axes, all four edges and counts, in one branch-free shot. A
    // nonzero mask means some lane needed a shrink-edge rescan and
    // nothing was stored: rescan the bailing axis (or axes) directly,
    // then re-run the vector update with that axis neutralized (old ==
    // new makes its lanes a no-op) so the surviving axis still gets its
    // O(1) update. The re-run cannot bail — its only live axis already
    // passed the bail test on identical inputs.
    unsigned bail = move_pin_sse2(b, fx, fy, tx, ty);
    if (bail == 0) return;
    if ((bail & 0x00FFu) != 0) {
      rescan_x(set, b);
      fx = tx;
    }
    if ((bail & 0xFF00u) != 0) {
      rescan_y(set, b);
      fy = ty;
    }
    if (fx != tx || fy != ty) move_pin_sse2(b, fx, fy, tx, ty);
#else
    if (!move_axis(fx, tx, &b->xmin, &b->on_xmin, &b->xmax, &b->on_xmax))
      rescan_x(set, b);
    if (!move_axis(fy, ty, &b->ymin, &b->on_ymin, &b->ymax, &b->on_ymax))
      rescan_y(set, b);
#endif
  }

  // From-scratch box of `set` at the mirrored coordinates (rescan
  // fallback; also the audit oracle for the incremental state).
  NetBox compute_box(int set) const;

  // Writes a box into the cache slot of `set` — either committing a
  // dry-run update (move acceptance) or putting a saved snapshot back.
  void store(int set, const NetBox& b) {
    boxes_[static_cast<std::size_t>(set)] = b;
  }

 private:
#ifndef NANOMAP_BBOX_SSE2
  // One-axis update for an SMB moving from `old_c` to `new_c` within the
  // edge pair [*lo, *hi] and its counts (a no-op when old_c == new_c).
  // Returns false, with nothing written, when the SMB was the sole
  // occupant of a shrinking edge (new edge unknown → rescan). Written so
  // that everything except the rarely-taken rescan bail compiles to
  // conditional moves: the edge-coincidence comparisons are
  // data-dependent and would otherwise mispredict constantly in the move
  // loop.
  static bool move_axis(int old_c, int new_c, std::int32_t* lo,
                        std::int32_t* n_lo, std::int32_t* hi,
                        std::int32_t* n_hi) {
    if (new_c < old_c) {
      // Shrinking side: leaving the hi edge.
      bool on_hi = (old_c == *hi);
      if (on_hi && *n_hi == 1) return false;
      *n_hi -= static_cast<std::int32_t>(on_hi);
      // Growing side.
      bool grow = (new_c < *lo);
      *n_lo = grow ? 1 : *n_lo + static_cast<std::int32_t>(new_c == *lo);
      *lo = grow ? new_c : *lo;
    } else if (new_c > old_c) {
      bool on_lo = (old_c == *lo);
      if (on_lo && *n_lo == 1) return false;
      *n_lo -= static_cast<std::int32_t>(on_lo);
      bool grow = (new_c > *hi);
      *n_hi = grow ? 1 : *n_hi + static_cast<std::int32_t>(new_c == *hi);
      *hi = grow ? new_c : *hi;
    }
    return true;
  }
#else
  // One SMB of `b` moved (fx,fy)->(tx,ty), both axes at once. NetBox is
  // laid out as four edges then four counts, so the two 128-bit vectors
  // are [xmin,xmax,ymin,ymax] and their counts; all the edge-coincidence
  // comparisons that mispredict in scalar code become lane masks. An
  // unchanged axis degrades to a lane-wise no-op (its away/grow/arrive
  // masks all come out false). Returns the
  // bail byte-mask — nonzero (with the box completely untouched) when
  // some lane would empty a shrinking edge: bits 0-7 flag the x axis,
  // bits 8-15 the y axis, and the caller must rescan those.
  static unsigned move_pin_sse2(NetBox* b, int fx, int fy, int tx,
                                int ty) {
    __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&b->xmin));
    __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&b->on_xmin));
    const __m128i oldv = _mm_set_epi32(fy, fy, fx, fx);
    const __m128i newv = _mm_set_epi32(ty, ty, tx, tx);
    // Lanes 0 and 2 are the min edges, 1 and 3 the max edges.
    const __m128i lo_lane = _mm_set_epi32(0, -1, 0, -1);
    const __m128i ones = _mm_set1_epi32(1);
    __m128i gt = _mm_cmpgt_epi32(newv, oldv);  // new > old
    __m128i lt = _mm_cmpgt_epi32(oldv, newv);  // new < old
    // SMB moving away from its edge: off a min edge when growing the
    // coordinate, off a max edge when shrinking it.
    __m128i away = _mm_or_si128(_mm_and_si128(lo_lane, gt),
                                _mm_andnot_si128(lo_lane, lt));
    __m128i leaving = _mm_and_si128(_mm_cmpeq_epi32(oldv, e), away);
    __m128i bail = _mm_and_si128(leaving, _mm_cmpeq_epi32(c, ones));
    unsigned bail_mask = static_cast<unsigned>(_mm_movemask_epi8(bail));
    if (bail_mask != 0) return bail_mask;
    // SMB pushing an edge outward / landing exactly on one.
    __m128i below = _mm_cmpgt_epi32(e, newv);  // new < edge
    __m128i above = _mm_cmpgt_epi32(newv, e);  // new > edge
    __m128i grow = _mm_or_si128(_mm_and_si128(lo_lane, below),
                                _mm_andnot_si128(lo_lane, above));
    __m128i changed = _mm_or_si128(gt, lt);
    __m128i arrive =
        _mm_and_si128(_mm_cmpeq_epi32(newv, e), changed);
    // count' = grow ? 1 : count + arrive - leaving  (masks are -1).
    __m128i cc = _mm_add_epi32(_mm_sub_epi32(c, arrive), leaving);
    cc = _mm_or_si128(_mm_and_si128(grow, ones),
                      _mm_andnot_si128(grow, cc));
    __m128i ee = _mm_or_si128(_mm_and_si128(grow, newv),
                              _mm_andnot_si128(grow, e));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&b->xmin), ee);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&b->on_xmin), cc);
    return 0;
  }
#endif

  // Single-axis from-scratch rebuilds (shrink-edge rescan fallbacks);
  // deliberately out of line — they are the cold path.
  void rescan_x(int set, NetBox* b) const;
  void rescan_y(int set, NetBox* b) const;

  const PinSets* sets_ = nullptr;
  std::vector<NetBox> boxes_;
  std::vector<std::int32_t> xs_;  // smb -> x (mirror of the placement)
  std::vector<std::int32_t> ys_;  // smb -> y
};

}  // namespace nanomap
