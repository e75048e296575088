#include "place/annealer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/trace.h"

namespace nanomap {

Annealer::Annealer(const PinSets& sets, const Placement& initial, Rng* rng,
                   ThreadPool* pool, const PlaceLegality* legal)
    : sets_(sets), placement_(initial), rng_(rng), legal_(legal) {
  NM_CHECK(rng != nullptr);
  smb_at_site_.assign(static_cast<std::size_t>(placement_.grid.sites()), -1);
  for (int m = 0; m < sets.num_smbs; ++m) {
    int site = placement_.site_of_smb[static_cast<std::size_t>(m)];
    NM_CHECK_MSG(smb_at_site_[static_cast<std::size_t>(site)] == -1,
                 "two SMBs on site " << site);
    smb_at_site_[static_cast<std::size_t>(site)] = m;
  }
  // Incident lists, ascending by set index.
  sets_of_.assign(static_cast<std::size_t>(sets.num_smbs), {});
  for (int s = 0; s < sets.size(); ++s)
    for (int m : sets.smbs(s))
      sets_of_[static_cast<std::size_t>(m)].push_back(s);
  // Sentinel entry terminating every list: the swap-move merge in
  // try_move runs branch-light off it (no per-step bounds checks).
  for (std::vector<int>& list : sets_of_)
    list.push_back(std::numeric_limits<int>::max());

  boxes_.init(sets_, placement_, pool);
  // Reduce in set order: bit-identical to pin_set_cost() at any thread
  // count.
  cost_ = 0.0;
  cost_of_.reserve(static_cast<std::size_t>(sets_.size()));
  for (int s = 0; s < sets_.size(); ++s) {
    cost_of_.push_back(cached_set_cost(s));
    cost_ += cost_of_.back();
  }

  // Move-loop scratch: a move touches at most the union of two incident
  // lists, so this sizing makes try_move allocation-free.
  std::size_t max_incident = 0;
  for (const std::vector<int>& list : sets_of_)
    max_incident = std::max(max_incident, list.size());
  touched_sets_.resize(2 * max_incident);
  touched_boxes_.resize(2 * max_incident);
  touched_costs_.resize(2 * max_incident);
  set_stamp_.assign(static_cast<std::size_t>(sets_.size()), 0);
}

double Annealer::cost() const {
  double c = 0.0;
  for (int s = 0; s < sets_.size(); ++s) c += cached_set_cost(s);
  return c;
}

bool Annealer::try_move(double t, int rlim) {
  ++moves_attempted_;
  if (sets_.num_smbs == 0) return false;
  int smb = static_cast<int>(rng_->next_below(
      static_cast<std::uint64_t>(sets_.num_smbs)));
  int from = placement_.site_of_smb[static_cast<std::size_t>(smb)];
  int fx = boxes_.x_of(smb);  // mirror of from % width / from / width
  int fy = boxes_.y_of(smb);
  int tx = std::clamp(fx + rng_->next_int(-rlim, rlim), 0,
                      placement_.grid.width - 1);
  int ty = std::clamp(fy + rng_->next_int(-rlim, rlim), 0,
                      placement_.grid.height - 1);
  int to = ty * placement_.grid.width + tx;
  if (to == from) return false;
  int other = smb_at_site_[static_cast<std::size_t>(to)];
  // Defective fabric: refuse any move/swap landing an SMB on a site it
  // cannot legally occupy. Sits after the coordinate draws and before
  // the acceptance draw so a defect-free run replays the exact
  // historical RNG stream.
  if (legal_ != nullptr &&
      (!legal_->ok(to, smb) || (other >= 0 && !legal_->ok(from, other)))) {
    NM_TRACE_COUNT("place.defect_rejects", 1);
    return false;
  }

#ifdef NANOMAP_AUDIT_COST
  ++move_gen_;
#endif
  n_touched_ = 0;

  // Apply the placement flip (and the cache's coordinate mirror) up front
  // so any shrink-edge rescan inside the box updates below reads every
  // pin at its final site.
  placement_.site_of_smb[static_cast<std::size_t>(smb)] = to;
  smb_at_site_[static_cast<std::size_t>(to)] = smb;
  smb_at_site_[static_cast<std::size_t>(from)] = other;  // -1 if plain move
  boxes_.set_smb_xy(smb, tx, ty);
  if (other >= 0) {
    placement_.site_of_smb[static_cast<std::size_t>(other)] = from;
    boxes_.set_smb_xy(other, fx, fy);
  }

  // Single pass over the affected sets in ascending set order — for a
  // swap, a two-way merge of the two sentinel-terminated sorted incident
  // lists, written so the take-left/take-right selection compiles to
  // conditional moves instead of an unpredictable branch ladder. Per set:
  // fold its pre-move cost into `before`, dry-run the box update on a
  // scratch copy in touched_, fold the post-move cost into `after`. The
  // cached boxes themselves are untouched until the move is accepted, so
  // rejection needs no box rollback at all.
  double before = 0.0;
  double after = 0.0;
  auto process = [&](int set, bool fwd, bool rev) {
    std::size_t n = static_cast<std::size_t>(set);
#ifdef NANOMAP_AUDIT_COST
    // The merge (and the duplicate-free incident lists) guarantee each
    // set is visited at most once per move; the generation stamp only
    // verifies that invariant in audit builds — release pays nothing.
    NM_CHECK_MSG(set_stamp_[n] != move_gen_,
                 "set " << set << " visited twice in one move");
    set_stamp_[n] = move_gen_;
#endif
    int k = n_touched_++;
    touched_sets_[static_cast<std::size_t>(k)] = set;
    NetBox& nb = touched_boxes_[static_cast<std::size_t>(k)];
    nb = boxes_.box(set);
    before += cost_of_[n];
    boxes_.update_box(&nb, set, fx, fy, tx, ty, fwd, rev);
    double nc = sets_.weight[n] * static_cast<double>(nb.hpwl());
    touched_costs_[static_cast<std::size_t>(k)] = nc;
    after += nc;
  };
  const std::vector<int>& mine = sets_of_[static_cast<std::size_t>(smb)];
  if (other >= 0) {
    const std::vector<int>& theirs =
        sets_of_[static_cast<std::size_t>(other)];
    std::size_t i = 0, j = 0;
    const std::size_t last = mine.size() + theirs.size() - 2;
    while (i + j < last) {
      int a = mine[i];
      int b = theirs[j];
      bool take_a = a <= b;
      bool take_b = b <= a;  // both when the set holds both SMBs
      process(take_a ? a : b, take_a, take_b);
      i += static_cast<std::size_t>(take_a);
      j += static_cast<std::size_t>(take_b);
    }
  } else {
    for (std::size_t k = 0; k + 1 < mine.size(); ++k)
      process(mine[k], true, false);
  }

  double delta = after - before;
  if (delta <= 0.0 ||
      (t > 0.0 && rng_->next_double() < std::exp(-delta / t))) {
    // Commit the dry-run boxes and their cached cost products.
    for (int k = 0; k < n_touched_; ++k) {
      std::size_t kk = static_cast<std::size_t>(k);
      boxes_.store(touched_sets_[kk], touched_boxes_[kk]);
      cost_of_[static_cast<std::size_t>(touched_sets_[kk])] =
          touched_costs_[kk];
    }
    cost_ += delta;
    ++moves_accepted_;
    return true;
  }

  // Reject: roll back placement, site map and coordinate mirror; the
  // cached boxes were never written.
  placement_.site_of_smb[static_cast<std::size_t>(smb)] = from;
  smb_at_site_[static_cast<std::size_t>(from)] = smb;
  boxes_.set_smb_xy(smb, fx, fy);
  if (other >= 0) {
    placement_.site_of_smb[static_cast<std::size_t>(other)] = to;
    smb_at_site_[static_cast<std::size_t>(to)] = other;
    boxes_.set_smb_xy(other, tx, ty);
  } else {
    smb_at_site_[static_cast<std::size_t>(to)] = -1;
  }
  return false;
}

#ifdef NANOMAP_AUDIT_COST
// Full-recompute cross-check of the incremental state. Box equality and
// the cost()-vs-pin_set_cost comparison are bit-exact by construction;
// only the *running* accumulated cost is allowed rounding drift.
void Annealer::audit_cost() const {
  for (int m = 0; m < sets_.num_smbs; ++m) {
    NM_CHECK_MSG(boxes_.x_of(m) == placement_.x_of(m) &&
                     boxes_.y_of(m) == placement_.y_of(m),
                 "audit: stale coordinate mirror for smb " << m);
  }
  for (int s = 0; s < boxes_.size(); ++s) {
    NM_CHECK_MSG(boxes_.box(s) == boxes_.compute_box(s),
                 "audit: stale incremental bbox for set " << s);
    NM_CHECK_MSG(cost_of_[static_cast<std::size_t>(s)] ==
                     cached_set_cost(s),
                 "audit: stale cached cost product for set " << s);
  }
  double scratch = pin_set_cost(sets_, placement_);
  double exact = cost();
  NM_CHECK_MSG(exact == scratch, "audit: incremental cost "
                                     << exact << " != recomputed cost "
                                     << scratch);
  NM_CHECK_MSG(std::abs(cost_ - scratch) <=
                   1e-6 * std::max(1.0, std::abs(scratch)),
               "audit: running cost " << cost_ << " drifted from "
                                      << scratch);
}
#endif

void Annealer::run(double effort) {
  if (sets_.num_smbs <= 1 || sets_.num_nets == 0) return;

  const int n = sets_.num_smbs;
  const long moves_per_t = std::max<long>(
      16, static_cast<long>(effort * std::pow(static_cast<double>(n),
                                              4.0 / 3.0)));

  // Initial temperature: 20 x std-dev of random move deltas (VPR).
  double sum = 0.0, sum2 = 0.0;
  const int samples = std::min(128, 8 * n);
  for (int i = 0; i < samples; ++i) {
    double c0 = cost_;
    try_move(1e18, placement_.grid.width);  // accept everything
    double d = cost_ - c0;
    sum += d;
    sum2 += d * d;
  }
  double mean = sum / samples;
  double var = std::max(0.0, sum2 / samples - mean * mean);
  double t = 20.0 * std::sqrt(var) + 1e-6;
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif

  int rlim = std::max(1, placement_.grid.width);
  // Scaled per real net, not per set: the collapse leaves the schedule
  // as it was.
  const double exit_t =
      0.005 * std::max(1.0, cost_) / static_cast<double>(sets_.num_nets);

  while (t > exit_t) {
    long accepted = 0;
    for (long i = 0; i < moves_per_t; ++i) {
      if (try_move(t, rlim)) ++accepted;
    }
    // Runs on pool workers during placement restarts, so both sites
    // record only integral values (exact, order-independent totals).
    NM_TRACE_COUNT("place.temperatures", 1);
    NM_TRACE_VALUE("place.accepted_per_temp", accepted);
    double rate = static_cast<double>(accepted) /
                  static_cast<double>(moves_per_t);
    // VPR temperature update.
    if (rate > 0.96) {
      t *= 0.5;
    } else if (rate > 0.8) {
      t *= 0.9;
    } else if (rate > 0.15 && rlim > 1) {
      t *= 0.95;
    } else {
      t *= 0.8;
    }
    // Keep acceptance near 0.44 by shrinking the displacement window.
    double factor = 1.0 - 0.44 + rate;
    rlim = std::clamp(static_cast<int>(std::lround(rlim * factor)), 1,
                      placement_.grid.width);
#ifdef NANOMAP_AUDIT_COST
    audit_cost();
#endif
  }
  // Greedy cleanup at T = 0.
  for (long i = 0; i < moves_per_t; ++i) try_move(0.0, 1);
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif
}

}  // namespace nanomap
