#include "place/net_bbox.h"

#include "place/placement.h"

namespace nanomap {
namespace {

void add_pin(NetBox& b, int x, int y) {
  if (x < b.xmin) {
    b.xmin = x;
    b.on_xmin = 1;
  } else if (x == b.xmin) {
    ++b.on_xmin;
  }
  if (x > b.xmax) {
    b.xmax = x;
    b.on_xmax = 1;
  } else if (x == b.xmax) {
    ++b.on_xmax;
  }
  if (y < b.ymin) {
    b.ymin = y;
    b.on_ymin = 1;
  } else if (y == b.ymin) {
    ++b.on_ymin;
  }
  if (y > b.ymax) {
    b.ymax = y;
    b.on_ymax = 1;
  } else if (y == b.ymax) {
    ++b.on_ymax;
  }
}

}  // namespace

void NetBoxCache::init(const PinSets& sets, const Placement& placement,
                       ThreadPool* pool) {
  sets_ = &sets;
  // Flatten the site->coordinate divisions once; rescans then run on pure
  // array reads, which is what keeps the shrink-edge fallback cheap.
  xs_.resize(static_cast<std::size_t>(sets.num_smbs));
  ys_.resize(static_cast<std::size_t>(sets.num_smbs));
  for (int m = 0; m < sets.num_smbs; ++m) {
    xs_[static_cast<std::size_t>(m)] = placement.x_of(m);
    ys_[static_cast<std::size_t>(m)] = placement.y_of(m);
  }
  boxes_.assign(static_cast<std::size_t>(sets.size()), NetBox{});
  pool_for_each(pool, sets.size(), [&](int i) {
    boxes_[static_cast<std::size_t>(i)] = compute_box(i);
  });
}

namespace {

// Min/max + edge-occupancy scan of one axis, written with ternaries so
// the per-pin comparisons compile to conditional moves — the coordinate
// stream is random, and the branchy form mispredicts on every new
// extreme or edge hit.
struct AxisScan {
  std::int32_t mn, mx, n_mn, n_mx;
  explicit AxisScan(std::int32_t first)
      : mn(first), mx(first), n_mn(1), n_mx(1) {}
  void add(std::int32_t v) {
    bool lt = v < mn;
    n_mn = lt ? 1 : n_mn + static_cast<std::int32_t>(v == mn);
    mn = lt ? v : mn;
    bool gt = v > mx;
    n_mx = gt ? 1 : n_mx + static_cast<std::int32_t>(v == mx);
    mx = gt ? v : mx;
  }
};

}  // namespace

void NetBoxCache::rescan_x(int set, NetBox* b) const {
  std::span<const int> smbs = sets_->smbs(set);
  AxisScan scan(xs_[static_cast<std::size_t>(smbs[0])]);
  for (int m : smbs.subspan(1)) scan.add(xs_[static_cast<std::size_t>(m)]);
  b->xmin = scan.mn;
  b->xmax = scan.mx;
  b->on_xmin = scan.n_mn;
  b->on_xmax = scan.n_mx;
}

void NetBoxCache::rescan_y(int set, NetBox* b) const {
  std::span<const int> smbs = sets_->smbs(set);
  AxisScan scan(ys_[static_cast<std::size_t>(smbs[0])]);
  for (int m : smbs.subspan(1)) scan.add(ys_[static_cast<std::size_t>(m)]);
  b->ymin = scan.mn;
  b->ymax = scan.mx;
  b->on_ymin = scan.n_mn;
  b->on_ymax = scan.n_mx;
}

NetBox NetBoxCache::compute_box(int set) const {
  std::span<const int> smbs = sets_->smbs(set);
  NetBox b;
  b.xmin = b.xmax = xs_[static_cast<std::size_t>(smbs[0])];
  b.ymin = b.ymax = ys_[static_cast<std::size_t>(smbs[0])];
  b.on_xmin = b.on_xmax = b.on_ymin = b.on_ymax = 1;
  for (int m : smbs.subspan(1))
    add_pin(b, xs_[static_cast<std::size_t>(m)],
            ys_[static_cast<std::size_t>(m)]);
  return b;
}

}  // namespace nanomap
