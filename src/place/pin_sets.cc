#include "place/pin_sets.h"

#include <algorithm>
#include <map>

#include "place/placement.h"

namespace nanomap {

PinSets collapse_pin_sets(const ClusteredDesign& cd, double timing_weight) {
  PinSets sets;
  sets.num_smbs = cd.num_smbs;
  sets.num_nets = static_cast<int>(cd.nets.size());
  sets.begin.push_back(0);
  std::map<std::vector<int>, int> index;
  std::vector<int> key;
  for (const PlacedNet& pn : cd.nets) {
    key.assign(pn.sink_smbs.begin(), pn.sink_smbs.end());
    key.push_back(pn.driver_smb);
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());
    const double w = 1.0 + timing_weight * pn.criticality;
    auto [it, fresh] = index.try_emplace(key, sets.size());
    if (fresh) {
      sets.pins.insert(sets.pins.end(), key.begin(), key.end());
      sets.begin.push_back(static_cast<int>(sets.pins.size()));
      sets.weight.push_back(w);
    } else {
      sets.weight[static_cast<std::size_t>(it->second)] += w;
    }
  }
  return sets;
}

double pin_set_cost(const PinSets& sets, const Placement& placement) {
  double cost = 0.0;
  for (int s = 0; s < sets.size(); ++s) {
    std::span<const int> smbs = sets.smbs(s);
    int xmin = placement.x_of(smbs[0]);
    int xmax = xmin;
    int ymin = placement.y_of(smbs[0]);
    int ymax = ymin;
    for (int m : smbs.subspan(1)) {
      xmin = std::min(xmin, placement.x_of(m));
      xmax = std::max(xmax, placement.x_of(m));
      ymin = std::min(ymin, placement.y_of(m));
      ymax = std::max(ymax, placement.y_of(m));
    }
    cost += sets.weight[static_cast<std::size_t>(s)] *
            static_cast<double>((xmax - xmin) + (ymax - ymin));
  }
  return cost;
}

}  // namespace nanomap
