#include "core/path_info.h"

#include "util/check.h"

namespace cascache::core {

void PathInfo::FillPlacementInput(PlacementInput* input,
                                  std::vector<int>* origin) const {
  CASCACHE_CHECK(input != nullptr);
  CASCACHE_CHECK(origin != nullptr);
  origin->clear();
  input->f.clear();
  input->m.clear();
  input->l.clear();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PathNodeInfo& info = nodes[i];
    if (!IsCandidate(info)) continue;
    input->f.push_back(info.frequency);
    input->m.push_back(info.miss_penalty);
    input->l.push_back(info.cost_loss);
    origin->push_back(static_cast<int>(i));
  }
  // Monotone clamp (see header): enforce f non-increasing toward A_n.
  for (size_t i = input->f.size(); i >= 2; --i) {
    input->f[i - 2] = std::max(input->f[i - 2], input->f[i - 1]);
  }
}

}  // namespace cascache::core
