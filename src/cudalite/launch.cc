#include "cudalite/launch.h"

#include <algorithm>

namespace g80::detail {

std::vector<std::uint64_t> pick_sample_blocks(std::uint64_t total, int n) {
  std::vector<std::uint64_t> out;
  if (total == 0 || n <= 0) return out;
  const auto want = std::min<std::uint64_t>(static_cast<std::uint64_t>(n), total);
  if (want == total) {
    out.resize(total);
    for (std::uint64_t i = 0; i < total; ++i) out[i] = i;
    return out;
  }
  for (std::uint64_t i = 0; i < want; ++i) {
    // Spread including both endpoints.
    const std::uint64_t b =
        want == 1 ? 0 : (i * (total - 1)) / (want - 1);
    if (out.empty() || out.back() != b) out.push_back(b);
  }
  return out;
}

}  // namespace g80::detail
