#include "util/bitio.hpp"

namespace nc {

unsigned id_width(std::uint64_t n) noexcept {
  // Smallest w with 2^w > n, i.e. enough to represent any value in [0, n].
  unsigned w = 1;
  while (w < 64 && (1ULL << w) <= n) ++w;
  return w;
}

}  // namespace nc
