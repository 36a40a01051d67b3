#pragma once

#include <cstdint>

namespace nc {

/// Width in bits of the standard CONGEST "word": enough for any ID in [0, n]
/// or any counter bounded by a polynomial in n of fixed degree. The paper's
/// counters are at most n, so ceil(log2(n+1)) suffices. Stream tags and the
/// protocols' ID and counter fields are charged at this width.
unsigned id_width(std::uint64_t n) noexcept;

}  // namespace nc
