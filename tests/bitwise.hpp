#pragma once

/// \file bitwise.hpp
/// Bit-for-bit comparison of result vectors, shared by the determinism
/// suites (replay vs traversal, batch column vs single replay, rung vs
/// rung).

#include <cstring>
#include <span>

namespace treecode {

/// True iff `a` and `b` have the same length and identical bytes. Empty
/// spans are equal without reading their data pointers, which may be null.
inline bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace treecode
