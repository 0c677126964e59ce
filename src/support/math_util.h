// Integer math helpers shared by shape arithmetic, buffer planning and the
// device model, and the one exact percentile every latency report uses.
#ifndef DISC_SUPPORT_MATH_UTIL_H_
#define DISC_SUPPORT_MATH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "support/logging.h"

namespace disc {

/// \brief ceil(a / b) for positive b.
inline int64_t CeilDiv(int64_t a, int64_t b) {
  DISC_CHECK_GT(b, 0);
  return (a + b - 1) / b;
}

/// \brief floor(a / b) for positive b (correct for negative a, unlike the
/// truncating `/`).
inline int64_t FloorDiv(int64_t a, int64_t b) {
  DISC_CHECK_GT(b, 0);
  return a >= 0 ? a / b : -CeilDiv(-a, b);
}

/// \brief Rounds `a` up to the next multiple of `multiple` (> 0).
inline int64_t RoundUp(int64_t a, int64_t multiple) {
  return CeilDiv(a, multiple) * multiple;
}

/// \brief Rounds `a` up to the next power of two (a >= 1).
inline int64_t NextPowerOfTwo(int64_t a) {
  DISC_CHECK_GE(a, 1);
  int64_t p = 1;
  while (p < a) p <<= 1;
  return p;
}

/// \brief Product of all elements; empty product is 1.
inline int64_t Product(const std::vector<int64_t>& dims) {
  int64_t p = 1;
  for (int64_t d : dims) p *= d;
  return p;
}

/// \brief Folds `value` into the running hash `h` (splitmix64's
/// finalizer), so sequences hash apart by order as well as by contents.
inline uint64_t HashMix(uint64_t h, uint64_t value) {
  uint64_t x = h + 0x9e3779b97f4a7c15ULL + value;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Greatest common divisor with gcd(0, x) == x.
inline int64_t Gcd(int64_t a, int64_t b) { return std::gcd(a, b); }

/// \brief Exact `p`-th percentile (0..100) of an ascending-sorted sample:
/// linear interpolation between the two nearest ranks; 0 when empty.
inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double p) {
  if (sorted.empty()) return 0.0;
  double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace disc

#endif  // DISC_SUPPORT_MATH_UTIL_H_
