// Exactness helpers shared by the evaluator tests. The full forward
// (predict_proba) is the reference every cached evaluator must reproduce
// bit for bit, except for the BoW evaluator's swaps: they add one weight
// difference to the base's logits, which rounds differently from
// predict_proba's sum over all tokens. Those rows are held to a stated
// bound in units in the last place instead (the largest distance seen in
// these tests is 1).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace advtext {

constexpr std::int64_t kBowSwapUlps = 4;

/// Distance in units in the last place between two finite floats of one
/// sign (class probabilities are positive).
inline std::int64_t ulp_distance(float a, float b) {
  std::int32_t ia = 0;
  std::int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return std::abs(static_cast<std::int64_t>(ia) - ib);
}

}  // namespace advtext
