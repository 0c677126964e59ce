// Helpers of the golden-digest tests, which pin what the compiler and the
// runtime produce for the benchmark graphs to digests committed beside
// them: an FNV-1a digest, and the hinted compile options they share.
#ifndef DISC_TESTS_GOLDEN_DIGEST_H_
#define DISC_TESTS_GOLDEN_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "models/models.h"

namespace disc {

/// FNV-1a, 64 bits: a digest that is the same on every build and host.
inline uint64_t Fnv1a(const std::string& bytes,
                      uint64_t hash = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Folds the bytes of a trivially copyable value (a double by its bits).
template <typename T>
uint64_t Fnv1aValue(const T& value, uint64_t hash) {
  std::string bytes(sizeof(T), '\0');
  std::memcpy(bytes.data(), &value, sizeof(T));
  return Fnv1a(bytes, hash);
}

/// The likely values of every labelled dim in the first two signatures of
/// the model's trace, in first-seen order: the hints a respecialization
/// after two observed queries would carry.
inline std::vector<std::pair<std::string, std::vector<int64_t>>> TraceHints(
    const Model& model) {
  std::vector<std::pair<std::string, std::vector<int64_t>>> hints;
  for (size_t t = 0; t < 2 && t < model.trace.size(); ++t) {
    const ShapeSet& shapes = model.trace[t];
    for (size_t i = 0; i < model.input_dim_labels.size() && i < shapes.size();
         ++i) {
      const std::vector<std::string>& labels = model.input_dim_labels[i];
      for (size_t d = 0; d < labels.size() && d < shapes[i].size(); ++d) {
        if (labels[d].empty()) continue;
        auto it = std::find_if(hints.begin(), hints.end(), [&](const auto& h) {
          return h.first == labels[d];
        });
        if (it == hints.end()) {
          hints.push_back({labels[d], {}});
          it = hints.end() - 1;
        }
        if (std::find(it->second.begin(), it->second.end(), shapes[i][d]) ==
            it->second.end()) {
          it->second.push_back(shapes[i][d]);
        }
      }
    }
  }
  return hints;
}

}  // namespace disc

#endif  // DISC_TESTS_GOLDEN_DIGEST_H_
