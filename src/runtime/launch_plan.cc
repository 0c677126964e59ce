#include "runtime/launch_plan.h"

#include <charconv>

#include "support/math_util.h"

namespace disc {

std::string ShapeSignature(
    const std::vector<std::vector<int64_t>>& input_dims) {
  // "2x3;4x5;" — ';' terminates every input so "2;3;" and "2x3;" differ,
  // and a rank-0 input contributes a bare ';'.
  std::string signature;
  signature.reserve(input_dims.size() * 8);
  for (const std::vector<int64_t>& dims : input_dims) {
    for (size_t d = 0; d < dims.size(); ++d) {
      if (d > 0) signature += 'x';
      signature += std::to_string(dims[d]);
    }
    signature += ';';
  }
  return signature;
}

Result<std::vector<std::vector<int64_t>>> ParseShapeSignature(
    const std::string& signature) {
  std::vector<std::vector<int64_t>> input_dims;
  std::vector<int64_t> dims;
  std::string digits;
  auto flush_dim = [&]() -> Status {
    if (digits.empty()) {
      return Status::InvalidArgument("bad shape signature '" + signature +
                                     "': empty dim");
    }
    int64_t dim = 0;
    const char* end = digits.data() + digits.size();
    if (std::from_chars(digits.data(), end, dim).ec != std::errc()) {
      return Status::InvalidArgument("bad shape signature '" + signature +
                                     "': dim " + digits +
                                     " does not fit int64");
    }
    dims.push_back(dim);
    digits.clear();
    return Status::OK();
  };
  for (char c : signature) {
    if (c >= '0' && c <= '9') {
      digits += c;
    } else if (c == 'x') {
      DISC_RETURN_IF_ERROR(flush_dim());
    } else if (c == ';') {
      // A rank-0 input contributes a bare ';' (no digits): valid.
      if (!digits.empty()) DISC_RETURN_IF_ERROR(flush_dim());
      input_dims.push_back(std::move(dims));
      dims.clear();
    } else {
      return Status::InvalidArgument("bad shape signature '" + signature +
                                     "': unexpected character");
    }
  }
  if (!digits.empty() || !dims.empty()) {
    return Status::InvalidArgument("bad shape signature '" + signature +
                                   "': missing terminating ';'");
  }
  return input_dims;
}

size_t LaunchPlanCache::DimsHash::operator()(const DimsKey& key) const {
  // The input count, then each input's rank and dims: the rank prefixes
  // make [2,3], [2],[3] and [6] hash apart.
  uint64_t h = HashMix(0, key.size());
  for (size_t i = 0; i < key.size(); ++i) {
    const std::vector<int64_t>& input = key[i];
    h = HashMix(h, input.size());
    for (int64_t d : input) h = HashMix(h, static_cast<uint64_t>(d));
  }
  return static_cast<size_t>(h);
}

bool LaunchPlanCache::DimsEqual::operator()(const DimsKey& a,
                                            const DimsKey& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::shared_ptr<const LaunchPlan> LaunchPlanCache::LookupKey(
    const DimsKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->plan;
}

std::shared_ptr<const LaunchPlan> LaunchPlanCache::Lookup(
    const InputDims& input_dims) {
  return LookupKey({&input_dims, nullptr});
}

std::shared_ptr<const LaunchPlan> LaunchPlanCache::LookupInputs(
    const std::vector<Tensor>& inputs) {
  return LookupKey({nullptr, &inputs});
}

std::shared_ptr<const LaunchPlan> LaunchPlanCache::Peek(
    const InputDims& input_dims) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find({&input_dims, nullptr});
  return it == index_.end() ? nullptr : it->second->plan;
}

void LaunchPlanCache::Insert(const InputDims& input_dims,
                             std::shared_ptr<const LaunchPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  ++stats_.insertions;
  auto it = index_.find({&input_dims, nullptr});
  if (it != index_.end()) {
    // Replace in place (e.g. a plan upgraded with host results).
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({input_dims, std::move(plan)});
  index_.emplace(DimsKey{&lru_.front().dims, nullptr}, lru_.begin());
  EvictIfNeededLocked();
}

void LaunchPlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EvictIfNeededLocked();
}

void LaunchPlanCache::EvictIfNeededLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(DimsKey{&lru_.back().dims, nullptr});
    lru_.pop_back();
    ++stats_.evictions;
  }
}

LaunchPlanCache::Stats LaunchPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = static_cast<int64_t>(lru_.size());
  stats.capacity = static_cast<int64_t>(capacity_);
  return stats;
}

void LaunchPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

}  // namespace disc
