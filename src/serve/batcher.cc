#include "serve/batcher.h"

namespace zss::serve {

RequestBatcher::RequestBatcher(const BatchPolicy& policy) : policy_(policy) {
  ZSS_EXPECTS(policy.max_batch >= 1);
  ring_.resize(64);
}

const Request& RequestBatcher::at(std::size_t i) const {
  return ring_[(head_ + i) % ring_.size()];
}

void RequestBatcher::reserve(num::Index n) {
  if (n <= static_cast<num::Index>(ring_.size())) return;
  std::vector<Request> grown(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < count_; ++i) grown[i] = at(i);
  ring_ = std::move(grown);
  head_ = 0;
}

void RequestBatcher::enqueue(const Request& r) {
  if (count_ == ring_.size()) {
    reserve(static_cast<num::Index>(ring_.size() * 2));
  }
  ring_[(head_ + count_) % ring_.size()] = r;
  ++count_;
}

num::Index RequestBatcher::conflict_free_prefix(num::Index cap) const {
  // The prefix must stay FIFO: stopping at the first duplicate session
  // (instead of skipping past it) is what preserves per-session order.
  const auto limit = std::min<std::size_t>(count_, static_cast<std::size_t>(cap));
  std::size_t n = 0;
  for (; n < limit; ++n) {
    bool duplicate = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (at(j).session == at(n).session) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) break;
  }
  return static_cast<num::Index>(n);
}

num::Index RequestBatcher::pop_batch(std::vector<Request>& out) {
  out.clear();
  const num::Index n = conflict_free_prefix(policy_.max_batch);
  for (num::Index i = 0; i < n; ++i) out.push_back(at(static_cast<std::size_t>(i)));
  head_ = (head_ + static_cast<std::size_t>(n)) % ring_.size();
  count_ -= static_cast<std::size_t>(n);
  return n;
}

}  // namespace zss::serve
