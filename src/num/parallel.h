// Minimal fork-join range parallelism for the kernel layer.
//
// parallel_for partitions [begin, end) into at most num_threads()
// contiguous chunks and runs the body on each. Every output element is
// produced by exactly one chunk with the same serial code the
// single-threaded path runs, so results are bit-identical at any thread
// count. The default is one thread: callers opt in via set_num_threads,
// and the single-threaded path is a plain inline call with no heap
// traffic (the zero-allocation contract of the inference engine).
#pragma once

#include <algorithm>
#include <thread>
#include <vector>

#include "num/types.h"

namespace zss::num {

/// Worker count used by parallel_for. Always >= 1; defaults to 1.
int num_threads();

/// Sets the global worker count (>= 1). Not safe to call concurrently
/// with running kernels.
void set_num_threads(int n);

/// Iterations below which a chunk is not worth a thread spawn.
inline constexpr Index kParallelGrain = 4;

/// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end):
/// at most one chunk per kParallelGrain iterations. With
/// num_threads() == 1 (the default) this is a direct call.
template <typename F>
void parallel_for(Index begin, Index end, F&& fn) {
  const Index n = end - begin;
  if (n <= 0) return;
  const auto max_chunks = (n + kParallelGrain - 1) / kParallelGrain;
  const Index chunks = std::min<Index>(num_threads(), max_chunks);
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(chunks - 1));
  const Index per = n / chunks;
  const Index extra = n % chunks;
  Index lo = begin;
  for (Index c = 0; c < chunks; ++c) {
    const Index hi = lo + per + (c < extra ? 1 : 0);
    if (c + 1 == chunks) {
      fn(lo, hi);  // run the last chunk on the calling thread
    } else {
      workers.emplace_back([&fn, lo, hi] { fn(lo, hi); });
    }
    lo = hi;
  }
  for (auto& w : workers) w.join();
}

}  // namespace zss::num
