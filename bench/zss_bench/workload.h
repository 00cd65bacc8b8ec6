// What one workload serves and sends. The server flags and the
// in-process twin (oracle, traced replay, probes) are both derived
// from this one description, so they cannot drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "num/types.h"

namespace zss::bench {

// Serving policy every workload shares.
constexpr num::Index kShards = 2;
constexpr num::Index kMaxBatch = 8;
constexpr std::int64_t kMaxWaitUs = 200;

// The seeded models (random cell, written checkpoint): seed, hidden
// width, and one-hot input width, which is also their token vocabulary.
constexpr std::uint64_t kModelSeed = 7;
constexpr num::Index kSeededDh = 512;
constexpr num::Index kSeededDx = 64;

// Steps per session an untimed instance serves before it is killed,
// leaving the journal the journal workload's set-up recovers.
constexpr int kPrefillSteps = 8;

struct Workload {
  std::string name;
  std::string why;

  // ---- model
  enum class Model {
    kRandomCell,         // zss_serve's seeded random cell (--dh/--dx/--seed)
    kWrittenCheckpoint,  // a seeded stacked checkpoint the bench writes
    kCheckpointFile,     // a checked-in trained checkpoint
  };
  Model model = Model::kRandomCell;
  /// Seeded models: one fixed pruning threshold per layer (the random
  /// cell has one layer).
  std::vector<float> thresholds;
  std::string checkpoint;  // kCheckpointFile: repo-relative path
  bool quant = false;

  // ---- durability and tiering (zss_serve flags)
  /// --durability=journal --journal-sync=batch; set-up then recovers a
  /// killed prefill instance's journal.
  bool journal = false;
  /// > 0: per-shard LRU cap, tiered to --spill-dir with --spill-encoded.
  num::Index max_sessions = 0;

  // ---- traffic
  TrafficMix mix;
  double rate[3] = {0, 0, 0};    // r1 < r2 < r3, steps/s
  double p99_limit_us = 10000.0;  // the SLO the rate search holds

  bool has_spill_dir() const { return journal || max_sessions > 0; }
};

}  // namespace zss::bench
