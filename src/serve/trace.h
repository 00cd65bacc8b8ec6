// Request traces — the deterministic drive format of the serving layer.
//
// A trace is a list of (arrival_us, session, token) events sorted by
// arrival time. Replay runs a virtual clock over the events: the
// arrivals of each instant are enqueued together and served at that
// instant, as a work-conserving worker with free service would (events
// sharing a stamp share batches; a lone arrival is a batch of one).
// Replay is a pure function of (trace, pool
// configuration) — no real clock is read — which is what makes the
// shard-determinism guarantee testable and the CI smoke run
// reproducible.
//
// Text format, one event per line, '#' comments and blank lines skipped:
//     arrival_us  session_id  token
// e.g.     1200         7         42
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "num/rng.h"
#include "serve/pool.h"

namespace zss::serve {

struct TraceEvent {
  std::int64_t arrival_us = 0;
  SessionId session = 0;
  num::Index token = 0;
};

/// Parses the text format. Returns false (and reports the line) on
/// malformed input; events must be sorted by arrival_us.
bool parse_trace(std::istream& in, std::vector<TraceEvent>& out,
                 std::string* error);

/// Convenience file loader on top of parse_trace.
bool load_trace_file(const std::string& path, std::vector<TraceEvent>& out,
                     std::string* error);

void write_trace(std::ostream& out, const std::vector<TraceEvent>& events);

/// Deterministic synthetic trace: `requests` events over `sessions`
/// round-robin-ish clients (rng-permuted so shards see interleaved
/// sessions), arrival gaps uniform in [0, 2*mean_gap_us].
std::vector<TraceEvent> synthetic_trace(num::Index requests,
                                        num::Index sessions,
                                        num::Index vocab,
                                        std::int64_t mean_gap_us,
                                        num::Rng& rng);

struct ReplayResult {
  num::Index requests = 0;
  num::Index responses = 0;
  std::int64_t end_us = 0;  // virtual time of the last arrival
};

/// Replays the trace through the pool under the virtual clock. The sink
/// sees every response; shards run sequentially (replay is about
/// values and batch boundaries, not wall time — use
/// EnginePool::drain_parallel for throughput measurement).
ReplayResult replay(EnginePool& pool, const std::vector<TraceEvent>& events,
                    const ResponseSink& sink);

}  // namespace zss::serve
