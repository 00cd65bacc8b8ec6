#include "serve/trace.h"

#include "serve/protocol.h"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace zss::serve {

bool parse_trace(std::istream& in, std::vector<TraceEvent>& out,
                 std::string* error) {
  out.clear();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    TraceEvent e;
    std::string arrival_field, session_field, token_field;
    std::string excess;
    std::uint64_t arrival_v = 0, token_v = 0;
    // Exactly three fields per line: trailing tokens mean a corrupted
    // trace (e.g. a lost newline merging two events), and silently
    // dropping the tail would surface later as a digest mismatch
    // misattributed to the determinism guarantee. Every numeric field
    // goes through the strict digits-only parse (protocol.h) — stream
    // extraction would wrap a negative session id modulo 2^64 and
    // quietly accept '+'-prefixed numbers the protocol parser rejects.
    if (!(fields >> arrival_field >> session_field >> token_field) ||
        !parse_session_id(arrival_field, arrival_v) ||
        arrival_v > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()) ||
        !parse_session_id(session_field, e.session) ||
        !parse_session_id(token_field, token_v) ||
        token_v > static_cast<std::uint64_t>(
                      std::numeric_limits<num::Index>::max()) ||
        (fields >> excess)) {
      if (error) *error = "malformed trace line " + std::to_string(lineno) +
                          ": " + line;
      return false;
    }
    e.arrival_us = static_cast<std::int64_t>(arrival_v);
    e.token = static_cast<num::Index>(token_v);
    if (!out.empty() && e.arrival_us < out.back().arrival_us) {
      if (error) *error = "trace not sorted by arrival_us at line " +
                          std::to_string(lineno);
      return false;
    }
    out.push_back(e);
  }
  return true;
}

bool load_trace_file(const std::string& path, std::vector<TraceEvent>& out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open trace file: " + path;
    return false;
  }
  return parse_trace(in, out, error);
}

void write_trace(std::ostream& out, const std::vector<TraceEvent>& events) {
  out << "# zss serving trace: arrival_us session_id token\n";
  for (const TraceEvent& e : events) {
    out << e.arrival_us << ' ' << e.session << ' ' << e.token << '\n';
  }
}

std::vector<TraceEvent> synthetic_trace(num::Index requests,
                                        num::Index sessions,
                                        num::Index vocab,
                                        std::int64_t mean_gap_us,
                                        num::Rng& rng) {
  ZSS_EXPECTS(requests >= 0 && sessions >= 1 && vocab >= 1);
  ZSS_EXPECTS(mean_gap_us >= 0);
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(requests));
  std::int64_t now = 0;
  for (num::Index i = 0; i < requests; ++i) {
    TraceEvent e;
    e.arrival_us = now;
    e.session = static_cast<SessionId>(rng.below(sessions)) + 1;
    e.token = rng.below(vocab);
    events.push_back(e);
    now += static_cast<std::int64_t>(rng.below(2 * mean_gap_us + 1));
  }
  return events;
}

ReplayResult replay(EnginePool& pool, const std::vector<TraceEvent>& events,
                    const ResponseSink& sink) {
  ReplayResult result;
  num::Index responses = 0;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  const ResponseSink counting = [&](const Response& r) {
    ++responses;
    sink(r);
  };
  // The virtual-clock twin of the work-conserving worker, whose service
  // takes no virtual time: the arrivals of one instant are enqueued
  // together and served at that instant, so no request ever waits for
  // a later one. Settling serves batch after batch until every shard
  // is empty (a same-session conflict splits an instant's arrivals).
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    now = e.arrival_us;
    Request r;
    r.session = e.session;
    r.token = e.token;
    r.arrival_us = e.arrival_us;
    r.seq = seq++;
    pool.enqueue(r);
    ++result.requests;
    if (i + 1 < events.size() && events[i + 1].arrival_us == now) continue;
    while (pool.process_ready(now, counting) > 0) {
    }
  }
  result.responses = responses;
  result.end_us = now;
  return result;
}

}  // namespace zss::serve
