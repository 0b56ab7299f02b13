// SDFG node-level instrumentation (the paper's per-node instrumentation
// providers, SC'19 style): per-node self/total time, iteration counts and
// VMStats deltas for every map, tasklet, library node and state the
// executor runs, regardless of which tier dispatched it.
//
// The Instrumenter is a *non-intrusive observer*: it never installs the
// executor launch_hook (which disables Tier-1 promotion so the device
// cost models keep their VMStats), so an instrumented run tiers exactly
// like an uninstrumented one.  Measurements flow two ways:
//   - accumulated NodeProfile records, queryable in-process (tests,
//     Instrumenter::summary())
//   - obs:: span/counter events ("node" category) when tracing is on,
//     which tools/sdfg-prof aggregates into the hot-map report
//
// What gets measured is the per-node Instrument attribute; nodes left at
// Off inherit the process default from DACE_INSTRUMENT=timer|counter|1
// (launch-granularity nodes only -- states are measured only when their
// attribute is set explicitly).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "ir/sdfg.hpp"
#include "runtime/bytecode.hpp"

namespace dace::rt {

/// Accumulated measurements of one instrumented node (or state).
struct NodeProfile {
  std::string label;           // node label (map name, op, tasklet name)
  std::string kind;            // "map", "tasklet", "library", "state", ...
  int state = -1;              // owning state id (== node id for states)
  int node = -1;               // node id within the state (-1 for states)
  int64_t invocations = 0;     // executions observed
  int64_t iterations = 0;      // summed outer-loop iterations (maps)
  int64_t total_ns = 0;        // summed wall time
  int tier = 0;                // highest tier that dispatched it (0 or 1)
  VMStats vm;                  // summed Tier-0 VMStats deltas
};

class Instrumenter {
 public:
  /// Process default from DACE_INSTRUMENT: "timer"/"1" -> Timer,
  /// "counter" -> Counter, anything else -> Off.
  static ir::Instrument env_default();

  explicit Instrumenter(const ir::SDFG& sdfg);

  /// False when nothing in this SDFG can ever be instrumented (no env
  /// default and no node attribute set): the executor's fast path.
  bool active() const { return active_; }

  /// Effective mode of a launch-granularity node: its attribute, or the
  /// process default when the attribute is Off.
  ir::Instrument effective(const ir::Node& n) const {
    return n.instrument != ir::Instrument::Off ? n.instrument : default_;
  }

  /// Record one execution.  `delta` is the Tier-0 VMStats delta (null for
  /// native/Tier-1 runs, which produce none).  Emits the obs event (span
  /// for Timer, cumulative-iteration counter for Counter) and accumulates
  /// the NodeProfile.
  void record(const char* kind, int state_id, int node_id,
              const std::string& label, ir::Instrument mode, int64_t t0_ns,
              int64_t dur_ns, int tier, int64_t iters, const VMStats* delta);

  /// (state, node) -> accumulated profile; states use (state, -1).
  const std::map<std::pair<int, int>, NodeProfile>& profiles() const {
    return profiles_;
  }

  /// Human-readable per-node table, hottest first.
  std::string summary() const;

 private:
  std::string sdfg_name_;
  ir::Instrument default_ = ir::Instrument::Off;
  bool active_ = false;
  std::map<std::pair<int, int>, NodeProfile> profiles_;
};

}  // namespace dace::rt
