// Fault injection and resilience primitives for the simMPI substrate.
//
// A FaultPlan is a *seeded, deterministic* chaos schedule: given the same
// seed and the same communication schedule, the same messages are dropped,
// delayed, duplicated or reordered, and the same ranks stall or crash at
// the same operation index.  Determinism is what makes chaos findings
// actionable -- any failure discovered by a randomized sweep is
// reproducible from its seed alone (tools/dist-replay).
//
// The typed error hierarchy turns the two classic distributed failure
// modes -- silent hangs and context-free aborts -- into structured
// diagnoses: CommTimeout and PeerFailed name the rank, peer, tag and byte
// count involved, and World::run aggregates all per-rank failures into a
// single DistError instead of rethrowing whichever surfaced first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace dace::dist {

enum class FaultKind {
  None = 0,
  Drop,       // message transmission lost; sender retransmits with backoff
  Delay,      // message arrival pushed back by delay_s (virtual time)
  Duplicate,  // a second copy of the message is enqueued
  Reorder,    // message overtakes the previously queued one on its channel
  Stall,      // rank goes silent for stall_s wall seconds at the Nth op
  Crash,      // rank dies at the Nth comm op (throws RankCrashed)
};

const char* fault_kind_name(FaultKind k);

/// One injected fault, recorded on the World's event log.
struct FaultEvent {
  FaultKind kind = FaultKind::None;
  int rank = -1;      // rank on which the fault was injected
  int peer = -1;      // message destination (p2p faults), -1 otherwise
  int tag = -1;
  int64_t bytes = 0;
  uint64_t seq = 0;   // channel sequence (p2p) or rank op index
  int attempt = 0;    // transmission attempt the fault hit
  double vtime = 0;   // injecting rank's virtual clock at injection

  std::string to_string() const;
};

/// Seeded deterministic fault schedule, installed on a World.
struct FaultPlan {
  uint64_t seed = 0;
  double drop_prob = 0;
  double delay_prob = 0;
  double delay_s = 500e-6;     // virtual seconds added by a Delay fault
  double dup_prob = 0;
  double reorder_prob = 0;
  int stall_rank = -1;         // rank to stall (-1: none)
  int64_t stall_at_op = -1;    // ...at this per-rank comm-op index
  double stall_s = 0.25;       // wall seconds the rank goes silent
  int crash_rank = -1;         // rank to crash (-1: none)
  int64_t crash_at_op = -1;

  /// True if any fault can ever fire.
  bool active() const;

  /// Decision for transmission `attempt` of message `seq` on channel
  /// (src, dst, tag).  Pure function of the plan and its arguments.
  FaultKind decide_message(int src, int dst, int tag, uint64_t seq,
                           int attempt) const;
  /// Rank-level decision at the rank's `op_index`-th communication op.
  FaultKind decide_rank_op(int rank, int64_t op_index) const;

  /// Canonical "key=value,..." spec (inverse of parse); "" when inactive
  /// with seed 0.
  std::string to_string() const;
  /// Parse a spec like "seed=42,drop=0.01,stall_rank=2,stall_at=5".
  /// Throws dace::Error on an item without '=', an unknown key, or a
  /// value that is not wholly a number of its kind (probabilities lie in
  /// [0, 1]).
  static FaultPlan parse(const std::string& spec);
  /// DACE_FAULT_PLAN (spec) with DACE_FAULT_SEED overriding the seed;
  /// throws like parse().
  static FaultPlan from_env();
};

/// Transport policy: wall-clock watchdog for silent hangs plus the
/// sender-side retransmit budget for dropped messages.  Backoff is
/// charged to the *virtual* clock, so retries degrade Fig.-12-style
/// efficiency numbers exactly as they would on a real machine.
struct CommConfig {
  double timeout_s = 30.0;     // wall seconds before an op times out
  int max_retries = 4;         // retransmissions after the first attempt
  double backoff_s = 100e-6;   // virtual backoff base, doubled per retry
};

// ---------------------------------------------------------------------------
// Typed failures
// ---------------------------------------------------------------------------

/// Base for per-rank communication failures: carries the structured
/// context (who, with whom, which tag, how many bytes, during which op).
class CommError : public Error {
 public:
  CommError(std::string msg, int rank, int peer, int tag, int64_t bytes,
            std::string op)
      : Error(std::move(msg)),
        rank(rank),
        peer(peer),
        tag(tag),
        bytes(bytes),
        op(std::move(op)) {}
  int rank, peer, tag;
  int64_t bytes;
  std::string op;
};

/// A communication op exceeded its deadline (peer stalled or message lost).
class CommTimeout : public CommError {
 public:
  using CommError::CommError;
};

/// The peer this op depends on has already failed.
class PeerFailed : public CommError {
 public:
  using CommError::CommError;
};

/// Injected rank crash (FaultKind::Crash).
class RankCrashed : public CommError {
 public:
  using CommError::CommError;
};

struct RankFailure {
  int rank = -1;
  std::string what;
};

/// Aggregate of every rank's failure in one World::run.
class DistError : public Error {
 public:
  explicit DistError(std::vector<RankFailure> fails);
  const std::vector<RankFailure>& failures() const { return failures_; }

 private:
  std::vector<RankFailure> failures_;
};

}  // namespace dace::dist
