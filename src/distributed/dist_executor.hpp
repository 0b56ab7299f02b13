// Distributed SDFG execution (Section 4.3: explicit local-view programs).
//
// Runs one SDFG instance per rank over a simMPI world.  The `comm::*`
// library nodes the frontend generates for `dace.comm.*` calls dispatch
// to handlers registered here; grid position and neighbor ranks are
// provided to the program as symbols.  Local compute charges the node
// model onto the rank's virtual clock through the executor launch hook.
//
// Resilience: the executor inherits the transport's retry policy
// (CommConfig: exponential-backoff retransmits, charged to the virtual
// clock, and per-op deadlines); a FaultPlan
// installed on the World (or via DACE_FAULT_PLAN/DACE_FAULT_SEED) chaos-
// tests the run deterministically.  Rank crashes degrade gracefully:
// tolerant collectives (allreduce, barrier) re-form over the survivors,
// everything else fails fast with a PeerFailed diagnosis, and World::run
// aggregates all per-rank failures into one DistError.
#pragma once

#include <functional>

#include "distributed/simmpi.hpp"
#include "ir/sdfg.hpp"
#include "runtime/executor.hpp"

namespace dace::dist {

/// Per-rank communication context (executor.comm_context points here).
struct RankCtx {
  Comm* comm = nullptr;
  int px = 0, py = 0;        // grid coordinates
  struct Pending {
    Comm::Request req;
    rt::Tensor view;               // target view for receives
    std::vector<double> staging;   // contiguous buffer
    bool active = false;
    bool is_recv = false;
  };
  std::vector<Pending> requests;
};

/// Register the comm::* library handlers (idempotent).
void ensure_comm_handlers();

struct DistRunResult {
  double time_s = 0;
  int64_t bytes = 0;
  int64_t messages = 0;
  int64_t retries = 0;   // transport retransmissions (chaos runs)
  int64_t faults = 0;    // injected fault events (chaos runs)
};

/// Execute `sdfg` on every rank.  `shared_args` are global containers
/// (scatter sources / gather destinations) shared across ranks;
/// `rank_symbols` provides per-rank symbol values (local sizes, neighbor
/// ranks, offsets).  The symbols __rank, __px, __py (2-D grid position,
/// row-major near-square grid) are added automatically.
///
/// If `faults` is non-null it is installed on the world before the run
/// (chaos testing); per-rank failures surface as one DistError.
DistRunResult run_distributed_sdfg(
    World& world, const ir::SDFG& sdfg, rt::Bindings& shared_args,
    const std::function<sym::SymbolMap(int rank, int P)>& rank_symbols,
    const NodeModel& node = NodeModel(), const FaultPlan* faults = nullptr);

}  // namespace dace::dist
