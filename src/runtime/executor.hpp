// SDFG executor (CPU backend).
//
// Interprets an SDFG as a state machine over interstate edges; inside each
// state, dataflow executes in topological order, from a dispatch plan the
// executor builds on the state's first run (docs/RUNTIME.md, "The non-map
// path").  Map scopes are compiled
// once to bytecode (runtime/bytecode.hpp) and run through the VM --
// CPU-parallel schedules split the outermost dimension across the global
// thread pool.  Library nodes dispatch through an extensible registry
// (Section 3.2: library specialization); the distributed and device
// modules register additional handlers (comm::*, PBLAS, ...).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/absint.hpp"
#include "ir/sdfg.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/instrumentation.hpp"
#include "runtime/tensor.hpp"
#include "runtime/tiering.hpp"

namespace dace::rt {

class Executor;

/// Named tensor arguments of an SDFG invocation.
using Bindings = std::map<std::string, Tensor>;

/// Handler executing one library node occurrence.
using LibraryHandler =
    std::function<void(Executor&, const ir::State&, int node_id)>;

/// Registry of library-node implementations, keyed by op name.
class LibraryRegistry {
 public:
  static LibraryRegistry& global();
  void register_op(const std::string& op, LibraryHandler h);
  const LibraryHandler* find(const std::string& op) const;

 private:
  std::map<std::string, LibraryHandler> handlers_;
};

struct ExecutorOptions {
  bool parallel = true;  // honor CPU_Multicore schedules
  /// Called after each top-level map execution ("map"), library call
  /// ("library") or top-level tasklet ("tasklet") with the statistics
  /// delta it produced. Device simulators charge launch costs here.
  std::function<void(const std::string& kind, const VMStats& delta)>
      launch_hook;
  /// Called after each state finishes executing, with the state and the
  /// symbol values in effect.  The differential fuzzer uses it to check
  /// sentinel invariants (e.g. that statically-dead writes stay dead).
  std::function<void(const ir::State& st, const sym::SymbolMap& syms)>
      post_state_hook;
  /// Cooperative cancellation: polled at state boundaries, before each
  /// map dispatch, and between parallel map chunks (so it runs on pool
  /// worker threads and must be thread-safe).  Returning true aborts the
  /// run with dace::Error("cancelled: ...").  Tensors and the thread
  /// pool stay reusable after a cancelled run (sdfg-serve deadlines).
  std::function<bool()> cancel_check;
};

/// Compile a map scope into a VM program (exposed for the device
/// simulators, which reuse the compiler with their own execution policy).
/// `state_env` is the symbol-range environment at the entry of `st`
/// (analysis::absint::SymbolRanges::at); when it is null and the interval
/// analysis is on, the compiler computes the SDFG's ranges itself.
Program compile_map_scope(const ir::SDFG& sdfg, const ir::State& st,
                          int entry,
                          const analysis::absint::Env* state_env = nullptr);

class Executor {
 public:
  explicit Executor(const ir::SDFG& sdfg, ExecutorOptions opts = {});

  /// Execute with the given argument tensors and symbol values.
  /// Tensors are shared views: outputs are written in place.
  void run(Bindings& args, const sym::SymbolMap& symbols);

  // -- services for library handlers ----------------------------------------
  const ir::SDFG& sdfg() const { return sdfg_; }
  /// Tensor bound to a container (argument or transient).
  Tensor& tensor(const std::string& container);
  /// Tensor view selected by a memlet (all dims kept).
  Tensor view(const ir::Memlet& m);
  /// Operands of the library node being dispatched: the view of the memlet
  /// on its input connector `conn` (an edge's dst_conn) or output
  /// connector (src_conn).  An input keeps only the container dims that
  /// the node's `viewdims<conn>` attribute lists (`viewdims_a` for `_a`),
  /// when it has one; the dims it drops must have unit extent.  The node's
  /// plan finds the edges and parses the attribute once.  The view is
  /// rebuilt in place by the next call for the same connector.
  const Tensor& input(std::string_view conn);
  Tensor& output(std::string_view conn);
  int64_t eval(const sym::Expr& e) const;

  VMStats& stats() { return stats_; }
  /// Number of top-level map executions ("kernel launches").
  int64_t map_launches() const { return map_launches_; }
  /// Map executions dispatched to Tier-1 native code (subset of
  /// map_launches; native runs do not accumulate VMStats).
  int64_t native_launches() const { return native_launches_; }
  /// Programs promoted to Tier 1 (native compilations requested).
  int64_t native_promotions() const { return native_promotions_; }

  const ExecutorOptions& options() const { return opts_; }

  /// Per-node instrumentation observer (paper-style InstrumentationType).
  /// Non-intrusive: measuring never affects tiering decisions, unlike
  /// launch_hook (which pins maps to Tier 0 for the device cost models).
  const Instrumenter& instrumentation() const { return *inst_; }

  /// Opaque per-rank communication context used by distributed handlers.
  void* comm_context = nullptr;

 private:
  /// Per-map tiered execution state: the (optimized) Tier-0 bytecode plus
  /// promotion bookkeeping and, once hot, the native entry point.
  struct TieredProgram {
    Program prog;
    int64_t iterations = 0;  // cumulative, drives promotion
    bool promoted = false;   // Tier-1 build requested (at most once)
    cg::MapNativeFn native = nullptr;  // null: not promoted, or build failed
    // Measured per-iteration cost (EMA over launches, ns), indexed by
    // tier (0 = VM, 1 = native); 0 = not yet measured.  Feeds the
    // cost-driven chunk scheduler.
    double ns_per_iter[2] = {0.0, 0.0};
    bool plan_reported = false;  // kernel-plan obs instant emitted once

    // Resolved once: the symbol slot of each program symbol, and the
    // outer range of the map.
    std::vector<int> sym_slots;
    sym::SlotExpr begin, end, step;
    // Bound once per run (`run` is the run they were bound for): the
    // operand table, its base pointers and the restrict verdict.  Each
    // launch only fills `symvals` from the symbol cells.
    uint64_t run = 0;
    std::vector<ArrayRef> arrays;
    std::vector<double*> bases;
    std::vector<int64_t> symvals;
    bool restrict_ok = true;
  };

  /// One connector of a library node.  Resolved once: its edge's memlet,
  /// the container dims an input's view drops, and the bounds; bound once
  /// per run: the container's tensor (a view sharing its buffer).
  struct Operand {
    const std::string* conn = nullptr;
    bool is_input = true;
    const ir::Memlet* memlet = nullptr;
    std::vector<bool> drop;  // empty: keep every dim
    std::vector<sym::SlotExpr> bounds;  // begin, end, step per dim
    uint64_t run = 0;
    Tensor tensor;
    // Per call: the bounds and the view, rebuilt in place.
    std::vector<int64_t> b, e, s;
    Tensor view;
  };

  /// One top-level node of a state, in execution order.
  struct NodePlan {
    int id = -1;
    const ir::Node* node = nullptr;
    std::unique_ptr<TieredProgram> map;  // MapEntry, from its first launch
    const LibraryHandler* handler = nullptr;  // Library
    std::vector<Operand> operands;            // Library
    std::unique_ptr<Executor> child;          // NestedSDFG
  };

  /// An outgoing interstate edge with its assignments resolved to slots.
  struct EdgePlan {
    const ir::InterstateEdge* edge = nullptr;
    std::vector<std::pair<int, sym::SlotExpr>> assigns;
  };

  /// What running state `sid` needs, built the first time it runs and
  /// kept, like the programs it holds, for the executor's lifetime: so
  /// the SDFG must not change while this executor lives.  Its top-level
  /// nodes are the state's topological order minus the interiors of
  /// top-level map scopes, without access nodes and map exits.
  struct StatePlan {
    int sid = -1;
    const ir::State* st = nullptr;
    std::vector<NodePlan> nodes;
    std::vector<EdgePlan> out;
  };

  StatePlan& plan(int sid);
  void plan_library(const StatePlan& sp, NodePlan& np);
  /// Slot of a symbol, interned for the executor's lifetime; its cell
  /// points into syms_ for the current run (null while unbound).
  int slot(const std::string& name);
  sym::SlotExpr slot_expr(const sym::Expr& e);
  Tensor& operand(std::string_view conn, bool input);

  void allocate_transients();
  void notify_launch(const char* kind, const VMStats& before);
  VMStats stats_delta(const VMStats& before) const;
  void execute_state(StatePlan& sp);
  void execute_tasklet(const ir::State& st, int node);
  /// `tier_used`/`iters_out` report which tier dispatched the map and how
  /// many outer iterations it ran (instrumentation bookkeeping).
  void execute_map(const StatePlan& sp, NodePlan& np, int* tier_used,
                   int64_t* iters_out);
  void compile_map(const StatePlan& sp, NodePlan& np);
  void bind_map(TieredProgram& tp);
  void execute_library(const StatePlan& sp, NodePlan& np);
  void execute_nested(const StatePlan& sp, NodePlan& np);

  /// Chunk count for a parallel dispatch at `tier`: the map's measured
  /// (or, before the first launch, estimated) work, split by the pool's
  /// cost rule (ThreadPool::chunks_for).
  static int plan_chunks(const TieredProgram& tp, int tier, int64_t iters);
  /// Fold a launch's work -- the summed run time of its chunks, not its
  /// wall time -- into the per-iteration cost EMA.
  static void update_cost(TieredProgram& tp, int tier, int64_t iters,
                          int64_t dur_ns);

  const ir::SDFG& sdfg_;
  ExecutorOptions opts_;
  sym::SymbolMap syms_;
  Bindings env_;
  Bindings persistent_;  // persistent transients survive across run()
  // State plans, indexed by state id (null: not run yet).
  std::vector<std::unique_ptr<StatePlan>> plans_;
  // Symbol slots: names and the slot map live as long as the executor;
  // cells_ is re-pointed into syms_ at the start of every run.
  std::map<std::string, int> slot_of_;
  std::vector<const std::string*> slot_names_;
  std::vector<int64_t*> cells_;
  // Interstate assignment scratch, sized for the widest planned edge.
  std::vector<int64_t> edge_vals_;
  // Counts run() calls; per-run bindings record the run they belong to,
  // so none outlives it (run() rebuilds env_ and syms_).
  uint64_t run_id_ = 0;
  NodePlan* cur_library_ = nullptr;  // library node being dispatched
  // Symbol ranges of the SDFG's states, computed on the first map compile.
  std::optional<analysis::absint::SymbolRanges> symbol_ranges_;
  // The SDFG's free symbols, computed on the first run, so that checking
  // a run's symbol bindings does not walk the whole graph every time.
  std::set<std::string> free_symbols_;
  VMStats stats_;
  std::unique_ptr<Instrumenter> inst_;
  TierConfig tier_cfg_;
  bool bc_opt_ = true;
  int64_t map_launches_ = 0;
  int64_t native_launches_ = 0;
  int64_t native_promotions_ = 0;
  bool validated_ = false;
};

/// One-call convenience: execute an SDFG.
void execute(const ir::SDFG& sdfg, Bindings& args,
             const sym::SymbolMap& symbols, ExecutorOptions opts = {});

}  // namespace dace::rt
