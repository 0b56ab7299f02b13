// Stateful Dataflow multiGraph (SDFG) intermediate representation.
//
// Mirrors the IR of the paper (Section 2.3, Table 1): an SDFG is a state
// machine whose states are dataflow multigraphs.  Dataflow nodes are data
// Access nodes, Tasklets (stateless scalar computations), Map entry/exit
// scopes (parametric parallelism), Library nodes (external operations such
// as MatMul), and Nested SDFGs.  Edges carry memlets describing exactly
// which subset of a data container moves.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/code_expr.hpp"
#include "ir/types.hpp"
#include "symbolic/subset.hpp"
#include "symbolic/symbolic.hpp"

namespace dace::diag {
class DiagSink;
}

namespace dace::ir {

class SDFG;
class State;

// ---------------------------------------------------------------------------
// Data descriptors
// ---------------------------------------------------------------------------

/// Description of a data container (array, scalar, or stream).
struct DataDesc {
  std::string name;
  DType dtype = DType::f64;
  std::vector<sym::Expr> shape;  // empty = scalar
  bool transient = false;        // local to the SDFG (not an argument)
  Storage storage = Storage::Default;
  Lifetime lifetime = Lifetime::Scope;
  bool is_stream = false;        // FIFO channel (FPGA streaming)
  int64_t stream_depth = 0;      // FIFO capacity when is_stream

  bool is_scalar() const { return shape.empty() && !is_stream; }
  size_t rank() const { return shape.size(); }
  /// Total element count.
  sym::Expr num_elements() const {
    sym::Expr n(int64_t{1});
    for (const auto& s : shape) n = n * s;
    return n;
  }
  /// Row-major strides.
  std::vector<sym::Expr> strides() const {
    std::vector<sym::Expr> st(shape.size(), sym::Expr(int64_t{1}));
    for (size_t d = shape.size(); d-- > 1;) st[d - 1] = st[d] * shape[d];
    return st;
  }
};

// ---------------------------------------------------------------------------
// Memlets
// ---------------------------------------------------------------------------

/// A unit of data movement: which subset of which container flows along an
/// edge, and how concurrent writes are resolved (WCR).
struct Memlet {
  std::string data;     // container name; empty = "no data" ordering edge
  sym::Subset subset;   // accessed subset
  WCR wcr = WCR::None;  // write-conflict resolution for write memlets
  bool dynamic = false; // volume not statically known

  Memlet() = default;
  Memlet(std::string d, sym::Subset s)
      : data(std::move(d)), subset(std::move(s)) {}
  Memlet(std::string d, sym::Subset s, WCR w)
      : data(std::move(d)), subset(std::move(s)), wcr(w) {}

  bool empty() const { return data.empty(); }
  sym::Expr volume() const { return subset.num_elements(); }
  std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Dataflow nodes
// ---------------------------------------------------------------------------

enum class NodeKind { Access, Tasklet, MapEntry, MapExit, Library, NestedSDFG };

struct Node {
  NodeKind kind;
  /// Per-node instrumentation (paper-style InstrumentationType attribute);
  /// honored by the executor, Tier-0 VM and Tier-1 native dispatch.  Not
  /// serialized: a measurement setting, not program semantics.
  Instrument instrument = Instrument::Off;
  explicit Node(NodeKind k) : kind(k) {}
  virtual ~Node() = default;
  virtual std::unique_ptr<Node> clone() const = 0;
  virtual std::string label() const = 0;
};

/// Oval access node: a read/write point of a data container.
struct AccessNode final : Node {
  std::string data;
  explicit AccessNode(std::string d)
      : Node(NodeKind::Access), data(std::move(d)) {}
  std::unique_ptr<Node> clone() const override {
    auto a = std::make_unique<AccessNode>(data);
    a->instrument = instrument;
    return a;
  }
  std::string label() const override { return data; }
};

/// Octagonal tasklet: one scalar output computed from scalar inputs.
struct Tasklet final : Node {
  std::string name;
  std::vector<std::string> inputs;  // input connector names
  std::string output = "__out";     // single output connector
  CodeExpr code;

  Tasklet(std::string n, std::vector<std::string> ins, CodeExpr c)
      : Node(NodeKind::Tasklet),
        name(std::move(n)),
        inputs(std::move(ins)),
        code(std::move(c)) {}
  std::unique_ptr<Node> clone() const override {
    auto t = std::make_unique<Tasklet>(name, inputs, code);
    t->output = output;
    t->instrument = instrument;
    return t;
  }
  std::string label() const override { return name; }
};

/// Map scope entry: N-dimensional parallel iteration space.
/// Connectors: "IN_<x>" on the entry's input side pair with "OUT_<x>" on
/// its inside; the exit mirrors this for outputs.
struct MapEntry final : Node {
  std::string name;
  std::vector<std::string> params;
  sym::Subset range;  // one Range per parameter
  Schedule schedule = Schedule::Sequential;
  bool omp_collapse = false;  // CPU: collapse nested dims (Section 3.1)
  int exit_node = -1;         // paired MapExit id

  MapEntry(std::string n, std::vector<std::string> p, sym::Subset r)
      : Node(NodeKind::MapEntry),
        name(std::move(n)),
        params(std::move(p)),
        range(std::move(r)) {}
  std::unique_ptr<Node> clone() const override {
    auto m = std::make_unique<MapEntry>(name, params, range);
    m->schedule = schedule;
    m->omp_collapse = omp_collapse;
    m->exit_node = exit_node;
    m->instrument = instrument;
    return m;
  }
  std::string label() const override;
};

struct MapExit final : Node {
  int entry_node = -1;  // paired MapEntry id
  MapExit() : Node(NodeKind::MapExit) {}
  std::unique_ptr<Node> clone() const override {
    auto m = std::make_unique<MapExit>();
    m->entry_node = entry_node;
    m->instrument = instrument;
    return m;
  }
  std::string label() const override { return "map_exit"; }
};

/// Library node: a call to an external operation (MatMul, Reduce, ...,
/// and the distributed communication ops of Section 4). `op` selects the
/// operation; `implementation` selects the expansion (Section 3.2).
struct LibraryNode final : Node {
  std::string op;
  std::string implementation = "auto";
  std::map<std::string, std::string> attrs;        // string attributes
  std::map<std::string, sym::Expr> sym_attrs;      // symbolic attributes

  explicit LibraryNode(std::string o)
      : Node(NodeKind::Library), op(std::move(o)) {}
  std::unique_ptr<Node> clone() const override {
    auto l = std::make_unique<LibraryNode>(op);
    l->implementation = implementation;
    l->attrs = attrs;
    l->sym_attrs = sym_attrs;
    l->instrument = instrument;
    return l;
  }
  std::string label() const override { return op; }
};

/// Nested SDFG node: a call to another data-centric program.
struct NestedSDFGNode final : Node {
  std::shared_ptr<SDFG> sdfg;  // shared: clones share the callee
  // Connector name == inner container name.
  std::set<std::string> in_connectors;
  std::set<std::string> out_connectors;
  sym::SubstMap symbol_mapping;  // inner symbol -> outer expression

  explicit NestedSDFGNode(std::shared_ptr<SDFG> s)
      : Node(NodeKind::NestedSDFG), sdfg(std::move(s)) {}
  std::unique_ptr<Node> clone() const override;
  std::string label() const override;
};

// ---------------------------------------------------------------------------
// State (dataflow multigraph)
// ---------------------------------------------------------------------------

struct Edge {
  int src = -1;
  std::string src_conn;
  int dst = -1;
  std::string dst_conn;
  Memlet memlet;
};

/// A state: pure dataflow, no control dependencies inside (Section 2.3).
class State {
 public:
  explicit State(std::string label) : label_(std::move(label)) {}

  const std::string& label() const { return label_; }
  void set_label(std::string l) { label_ = std::move(l); }

  /// State-level instrumentation: Timer wraps the whole state execution in
  /// one span.  Only honored when set explicitly (the DACE_INSTRUMENT
  /// process default applies to launch-granularity nodes, not states).
  Instrument instrument = Instrument::Off;

  // -- node management ------------------------------------------------------
  int add_node(std::unique_ptr<Node> n);
  int add_access(const std::string& data);
  int add_tasklet(const std::string& name, std::vector<std::string> inputs,
                  CodeExpr code);
  /// Adds a paired MapEntry/MapExit; returns {entry, exit}.
  std::pair<int, int> add_map(const std::string& name,
                              std::vector<std::string> params,
                              sym::Subset range,
                              Schedule sched = Schedule::Sequential);
  int add_library(const std::string& op);
  int add_nested(std::shared_ptr<SDFG> sdfg);

  Node* node(int id) { return nodes_.at(id).get(); }
  const Node* node(int id) const { return nodes_.at(id).get(); }
  bool alive(int id) const {
    return id >= 0 && id < (int)nodes_.size() && nodes_[id] != nullptr;
  }
  template <typename T>
  T* node_as(int id) {
    return dynamic_cast<T*>(node(id));
  }
  template <typename T>
  const T* node_as(int id) const {
    return dynamic_cast<const T*>(node(id));
  }

  /// Move all nodes and edges of `other` into this state; returns the id
  /// offset added to other's node ids. `other` is left empty.
  int absorb(State& other);
  /// Redirect all edges touching `from` to `to` instead.
  void redirect_node(int from, int to);
  /// True if a directed path from `a` to `b` exists.
  bool has_path(int a, int b) const;

  /// Remove a node (must have no incident edges).
  void remove_node(int id);
  /// Remove a node together with all incident edges.
  void remove_node_and_edges(int id);

  /// Live node ids.
  std::vector<int> node_ids() const;
  int num_nodes() const;

  // -- edge management -------------------------------------------------------
  void add_edge(int src, const std::string& src_conn, int dst,
                const std::string& dst_conn, Memlet memlet);
  void remove_edge(size_t index);
  void remove_edges_if(const std::function<bool(const Edge&)>& pred);

  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& edges() { return edges_; }
  std::vector<size_t> in_edge_ids(int node) const;
  std::vector<size_t> out_edge_ids(int node) const;
  std::vector<const Edge*> in_edges(int node) const;
  std::vector<const Edge*> out_edges(int node) const;
  int in_degree(int node) const;
  int out_degree(int node) const;

  // -- structure queries -----------------------------------------------------
  /// Topological order of live nodes; throws on cycles.
  std::vector<int> topological_order() const;
  /// Source (no in-edges) and sink (no out-edges) access nodes.
  std::vector<int> source_nodes() const;
  std::vector<int> sink_nodes() const;
  /// All nodes strictly inside a map scope (between entry and its exit).
  std::vector<int> scope_nodes(int map_entry) const;
  /// Innermost map entry containing the node, or -1 if top-level.
  int scope_of(int node) const;

  /// Per-container read/write subsets in this state (union approximated by
  /// the list of individual memlets).
  struct AccessSets {
    std::map<std::string, std::vector<sym::Subset>> reads, writes;
  };
  AccessSets access_sets() const;

 private:
  std::string label_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Edge> edges_;

  friend class SDFG;
};

// ---------------------------------------------------------------------------
// SDFG
// ---------------------------------------------------------------------------

/// Interstate edge: control flow with condition and symbol assignments.
struct InterstateEdge {
  int src = -1;
  int dst = -1;
  CodeExpr condition;                                  // invalid => true
  std::vector<std::pair<std::string, sym::Expr>> assignments;

  std::string to_string() const;
};

class SDFG {
 public:
  explicit SDFG(std::string name) : name_(std::move(name)) {}

  SDFG(const SDFG&) = delete;
  SDFG& operator=(const SDFG&) = delete;

  /// Deep copy (nested SDFGs are shared, as they are immutable callees
  /// until inlined -- inlining clones them first).
  std::unique_ptr<SDFG> clone() const;

  /// Exchange full contents with another SDFG.  Used by the transactional
  /// pipeline to roll a graph back to a pre-pass snapshot in O(1).
  void swap(SDFG& other) noexcept;

  const std::string& name() const { return name_; }

  // -- containers ------------------------------------------------------------
  DataDesc& add_array(const std::string& name, DType dtype,
                      std::vector<sym::Expr> shape, bool transient = false);
  DataDesc& add_scalar(const std::string& name, DType dtype,
                       bool transient = false);
  DataDesc& add_stream(const std::string& name, DType dtype, int64_t depth);
  /// Add a transient with a unique name derived from `prefix`.
  DataDesc& add_temp(const std::string& prefix, DType dtype,
                     std::vector<sym::Expr> shape);
  bool has_array(const std::string& name) const {
    return arrays_.count(name) > 0;
  }
  DataDesc& array(const std::string& name);
  const DataDesc& array(const std::string& name) const;
  void remove_array(const std::string& name);
  void rename_array(const std::string& old_name, const std::string& new_name);
  const std::map<std::string, DataDesc>& arrays() const { return arrays_; }

  /// Ordered argument list (non-transient containers, call order).
  const std::vector<std::string>& arg_names() const { return arg_names_; }
  void add_arg(const std::string& name) { arg_names_.push_back(name); }

  // -- symbols ---------------------------------------------------------------
  void add_symbol(const std::string& s) { symbols_.insert(s); }
  const std::set<std::string>& symbols() const { return symbols_; }
  bool has_symbol(const std::string& s) const { return symbols_.count(s) > 0; }

  // -- states ----------------------------------------------------------------
  State& add_state(const std::string& label, bool is_start = false);
  /// Insert a state and redirect control flow: src -> new -> dst.
  State& add_state_between(int src, int dst, const std::string& label);
  int num_states() const;
  State& state(int id) { return *states_.at(id); }
  const State& state(int id) const { return *states_.at(id); }
  bool state_alive(int id) const {
    return id >= 0 && id < (int)states_.size() && states_[id] != nullptr;
  }
  std::vector<int> state_ids() const;
  void remove_state(int id);
  int start_state() const { return start_state_; }
  void set_start_state(int id) { start_state_ = id; }
  /// Index of a state object within this SDFG, or -1.
  int state_id(const State* s) const;

  void add_interstate_edge(int src, int dst, CodeExpr condition = CodeExpr(),
                           std::vector<std::pair<std::string, sym::Expr>>
                               assignments = {});
  std::vector<InterstateEdge>& interstate_edges() { return istate_edges_; }
  const std::vector<InterstateEdge>& interstate_edges() const {
    return istate_edges_;
  }
  std::vector<size_t> out_interstate(int state) const;
  std::vector<size_t> in_interstate(int state) const;

  /// Topological-ish order of states following control flow (BFS from
  /// start; unreachable states appended).
  std::vector<int> state_order() const;

  /// A fresh container name with the given prefix.
  std::string unique_name(const std::string& prefix);

  /// Free symbols: referenced symbols (shapes, ranges, conditions) that are
  /// never assigned on interstate edges.
  std::set<std::string> free_symbols() const;

  /// Consistency checks; throws dace::Error on malformed graphs.
  void validate() const;

  /// Graphviz rendering of all states and the control-flow skeleton.
  std::string to_dot() const;
  /// Stable textual dump for golden tests.
  std::string dump() const;
  /// Reloadable serialization (S-expression text; see load_sdfg).
  std::string save() const;

 private:
  std::string name_;
  std::map<std::string, DataDesc> arrays_;
  std::vector<std::string> arg_names_;
  std::set<std::string> symbols_;
  std::vector<std::unique_ptr<State>> states_;
  std::vector<InterstateEdge> istate_edges_;
  int start_state_ = 0;
  int name_counter_ = 0;
};

/// Parse the serialization produced by SDFG::save() back into an SDFG
/// (round-trip: load_sdfg(g.save())->dump() == g.dump()). Used by the
/// sdfg-lint tool to analyze graphs offline. Malformed or truncated input
/// raises diag::DiagError (a dace::Error) with a stable E4xx code and the
/// line:col of the offending token; duplicate array names and dangling
/// node/state references are rejected.
std::unique_ptr<SDFG> load_sdfg(const std::string& text);

/// Recovering variant: on malformed input, records the located diagnostic
/// into `sink` and returns nullptr instead of throwing.
std::unique_ptr<SDFG> load_sdfg(const std::string& text,
                                diag::DiagSink& sink);

}  // namespace dace::ir
