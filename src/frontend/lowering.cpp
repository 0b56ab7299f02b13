#include "frontend/lowering.hpp"

#include <algorithm>
#include <functional>

#include "common/diag.hpp"
#include "common/obs.hpp"
#include "frontend/parser.hpp"
#include "runtime/tensor_ops.hpp"

namespace dace::fe {

namespace {

/// Source location carried through lowering helpers (1-based; 0 unknown).
struct Loc {
  int line = 0;
  int col = 0;
};
Loc loc(const ExprPtr& e) { return {e->line, e->col}; }
Loc loc(const StmtNode& s) { return {s.line, s.col}; }

using ir::CodeExpr;
using ir::CodeOp;
using ir::DType;
using ir::Memlet;
using ir::SDFG;
using ir::State;
using ir::WCR;
using sym::Expr;
using sym::Range;
using sym::Subset;

bool dims_equal(const Expr& a, const Expr& b) { return a.equals(b); }
bool dim_is_one(const Expr& a) { return a.is_one(); }

/// The value category produced by lowering an expression.
struct Operand {
  enum class K { Array, Const, Symbol };
  K k = K::Const;

  // Array: a (possibly sliced) view into a container.
  std::string container;
  Subset subset;                  // rank == container rank
  std::vector<int> dim_map;       // container dim -> view dim, or -1 (indexed)
  std::vector<Expr> view_shape;   // shape after dropping indexed dims
  std::vector<int> align;         // view dim -> result dim (empty: trailing)
  DType dtype = DType::f64;
  bool fresh = false;             // freshly materialized transient

  // Const:
  double cval = 0;
  // Symbol:
  std::string sym;

  bool is_array() const { return k == K::Array; }
  bool scalar_like() const { return k != K::Array || view_shape.empty(); }

  static Operand constant(double v) {
    Operand o;
    o.k = K::Const;
    o.cval = v;
    return o;
  }
  static Operand symbol(std::string s) {
    Operand o;
    o.k = K::Symbol;
    o.sym = std::move(s);
    return o;
  }
  static Operand whole(const ir::DataDesc& d, bool fresh = false) {
    Operand o;
    o.k = K::Array;
    o.container = d.name;
    o.subset = Subset::full(d.shape);
    o.view_shape = d.shape;
    o.dim_map.resize(d.shape.size());
    for (size_t i = 0; i < d.shape.size(); ++i) o.dim_map[i] = (int)i;
    o.dtype = d.dtype;
    o.fresh = fresh;
    return o;
  }
};

/// Reference to a tasklet input discovered while translating scalar code.
struct InputRef {
  std::string conn;
  std::string container;  // empty for local-scalar refs
  Subset subset;          // element subset into container
  int local_access = -1;  // inner access node id for local scalars
};

/// Previously lowered module functions available as callees.
struct KnownFunction {
  std::shared_ptr<ir::SDFG> sdfg;
  std::vector<Param> params;
};
using KnownFunctions = std::map<std::string, KnownFunction>;

class Lowerer {
 public:
  Lowerer(const Function& f, const KnownFunctions* known,
          diag::DiagSink* sink = nullptr)
      : func_(f), known_(known), sink_(sink) {}

  std::unique_ptr<SDFG> run() {
    sdfg_ = std::make_unique<SDFG>(func_.name);
    // Arguments: arrays and float scalars become containers; integer
    // scalars become SDFG symbols (usable in ranges and shapes), matching
    // DaCe's treatment of size-like arguments.
    for (const auto& p : func_.params) {
      if (p.shape.empty() && ir::dtype_is_integer(p.dtype)) {
        sdfg_->add_symbol(p.name);
        vars_[p.name] = Var{Var::K::Symbol, p.name};
        continue;
      }
      sdfg_->add_array(p.name, p.dtype, p.shape);
      sdfg_->add_arg(p.name);
      vars_[p.name] = Var{Var::K::Array, p.name};
    }
    State& init = sdfg_->add_state("init", /*is_start=*/true);
    (void)init;
    last_state_ = sdfg_->start_state();
    lower_block(func_.body);
    sdfg_->validate();
    return std::move(sdfg_);
  }

 private:
  struct Var {
    enum class K { Array, Symbol };
    K k;
    std::string target;  // container or symbol name
  };

  const Function& func_;
  const KnownFunctions* known_ = nullptr;
  diag::DiagSink* sink_ = nullptr;
  std::unique_ptr<SDFG> sdfg_;
  int last_state_ = -1;
  std::map<std::string, Var> vars_;
  int temp_counter_ = 0;

  // Lowering stops at the first error per function (a half-lowered SDFG
  // would be inconsistent); the diagnostic is recorded in the sink (when
  // present) and thrown so compile_to_sdfg can recover per function.
  [[noreturn]] void fail(const char* code, int line, int col,
                         const std::string& msg) {
    diag::Diagnostic d;
    d.code = code;
    d.line = line;
    d.col = col;
    d.message = msg;
    d.notes.push_back("while lowering function '" + func_.name + "'");
    if (sink_) sink_->report(d);
    std::string rendered = "lower: " + msg + " (" + func_.name + ":" +
                           std::to_string(line);
    if (col > 0) rendered += ":" + std::to_string(col);
    rendered += ") [" + std::string(code) + "]";
    throw diag::DiagError(std::move(d), rendered);
  }
  [[noreturn]] void fail(const char* code, Loc at, const std::string& msg) {
    fail(code, at.line, at.col, msg);
  }
  [[noreturn]] void fail(const char* code, const ExprPtr& e,
                         const std::string& msg) {
    fail(code, e->line, e->col, msg);
  }
  [[noreturn]] void fail(const char* code, const StmtNode& st,
                         const std::string& msg) {
    fail(code, st.line, st.col, msg);
  }

  // -- state machine helpers -------------------------------------------------
  int state_id_of(State& s) { return sdfg_->state_id(&s); }

  State& new_state(const std::string& label) {
    State& s = sdfg_->add_state(label);
    int sid = state_id_of(s);
    if (last_state_ >= 0) sdfg_->add_interstate_edge(last_state_, sid);
    last_state_ = sid;
    return s;
  }

  // -- symbolic conversion -----------------------------------------------------
  Expr index_expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExKind::Num:
        if (!e->num_is_int) fail("E304", e, "non-integer index");
        return Expr(e->inum);
      case ExKind::Name: {
        auto it = vars_.find(e->name);
        if (it != vars_.end()) {
          if (it->second.k == Var::K::Symbol)
            return Expr::symbol(it->second.target);
          fail("E304", e, "index uses array '" + e->name + "'");
        }
        // Undeclared names in index expressions are free size symbols
        // (the implicit `dace.symbol` declaration of Section 2.2).
        sdfg_->add_symbol(e->name);
        return Expr::symbol(e->name);
      }
      case ExKind::BinOp: {
        Expr a = index_expr(e->args[0]);
        Expr b = index_expr(e->args[1]);
        if (e->name == "+") return a + b;
        if (e->name == "-") return a - b;
        if (e->name == "*") return a * b;
        if (e->name == "//") return sym::floordiv(a, b);
        if (e->name == "%") return sym::mod(a, b);
        fail("E304", e, "unsupported index operator '" + e->name + "'");
      }
      case ExKind::UnOp:
        if (e->name == "-") return -index_expr(e->args[0]);
        fail("E304", e, "unsupported index operator");
      case ExKind::Call: {
        if (e->base && e->base->kind == ExKind::Name) {
          const std::string& fn = e->base->name;
          if (fn == "min" && e->args.size() == 2)
            return sym::min(index_expr(e->args[0]), index_expr(e->args[1]));
          if (fn == "max" && e->args.size() == 2)
            return sym::max(index_expr(e->args[0]), index_expr(e->args[1]));
        }
        fail("E304", e, "unsupported call in index");
      }
      default:
        fail("E304", e, "unsupported index expression");
    }
  }

  /// The step of a slice, `range(...)` or `dace.map[...]` (1 when
  /// absent).  Loops and slices run upward only, so a constant step must
  /// be positive; `code` and `what` name the construct.
  Expr step_expr(const ExprPtr& e, const char* code, const char* what) {
    if (!e) return Expr(1);
    Expr s = index_expr(e);
    if (s.is_constant() && s.constant() <= 0)
      fail(code, e,
           std::string(what) + " step must be positive, got " + s.to_string());
    return s;
  }

  /// Resolve a slice bound; negative constants wrap around `size`.
  Expr slice_bound(const ExprPtr& e, const Expr& size) {
    Expr v = index_expr(e);
    if (v.is_constant() && v.constant() < 0) return size + v;
    return v;
  }

  // -- subscripts -------------------------------------------------------------
  Operand resolve_subscript(const ExprPtr& e) {
    DACE_CHECK(e->kind == ExKind::Subscript, "internal: not a subscript");
    if (e->base->kind != ExKind::Name)
      fail("E304", e, "subscript base must be a variable");
    auto it = vars_.find(e->base->name);
    if (it == vars_.end() || it->second.k != Var::K::Array)
      fail("E301", e, "subscript of unknown array '" + e->base->name + "'");
    const ir::DataDesc& d = sdfg_->array(it->second.target);

    Operand o;
    o.k = Operand::K::Array;
    o.container = d.name;
    o.dtype = d.dtype;
    std::vector<Range> ranges;
    int view_dim = 0;
    for (size_t dim = 0; dim < d.rank(); ++dim) {
      if (dim < e->slices.size()) {
        const SliceItem& s = e->slices[dim];
        if (s.is_index) {
          Expr idx = index_expr(s.index);
          if (idx.is_constant() && idx.constant() < 0) idx = d.shape[dim] + idx;
          ranges.push_back(Range::index(idx));
          o.dim_map.push_back(-1);
          continue;
        }
        Expr b = s.begin ? slice_bound(s.begin, d.shape[dim]) : Expr(0);
        Expr en = s.end ? slice_bound(s.end, d.shape[dim]) : d.shape[dim];
        Expr st = step_expr(s.step, "E304", "slice");
        ranges.emplace_back(b, en, st);
        o.dim_map.push_back(view_dim++);
        o.view_shape.push_back(ranges.back().size());
      } else {
        ranges.emplace_back(Expr(0), d.shape[dim]);
        o.dim_map.push_back(view_dim++);
        o.view_shape.push_back(d.shape[dim]);
      }
    }
    if (e->slices.size() > d.rank())
      fail("E304", e, "too many subscripts for '" + d.name + "'");
    o.subset = Subset(std::move(ranges));
    return o;
  }

  // -- broadcasting -------------------------------------------------------------
  /// Broadcast operand view shapes into a result shape; `align` maps each
  /// operand's view dims to result dims.
  std::vector<Expr> broadcast_operands(const std::vector<Operand>& ops,
                                       Loc at) {
    // Determine result rank: max over (align ? max align+1 : view rank).
    size_t rank = 0;
    for (const auto& o : ops) {
      if (!o.is_array()) continue;
      if (!o.align.empty()) {
        for (int a : o.align) rank = std::max(rank, (size_t)a + 1);
      } else {
        rank = std::max(rank, o.view_shape.size());
      }
    }
    std::vector<Expr> shape(rank, Expr(1));
    std::vector<bool> fixed(rank, false);
    for (const auto& o : ops) {
      if (!o.is_array()) continue;
      for (size_t j = 0; j < o.view_shape.size(); ++j) {
        size_t r = o.align.empty() ? j + (rank - o.view_shape.size())
                                   : (size_t)o.align[j];
        const Expr& dim = o.view_shape[j];
        if (dim_is_one(dim)) continue;
        if (!fixed[r]) {
          shape[r] = dim;
          fixed[r] = true;
        } else if (!dims_equal(shape[r], dim)) {
          fail("E303", at, "broadcast mismatch: " + shape[r].to_string() +
                              " vs " + dim.to_string());
        }
      }
    }
    return shape;
  }

  /// Element index expressions (one per container dim) for an operand read
  /// within a map over `params` spanning `result_shape`.
  std::vector<Expr> element_indices(const Operand& o,
                                    const std::vector<std::string>& params,
                                    const std::vector<Expr>& result_shape) {
    std::vector<Expr> idx;
    size_t rank = result_shape.size();
    for (size_t cd = 0; cd < o.subset.dims(); ++cd) {
      const Range& r = o.subset.range(cd);
      if (o.dim_map[cd] < 0) {
        idx.push_back(r.begin);
        continue;
      }
      size_t j = (size_t)o.dim_map[cd];
      size_t rd = o.align.empty() ? j + (rank - o.view_shape.size())
                                  : (size_t)o.align[j];
      if (dim_is_one(o.view_shape[j]) && !dim_is_one(result_shape[rd])) {
        idx.push_back(r.begin);  // broadcast along this dim
      } else {
        idx.push_back(r.begin + Expr::symbol(params[rd]) * r.step);
      }
    }
    return idx;
  }

  std::vector<std::string> make_params(size_t rank) {
    std::vector<std::string> params;
    for (size_t i = 0; i < rank; ++i)
      params.push_back("__i" + std::to_string(i));
    return params;
  }

  // -- elementwise map construction ------------------------------------------
  /// Build one state with a map scope computing
  ///   out[target] = code(inputs)  elementwise over `result_shape`.
  /// If `out` is empty, a fresh transient is allocated and returned.
  Operand build_elementwise(
      const std::string& label, const std::vector<Operand>& ins,
      const std::function<CodeExpr(const std::vector<CodeExpr>&)>& make_code,
      Loc at, Operand out = {}, DType out_dtype = DType::f64) {
    std::vector<Expr> result_shape;
    if (out.is_array()) {
      result_shape = out.view_shape;
      // Check input shapes broadcast into the target.
      std::vector<Operand> all = ins;
      all.push_back(out);
      std::vector<Expr> b = broadcast_operands(all, at);
      if (b.size() != result_shape.size())
        fail("E303", at, "assignment shape rank mismatch");
      for (size_t i = 0; i < b.size(); ++i) {
        if (!dims_equal(b[i], result_shape[i]) && !dim_is_one(b[i]))
          fail("E303", at, "assignment shape mismatch");
      }
    } else {
      result_shape = broadcast_operands(ins, at);
      DType dt = out_dtype;
      if (dt == DType::f64) {
        bool any = false;
        for (const auto& o : ins) {
          if (o.is_array()) {
            dt = any ? rt::ops::promote(dt, o.dtype) : o.dtype;
            any = true;
          }
        }
      }
      ir::DataDesc& td = sdfg_->add_temp("__tmp", dt, result_shape);
      out = Operand::whole(td, /*fresh=*/true);
    }

    // Scalar case: a plain tasklet state, no map.
    State& st = new_state(label);
    std::vector<std::string> params = make_params(result_shape.size());
    int entry = -1, exit = -1;
    bool scalar = result_shape.empty();
    if (!scalar) {
      std::vector<Range> ranges;
      for (const auto& s : result_shape) ranges.emplace_back(Expr(0), s);
      auto [e, x] = st.add_map(label + "_map", params, Subset(ranges));
      entry = e;
      exit = x;
    }

    // Inputs: access -> (entry ->) tasklet.
    std::vector<CodeExpr> in_refs;
    std::vector<std::string> in_conns;
    std::map<std::string, int> outer_access;
    struct Pending {
      std::string conn;
      std::string container;
      Subset element;
    };
    std::vector<Pending> pend;
    int ctr = 0;
    for (const auto& o : ins) {
      switch (o.k) {
        case Operand::K::Const:
          in_refs.push_back(CodeExpr::constant(o.cval));
          break;
        case Operand::K::Symbol:
          in_refs.push_back(CodeExpr::symbol(o.sym));
          break;
        case Operand::K::Array: {
          std::string conn = "__in" + std::to_string(ctr++);
          in_refs.push_back(CodeExpr::input(conn));
          in_conns.push_back(conn);
          std::vector<Expr> idx = element_indices(o, params, result_shape);
          pend.push_back({conn, o.container, Subset::element(idx)});
          break;
        }
      }
    }
    CodeExpr code = make_code(in_refs);
    int tl = st.add_tasklet(label + "_t", in_conns, code);

    for (const auto& p : pend) {
      int acc;
      auto it = outer_access.find(p.container);
      if (it == outer_access.end()) {
        acc = st.add_access(p.container);
        outer_access[p.container] = acc;
      } else {
        acc = it->second;
      }
      if (scalar) {
        st.add_edge(acc, "", tl, p.conn, Memlet(p.container, p.element));
      } else {
        // Outer edge carries the union of per-iteration reads (precise
        // when monotone; whole container otherwise, marked dynamic).
        const auto* men = st.node_as<ir::MapEntry>(entry);
        auto uni = union_over_params(p.element, params, men->range);
        const auto& d = sdfg_->array(p.container);
        Memlet outer(p.container,
                     uni ? *uni : Subset::full(d.shape));
        outer.dynamic = !uni.has_value();
        st.add_edge(acc, "", entry, "IN_" + p.container, std::move(outer));
        st.add_edge(entry, "OUT_" + p.container, tl, p.conn,
                    Memlet(p.container, p.element));
      }
    }
    if (!scalar && pend.empty()) {
      // Degenerate: map with no inputs still needs entry->tasklet ordering.
      st.add_edge(entry, "", tl, "", Memlet());
    }

    // Output: tasklet -> (exit ->) access.
    int oacc = st.add_access(out.container);
    std::vector<Expr> oidx = element_indices(out, params, result_shape);
    if (scalar) {
      st.add_edge(tl, "__out", oacc, "",
                  Memlet(out.container, Subset::element(oidx)));
    } else {
      st.add_edge(tl, "__out", exit, "IN_" + out.container,
                  Memlet(out.container, Subset::element(oidx)));
      st.add_edge(exit, "OUT_" + out.container, oacc, "",
                  Memlet(out.container, out.subset));
    }
    Operand res = out;
    return res;
  }

  Operand ew_binary(CodeOp op, const Operand& a, const Operand& b, Loc at,
                    const std::string& label) {
    if (a.k == Operand::K::Const && b.k == Operand::K::Const) {
      std::map<std::string, double> none;
      return Operand::constant(
          CodeExpr::binary(op, CodeExpr::constant(a.cval),
                           CodeExpr::constant(b.cval))
              .eval(none, {}));
    }
    return build_elementwise(
        label, {a, b},
        [&](const std::vector<CodeExpr>& in) {
          return CodeExpr::binary(op, in[0], in[1]);
        },
        at);
  }

  Operand ew_unary(CodeOp op, const Operand& a, Loc at,
                   const std::string& label) {
    if (a.k == Operand::K::Const) {
      std::map<std::string, double> none;
      return Operand::constant(
          CodeExpr::unary(op, CodeExpr::constant(a.cval)).eval(none, {}));
    }
    return build_elementwise(
        label, {a},
        [&](const std::vector<CodeExpr>& in) {
          return CodeExpr::unary(op, in[0]);
        },
        at);
  }

  /// Copy (or broadcast-fill) `value` into the view `target`.
  void copy_into(const Operand& target, const Operand& value, Loc at) {
    DACE_CHECK(target.is_array(), "internal: copy target not array");
    build_elementwise(
        "assign", {value},
        [&](const std::vector<CodeExpr>& in) {
          return in.empty() ? (value.k == Operand::K::Symbol
                                   ? CodeExpr::symbol(value.sym)
                                   : CodeExpr::constant(value.cval))
                            : in[0];
        },
        at, target);
  }

  // -- library nodes ------------------------------------------------------------
  /// View dims attr string: container dims that form the operand's view.
  static std::string viewdims(const Operand& o) {
    std::string s;
    for (size_t cd = 0; cd < o.dim_map.size(); ++cd) {
      if (o.dim_map[cd] >= 0) {
        if (!s.empty()) s += ",";
        s += std::to_string(cd);
      }
    }
    return s;
  }

  Operand matmul(const Operand& a, const Operand& b, Loc at) {
    if (!a.is_array() || !b.is_array()) fail("E302", at, "'@' requires arrays");
    size_t ra = a.view_shape.size(), rb = b.view_shape.size();
    std::vector<Expr> oshape;
    if (ra == 2 && rb == 2) {
      if (!dims_equal(a.view_shape[1], b.view_shape[0]))
        fail("E303", at, "matmul inner dimension mismatch");
      oshape = {a.view_shape[0], b.view_shape[1]};
    } else if (ra == 2 && rb == 1) {
      oshape = {a.view_shape[0]};
    } else if (ra == 1 && rb == 2) {
      oshape = {b.view_shape[1]};
    } else if (ra == 1 && rb == 1) {
      oshape = {};
    } else {
      fail("E303", at, "unsupported matmul ranks");
    }
    DType dt = rt::ops::promote(a.dtype, b.dtype);
    ir::DataDesc& td = sdfg_->add_temp("__mm", dt, oshape);
    State& st = new_state("matmul");
    int na = st.add_access(a.container);
    int nb = st.add_access(b.container);
    int no = st.add_access(td.name);
    int lib = st.add_library("MatMul");
    auto* ln = st.node_as<ir::LibraryNode>(lib);
    ln->attrs["viewdims_a"] = viewdims(a);
    ln->attrs["viewdims_b"] = viewdims(b);
    st.add_edge(na, "", lib, "_a", Memlet(a.container, a.subset));
    st.add_edge(nb, "", lib, "_b", Memlet(b.container, b.subset));
    st.add_edge(lib, "_c", no, "", Memlet(td.name, Subset::full(td.shape)));
    return Operand::whole(td, /*fresh=*/true);
  }

  Operand reduce(const std::string& redop, const Operand& in,
                 std::optional<int> axis, Loc at) {
    if (!in.is_array()) fail("E302", at, "reduction of non-array");
    std::vector<Expr> oshape;
    if (axis) {
      int ax = *axis;
      if (ax < 0) ax += (int)in.view_shape.size();
      if (ax < 0 || ax >= (int)in.view_shape.size())
        fail("E302", at, "bad reduction axis");
      for (int j = 0; j < (int)in.view_shape.size(); ++j) {
        if (j != ax) oshape.push_back(in.view_shape[j]);
      }
    }
    ir::DataDesc& td = sdfg_->add_temp("__red", in.dtype, oshape);
    State& st = new_state("reduce");
    int ni = st.add_access(in.container);
    int no = st.add_access(td.name);
    int lib = st.add_library("Reduce");
    auto* ln = st.node_as<ir::LibraryNode>(lib);
    ln->attrs["op"] = redop;
    ln->attrs["viewdims_in"] = viewdims(in);
    if (axis) ln->attrs["axis"] = std::to_string(*axis);
    st.add_edge(ni, "", lib, "_in", Memlet(in.container, in.subset));
    st.add_edge(lib, "_out", no, "", Memlet(td.name, Subset::full(td.shape)));
    return Operand::whole(td, /*fresh=*/true);
  }

  // -- expression lowering (top level) -----------------------------------------
  Operand lower_expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExKind::Num:
        return Operand::constant(e->num);
      case ExKind::Name: {
        auto it = vars_.find(e->name);
        if (it != vars_.end()) {
          if (it->second.k == Var::K::Symbol)
            return Operand::symbol(it->second.target);
          return Operand::whole(sdfg_->array(it->second.target));
        }
        if (sdfg_->has_symbol(e->name)) return Operand::symbol(e->name);
        fail("E301", e, "unknown name '" + e->name + "'");
      }
      case ExKind::Subscript:
        return resolve_subscript(e);
      case ExKind::UnOp:
        if (e->name == "-")
          return ew_unary(CodeOp::Neg, lower_expr(e->args[0]), loc(e), "neg");
        fail("E302", e, "unsupported unary operator");
      case ExKind::BinOp: {
        const std::string& op = e->name;
        if (op == "@")
          return matmul(lower_expr(e->args[0]), lower_expr(e->args[1]),
                        loc(e));
        Operand a = lower_expr(e->args[0]);
        Operand b = lower_expr(e->args[1]);
        static const std::map<std::string, CodeOp> ops = {
            {"+", CodeOp::Add}, {"-", CodeOp::Sub}, {"*", CodeOp::Mul},
            {"/", CodeOp::Div}, {"**", CodeOp::Pow}, {"%", CodeOp::Mod},
            {"<", CodeOp::Lt}, {"<=", CodeOp::Le}, {">", CodeOp::Gt},
            {">=", CodeOp::Ge}, {"==", CodeOp::Eq}, {"!=", CodeOp::Ne},
            {"and", CodeOp::And}, {"or", CodeOp::Or}};
        auto it = ops.find(op);
        if (it == ops.end()) {
          if (op == "//") {
            Operand d = ew_binary(CodeOp::Div, a, b, loc(e), "floordiv");
            return ew_unary(CodeOp::Floor, d, loc(e), "floor");
          }
          fail("E302", e, "unsupported operator '" + op + "'");
        }
        return ew_binary(it->second, a, b, loc(e), "op_" + op_label(op));
      }
      case ExKind::Call:
        return lower_call(e);
      case ExKind::Tuple:
        fail("E302", e, "tuple expression not allowed here");
    }
    fail("E302", e, "unsupported expression");
  }

  static std::string op_label(const std::string& op) {
    static const std::map<std::string, std::string> names = {
        {"+", "add"}, {"-", "sub"}, {"*", "mul"}, {"/", "div"},
        {"**", "pow"}, {"%", "mod"}, {"<", "lt"}, {"<=", "le"},
        {">", "gt"}, {">=", "ge"}, {"==", "eq"}, {"!=", "ne"},
        {"and", "and"}, {"or", "or"}};
    auto it = names.find(op);
    return it == names.end() ? "op" : it->second;
  }

  Operand lower_call(const ExprPtr& e) {
    if (!e->base || e->base->kind != ExKind::Name)
      fail("E305", e, "unsupported call form");
    const std::string& fn = e->base->name;

    static const std::map<std::string, CodeOp> unary = {
        {"np.exp", CodeOp::Exp},   {"np.sqrt", CodeOp::Sqrt},
        {"np.log", CodeOp::Log},   {"np.abs", CodeOp::Abs},
        {"np.sin", CodeOp::Sin},   {"np.cos", CodeOp::Cos},
        {"np.tanh", CodeOp::Tanh}, {"np.floor", CodeOp::Floor},
        {"abs", CodeOp::Abs}};
    if (auto it = unary.find(fn); it != unary.end()) {
      if (e->args.size() != 1) fail("E305", e, fn + " takes one argument");
      return ew_unary(it->second, lower_expr(e->args[0]), loc(e),
                      fn.substr(fn.find('.') + 1));
    }
    static const std::map<std::string, CodeOp> binary = {
        {"np.minimum", CodeOp::Min},
        {"np.maximum", CodeOp::Max},
        {"np.power", CodeOp::Pow},
        {"min", CodeOp::Min},
        {"max", CodeOp::Max}};
    if (auto it = binary.find(fn); it != binary.end()) {
      if (e->args.size() != 2) fail("E305", e, fn + " takes two arguments");
      return ew_binary(it->second, lower_expr(e->args[0]),
                       lower_expr(e->args[1]), loc(e),
                       fn.substr(fn.find('.') + 1));
    }
    if (fn == "np.sum" || fn == "np.max" || fn == "np.min") {
      std::optional<int> axis;
      for (const auto& [k, v] : e->kwargs) {
        if (k == "axis") {
          if (!(v->kind == ExKind::Num && v->num_is_int))
            fail("E305", v, "axis must be an integer literal");
          axis = (int)v->inum;
        } else {
          fail("E305", e, "unsupported keyword '" + k + "'");
        }
      }
      std::string op = fn == "np.sum" ? "sum" : (fn == "np.max" ? "max" : "min");
      return reduce(op, lower_expr(e->args[0]), axis, loc(e));
    }
    if (fn == "np.dot") {
      if (e->args.size() != 2) fail("E305", e, "np.dot takes two arguments");
      return matmul(lower_expr(e->args[0]), lower_expr(e->args[1]), loc(e));
    }
    if (fn == "np.outer") {
      if (e->args.size() != 2) fail("E305", e, "np.outer takes two arguments");
      Operand a = lower_expr(e->args[0]);
      Operand b = lower_expr(e->args[1]);
      if (!a.is_array() || a.view_shape.size() != 1 || !b.is_array() ||
          b.view_shape.size() != 1)
        fail("E305", e, "np.outer requires vectors");
      a.align = {0};
      b.align = {1};
      return build_elementwise(
          "outer", {a, b},
          [](const std::vector<CodeExpr>& in) {
            return CodeExpr::binary(CodeOp::Mul, in[0], in[1]);
          },
          loc(e));
    }
    if (fn == "np.transpose") {
      if (e->args.size() != 1) fail("E305", e, "np.transpose takes one array");
      Operand a = lower_expr(e->args[0]);
      if (!a.is_array() || a.view_shape.size() != 2)
        fail("E305", e, "np.transpose requires a 2-D array");
      a.align = {1, 0};  // view dim 0 -> result dim 1 and vice versa
      return build_elementwise(
          "transpose", {a},
          [](const std::vector<CodeExpr>& in) { return in[0]; }, loc(e));
    }
    if (fn == "np.copy") {
      Operand a = lower_expr(e->args[0]);
      return build_elementwise(
          "copy", {a},
          [](const std::vector<CodeExpr>& in) { return in[0]; }, loc(e));
    }
    if (fn == "np.float64" || fn == "np.float32" || fn == "float") {
      return lower_expr(e->args[0]);
    }
    fail("E305", e, "unsupported function '" + fn + "'");
  }

  // -- allocations --------------------------------------------------------------
  DType dtype_of_annotation(const ExprPtr& e) {
    if (e->kind == ExKind::Name) {
      const std::string& n = e->name;
      if (n == "np.float64") return DType::f64;
      if (n == "np.float32") return DType::f32;
      if (n == "np.int64") return DType::i64;
      if (n == "np.int32") return DType::i32;
      if (n == "MPI_Request") return DType::i64;  // opaque request handles
      // A.dtype -> dtype of variable A
      auto dotpos = n.rfind(".dtype");
      if (dotpos != std::string::npos && dotpos == n.size() - 6) {
        std::string base = n.substr(0, dotpos);
        auto it = vars_.find(base);
        if (it != vars_.end() && it->second.k == Var::K::Array)
          return sdfg_->array(it->second.target).dtype;
      }
    }
    fail("E305", e, "unsupported dtype annotation");
  }

  bool is_allocation_call(const ExprPtr& e, std::string* which) {
    if (e->kind != ExKind::Call || !e->base ||
        e->base->kind != ExKind::Name)
      return false;
    static const std::set<std::string> allocs = {
        "np.empty", "np.zeros", "np.ones", "np.full",
        "np.empty_like", "np.zeros_like", "np.ones_like"};
    if (!allocs.count(e->base->name)) return false;
    *which = e->base->name;
    return true;
  }

  void lower_allocation(const std::string& name, const ExprPtr& e,
                        const std::string& which) {
    std::vector<Expr> shape;
    DType dtype = DType::f64;
    bool like = which.find("_like") != std::string::npos;
    if (like) {
      Operand src = lower_expr(e->args[0]);
      if (!src.is_array()) fail("E310", e, "alloc-like of non-array");
      shape = src.view_shape;
      dtype = src.dtype;
    } else {
      const ExprPtr& sh = e->args[0];
      if (sh->kind == ExKind::Tuple) {
        for (const auto& d : sh->args) shape.push_back(index_expr(d));
      } else {
        shape.push_back(index_expr(sh));
      }
    }
    for (const auto& [k, v] : e->kwargs) {
      if (k == "dtype") dtype = dtype_of_annotation(v);
    }
    // Rebind or create the container.
    std::string cname = sdfg_->has_array(name) ? sdfg_->unique_name(name)
                                               : name;
    ir::DataDesc& d = sdfg_->add_array(cname, dtype, shape, /*transient=*/true);
    vars_[name] = Var{Var::K::Array, cname};
    double fill = 0;
    bool do_fill = false;
    if (which == "np.zeros" || which == "np.zeros_like") {
      do_fill = true;
      fill = 0;
    } else if (which == "np.ones" || which == "np.ones_like") {
      do_fill = true;
      fill = 1;
    } else if (which == "np.full") {
      do_fill = true;
      if (!(e->args.size() >= 2 && e->args[1]->kind == ExKind::Num))
        fail("E310", e, "np.full requires a literal fill value");
      fill = e->args[1]->num;
    }
    if (do_fill) {
      copy_into(Operand::whole(d), Operand::constant(fill), loc(e));
    }
  }

  // -- statements ---------------------------------------------------------------
  void lower_block(const std::vector<StmtPtr>& body) {
    for (const auto& st : body) lower_stmt(*st);
  }

  void lower_stmt(const StmtNode& st) {
    switch (st.kind) {
      case StKind::Pass:
        return;
      case StKind::Assign:
        lower_assign(st);
        return;
      case StKind::AugAssign:
        lower_augassign(st);
        return;
      case StKind::For:
        lower_for(st);
        return;
      case StKind::If:
        lower_if(st);
        return;
      case StKind::While:
        lower_while(st);
        return;
      case StKind::ExprStmt:
        lower_expr_stmt(st);
        return;
    }
  }

  void lower_expr_stmt(const StmtNode& st) {
    // Communication calls and calls to other @dace.program functions are
    // the only meaningful bare statements.
    if (st.value->kind == ExKind::Call && st.value->base &&
        st.value->base->kind == ExKind::Name) {
      const std::string& fn = st.value->base->name;
      if (fn.rfind("dace.comm.", 0) == 0) {
        lower_comm_call(st.value);
        return;
      }
      if (known_ && known_->count(fn)) {
        lower_function_call(st.value, known_->at(fn));
        return;
      }
    }
    fail("E302", st, "expression statement has no effect");
  }

  /// Call to another @dace.program: a Nested SDFG node (Table 1).
  void lower_function_call(const ExprPtr& e, const KnownFunction& callee) {
    if (e->args.size() != callee.params.size())
      fail("E305", e, "call to '" + e->base->name + "' expects " +
                          std::to_string(callee.params.size()) + " arguments");
    State& st = new_state("call_" + e->base->name);
    int node = st.add_nested(callee.sdfg);
    auto* nn = st.node_as<ir::NestedSDFGNode>(node);
    for (size_t i = 0; i < e->args.size(); ++i) {
      const Param& p = callee.params[i];
      if (p.shape.empty() && ir::dtype_is_integer(p.dtype)) {
        nn->symbol_mapping[p.name] = index_expr(e->args[i]);
        continue;
      }
      Operand arg = lower_operand_view(e->args[i]);
      // Arrays pass by reference: read and written conservatively.
      nn->in_connectors.insert(p.name);
      nn->out_connectors.insert(p.name);
      int ain = st.add_access(arg.container);
      int aout = st.add_access(arg.container);
      st.add_edge(ain, "", node, p.name, Memlet(arg.container, arg.subset));
      st.add_edge(node, p.name, aout, "", Memlet(arg.container, arg.subset));
    }
  }

  // -- explicit communication (Section 4.3: local-view programming) --------
  // dace.comm.* calls become `comm::*` library nodes; their execution is
  // implemented by the distributed module (distributed/comm_ops.cpp).

  /// Statement-form communication: Isend / Irecv / Waitall / Barrier.
  void lower_comm_call(const ExprPtr& e) {
    const std::string fn = e->base->name.substr(10);  // strip "dace.comm."
    State& st = new_state("comm_" + fn);
    int lib = st.add_library("comm::" + fn);
    auto* ln = st.node_as<ir::LibraryNode>(lib);
    if (fn == "Isend" || fn == "Irecv") {
      if (e->args.size() != 4)
        fail("E308", e, "dace.comm." + fn + " takes (buf, rank, tag, request)");
      Operand buf = lower_operand_view(e->args[0]);
      ln->sym_attrs["peer"] = index_expr(e->args[1]);
      ln->sym_attrs["tag"] = index_expr(e->args[2]);
      Operand req = lower_operand_view(e->args[3]);
      int nb = st.add_access(buf.container);
      int nr_in = st.add_access(req.container);
      int nr_out = st.add_access(req.container);
      if (fn == "Isend") {
        st.add_edge(nb, "", lib, "_buf", Memlet(buf.container, buf.subset));
      } else {
        st.add_edge(lib, "_buf", nb, "", Memlet(buf.container, buf.subset));
      }
      st.add_edge(nr_in, "", lib, "_req_in", Memlet(req.container, req.subset));
      st.add_edge(lib, "_req_out", nr_out, "",
                  Memlet(req.container, req.subset));
      return;
    }
    if (fn == "Waitall") {
      if (e->args.size() != 1) fail("E308", e, "Waitall takes (requests)");
      Operand req = lower_operand_view(e->args[0]);
      int nr_in = st.add_access(req.container);
      int nr_out = st.add_access(req.container);
      st.add_edge(nr_in, "", lib, "_req_in", Memlet(req.container, req.subset));
      st.add_edge(lib, "_req_out", nr_out, "",
                  Memlet(req.container, req.subset));
      return;
    }
    if (fn == "Barrier") {
      if (!e->args.empty()) fail("E308", e, "Barrier takes no arguments");
      return;  // library node alone; pure synchronization
    }
    fail("E308", e, "unsupported communication call 'dace.comm." + fn + "'");
  }

  /// Expression-form communication assigned to a target:
  ///   lA[1:-1, 1:-1] = dace.comm.BlockScatter(A)
  ///   A[:] = dace.comm.BlockGather(lA[1:-1, 1:-1])
  ///   x = dace.comm.Allreduce(lx, 'sum')
  void lower_comm_assign(const Operand& target, const ExprPtr& e) {
    const std::string fn = e->base->name.substr(10);
    if (!(fn == "BlockScatter" || fn == "BlockGather" ||
          fn == "Allreduce" || fn == "Bcast"))
      fail("E308", e,
           "unsupported communication expression 'dace.comm." + fn + "'");
    if (e->args.empty()) fail("E308", e, "dace.comm." + fn + " needs an input");
    Operand in = lower_operand_view(e->args[0]);
    State& st = new_state("comm_" + fn);
    int lib = st.add_library("comm::" + fn);
    int ni = st.add_access(in.container);
    int no = st.add_access(target.container);
    st.add_edge(ni, "", lib, "_in", Memlet(in.container, in.subset));
    st.add_edge(lib, "_out", no, "", Memlet(target.container, target.subset));
  }

  /// Resolve an argument that must be an array view (name or subscript).
  Operand lower_operand_view(const ExprPtr& e) {
    if (e->kind == ExKind::Subscript) return resolve_subscript(e);
    if (e->kind == ExKind::Name) {
      auto it = vars_.find(e->name);
      if (it != vars_.end() && it->second.k == Var::K::Array)
        return Operand::whole(sdfg_->array(it->second.target));
    }
    fail("E305", e, "expected an array view argument");
  }

  static bool is_comm_call(const ExprPtr& e) {
    return e->kind == ExKind::Call && e->base &&
           e->base->kind == ExKind::Name &&
           e->base->name.rfind("dace.comm.", 0) == 0;
  }

  void lower_assign(const StmtNode& st) {
    // Allocation: A = np.empty(...)
    std::string which;
    if (st.target->kind == ExKind::Name &&
        is_allocation_call(st.value, &which)) {
      lower_allocation(st.target->name, st.value, which);
      return;
    }
    // Communication expressions write directly into their target view.
    if (is_comm_call(st.value)) {
      Operand t = st.target->kind == ExKind::Subscript
                      ? resolve_subscript(st.target)
                      : lower_operand_view(st.target);
      lower_comm_assign(t, st.value);
      return;
    }
    if (st.target->kind == ExKind::Name) {
      const std::string& name = st.target->name;
      auto it = vars_.find(name);
      if (it != vars_.end() && it->second.k == Var::K::Symbol)
        fail("E306", st, "cannot assign to loop symbol '" + name + "'");
      Operand v = lower_expr(st.value);
      if (it == vars_.end()) {
        // New local variable.
        if (v.is_array() && v.fresh) {
          vars_[name] = Var{Var::K::Array, v.container};
          return;
        }
        if (v.is_array()) {
          // Materialize a copy of the view.
          ir::DataDesc& d =
              sdfg_->add_array(sdfg_->has_array(name)
                                   ? sdfg_->unique_name(name)
                                   : name,
                               v.dtype, v.view_shape, /*transient=*/true);
          vars_[name] = Var{Var::K::Array, d.name};
          copy_into(Operand::whole(d), v, loc(st));
          return;
        }
        // Scalar local.
        ir::DataDesc& d = sdfg_->add_scalar(
            sdfg_->has_array(name) ? sdfg_->unique_name(name) : name,
            DType::f64, /*transient=*/true);
        vars_[name] = Var{Var::K::Array, d.name};
        copy_into(Operand::whole(d), v, loc(st));
        return;
      }
      // Existing array: copy into it.
      copy_into(Operand::whole(sdfg_->array(it->second.target)), v, loc(st));
      return;
    }
    if (st.target->kind == ExKind::Subscript) {
      Operand t = resolve_subscript(st.target);
      Operand v = lower_expr(st.value);
      copy_into(t, v, loc(st));
      return;
    }
    fail("E306", st, "unsupported assignment target");
  }

  void lower_augassign(const StmtNode& st) {
    Operand t = st.target->kind == ExKind::Subscript
                    ? resolve_subscript(st.target)
                    : lower_expr(st.target);
    if (!t.is_array()) fail("E306", st, "augmented assignment to non-array");
    Operand v = lower_expr(st.value);
    static const std::map<std::string, CodeOp> ops = {{"+", CodeOp::Add},
                                                      {"-", CodeOp::Sub},
                                                      {"*", CodeOp::Mul},
                                                      {"/", CodeOp::Div}};
    CodeOp op = ops.at(st.aug_op);
    build_elementwise(
        "aug_" + op_label(st.aug_op), {t, v},
        [&](const std::vector<CodeExpr>& in) {
          return CodeExpr::binary(op, in[0], in[1]);
        },
        loc(st), t);
  }

  // Range loop -> guard/body states with condition and increment on
  // interstate edges (Fig. 3 of the paper).
  void lower_for(const StmtNode& st) {
    if (st.iter->kind == ExKind::Subscript && st.iter->base &&
        st.iter->base->kind == ExKind::Name &&
        st.iter->base->name == "dace.map") {
      lower_map_for(st);
      return;
    }
    if (!(st.iter->kind == ExKind::Call && st.iter->base &&
          st.iter->base->kind == ExKind::Name &&
          st.iter->base->name == "range"))
      fail("E309", st, "for-loop iterator must be range(...) or dace.map");
    if (st.loop_vars.size() != 1)
      fail("E309", st, "range loop takes one variable");
    const std::string& var = st.loop_vars[0];
    Expr begin(0), end(0), step(1);
    const auto& args = st.iter->args;
    if (args.size() == 1) {
      end = index_expr(args[0]);
    } else if (args.size() >= 2) {
      begin = index_expr(args[0]);
      end = index_expr(args[1]);
      if (args.size() == 3) step = step_expr(args[2], "E309", "range");
    }

    // Shadow handling: remember previous binding.
    std::optional<Var> prev;
    if (auto it = vars_.find(var); it != vars_.end()) prev = it->second;
    vars_[var] = Var{Var::K::Symbol, var};
    sdfg_->add_symbol(var);

    State& guard = sdfg_->add_state("for_guard_" + var);
    int guard_id = state_id_of(guard);
    sdfg_->add_interstate_edge(last_state_, guard_id, CodeExpr(),
                               {{var, begin}});
    State& body = sdfg_->add_state("for_body_" + var);
    int body_id = state_id_of(body);
    CodeExpr cond = CodeExpr::binary(CodeOp::Lt, CodeExpr::symbol(var),
                                     ir::to_code(end));
    sdfg_->add_interstate_edge(guard_id, body_id, cond);
    last_state_ = body_id;
    lower_block(st.body);
    // Back edge with increment.
    sdfg_->add_interstate_edge(last_state_, guard_id, CodeExpr(),
                               {{var, Expr::symbol(var) + step}});
    // Exit edge.
    State& after = sdfg_->add_state("for_after_" + var);
    int after_id = state_id_of(after);
    CodeExpr ncond = CodeExpr::binary(CodeOp::Ge, CodeExpr::symbol(var),
                                      ir::to_code(end));
    sdfg_->add_interstate_edge(guard_id, after_id, ncond);
    last_state_ = after_id;

    if (prev) {
      vars_[var] = *prev;
    } else {
      vars_.erase(var);
    }
  }

  CodeExpr cond_code(const ExprPtr& e) {
    switch (e->kind) {
      case ExKind::Num:
        return CodeExpr::constant(e->num);
      case ExKind::Name: {
        auto it = vars_.find(e->name);
        if (it != vars_.end() && it->second.k == Var::K::Symbol)
          return CodeExpr::symbol(it->second.target);
        if (sdfg_->has_symbol(e->name)) return CodeExpr::symbol(e->name);
        fail("E309", e,
             "conditions may only reference symbols, not '" + e->name + "'");
      }
      case ExKind::BinOp: {
        static const std::map<std::string, CodeOp> ops = {
            {"+", CodeOp::Add}, {"-", CodeOp::Sub}, {"*", CodeOp::Mul},
            {"/", CodeOp::Div}, {"%", CodeOp::Mod}, {"<", CodeOp::Lt},
            {"<=", CodeOp::Le}, {">", CodeOp::Gt}, {">=", CodeOp::Ge},
            {"==", CodeOp::Eq}, {"!=", CodeOp::Ne}, {"and", CodeOp::And},
            {"or", CodeOp::Or}};
        auto it = ops.find(e->name);
        if (it == ops.end()) fail("E309", e, "unsupported condition operator");
        return CodeExpr::binary(it->second, cond_code(e->args[0]),
                                cond_code(e->args[1]));
      }
      case ExKind::UnOp:
        if (e->name == "-")
          return CodeExpr::unary(CodeOp::Neg, cond_code(e->args[0]));
        if (e->name == "not")
          return CodeExpr::unary(CodeOp::Not, cond_code(e->args[0]));
        fail("E309", e, "unsupported condition operator");
      default:
        fail("E309", e, "unsupported condition expression");
    }
  }

  void lower_if(const StmtNode& st) {
    CodeExpr cond = cond_code(st.cond);
    int branch_from = last_state_;
    // Section 2.5 restriction (3): variables first defined inside a branch
    // have control-dependent state and are not visible afterwards.
    std::map<std::string, Var> outer_vars = vars_;
    State& then_entry = sdfg_->add_state("if_then");
    int then_id = state_id_of(then_entry);
    sdfg_->add_interstate_edge(branch_from, then_id, cond);
    last_state_ = then_id;
    lower_block(st.body);
    int then_end = last_state_;
    vars_ = outer_vars;

    CodeExpr ncond = CodeExpr::unary(CodeOp::Not, cond);
    int else_end;
    if (!st.orelse.empty()) {
      State& else_entry = sdfg_->add_state("if_else");
      int else_id = state_id_of(else_entry);
      sdfg_->add_interstate_edge(branch_from, else_id, ncond);
      last_state_ = else_id;
      lower_block(st.orelse);
      else_end = last_state_;
      vars_ = outer_vars;
    } else {
      else_end = -1;
    }

    State& merge = sdfg_->add_state("if_merge");
    int merge_id = state_id_of(merge);
    sdfg_->add_interstate_edge(then_end, merge_id);
    if (else_end >= 0) {
      sdfg_->add_interstate_edge(else_end, merge_id);
    } else {
      sdfg_->add_interstate_edge(branch_from, merge_id, ncond);
    }
    last_state_ = merge_id;
  }

  void lower_while(const StmtNode& st) {
    State& guard = sdfg_->add_state("while_guard");
    int guard_id = state_id_of(guard);
    sdfg_->add_interstate_edge(last_state_, guard_id);
    CodeExpr cond = cond_code(st.cond);
    State& body = sdfg_->add_state("while_body");
    int body_id = state_id_of(body);
    sdfg_->add_interstate_edge(guard_id, body_id, cond);
    last_state_ = body_id;
    lower_block(st.body);
    sdfg_->add_interstate_edge(last_state_, guard_id);
    State& after = sdfg_->add_state("while_after");
    int after_id = state_id_of(after);
    sdfg_->add_interstate_edge(guard_id, after_id,
                               CodeExpr::unary(CodeOp::Not, cond));
    last_state_ = after_id;
  }

  // -- explicit dace.map loops ---------------------------------------------------
  struct MapBody {
    State* st = nullptr;
    int entry = -1, exit = -1;
    std::vector<std::string> params;
    std::map<std::string, int> outer_in;    // container -> outer access id
    std::map<std::string, int> outer_out;   // container -> outer access id
    std::set<std::string> entry_conns;      // containers routed through entry
    std::set<std::string> exit_conns;       // containers routed through exit
    std::map<std::string, int> local_scalars;  // name -> inner access id
  };

  void lower_map_for(const StmtNode& st) {
    std::vector<Range> ranges;
    for (const auto& s : st.iter->slices) {
      if (s.is_index) fail("E307", st, "dace.map requires ranges");
      Expr b = s.begin ? index_expr(s.begin) : Expr(0);
      if (s.end == nullptr) fail("E307", st, "dace.map range needs an end");
      Expr e = index_expr(s.end);
      Expr stp = step_expr(s.step, "E307", "dace.map");
      ranges.emplace_back(b, e, stp);
    }
    if (ranges.size() != st.loop_vars.size())
      fail("E307", st, "dace.map rank does not match loop variables");

    MapBody mb;
    mb.st = &new_state("map");
    mb.params = st.loop_vars;
    auto [entry, exit] =
        mb.st->add_map("map_" + std::to_string(st.line), st.loop_vars,
                       Subset(ranges));
    mb.entry = entry;
    mb.exit = exit;

    // Bind params as symbols for index translation.
    std::map<std::string, std::optional<Var>> prev;
    for (const auto& p : st.loop_vars) {
      if (auto it = vars_.find(p); it != vars_.end()) prev[p] = it->second;
      else prev[p] = std::nullopt;
      vars_[p] = Var{Var::K::Symbol, p};
    }

    for (const auto& s : st.body) lower_map_stmt(mb, *s);

    // If the map produced no outputs at all, that is an error.
    if (mb.exit_conns.empty() && mb.local_scalars.empty())
      fail("E307", st, "dace.map body has no effect");
    // Entry with no inputs still needs to dominate tasklets; ensured by
    // construction (every tasklet has an ordering edge from entry if it
    // had no data inputs).

    for (const auto& [p, v] : prev) {
      if (v) {
        vars_[p] = *v;
      } else {
        vars_.erase(p);
      }
    }
  }

  /// Union of an element subset over the map parameter ranges; returns
  /// nullopt when a non-monotone index prevents a precise bound.
  std::optional<Subset> union_over_params(const Subset& element,
                                          const std::vector<std::string>& ps,
                                          const Subset& pranges) {
    std::vector<Range> out;
    for (size_t d = 0; d < element.dims(); ++d) {
      Expr e = element.range(d).begin;
      sym::SubstMap lo_map, hi_map;
      for (size_t i = 0; i < ps.size(); ++i) {
        const Range& pr = pranges.range(i);
        // Determine monotonicity wrt this param via the coefficient.
        sym::SubstMap probe0, probe1;
        probe0[ps[i]] = Expr(0);
        probe1[ps[i]] = Expr(1);
        Expr c = e.subs(probe1) - e.subs(probe0);
        if (c.provably_nonnegative()) {
          lo_map[ps[i]] = pr.begin;
          hi_map[ps[i]] = pr.end - Expr(1);
        } else if (c.provably_nonpositive()) {
          lo_map[ps[i]] = pr.end - Expr(1);
          hi_map[ps[i]] = pr.begin;
        } else {
          return std::nullopt;
        }
      }
      Expr lo = e.subs(lo_map);
      Expr hi = e.subs(hi_map);
      out.emplace_back(lo, hi + Expr(1));
    }
    return Subset(std::move(out));
  }

  void lower_map_stmt(MapBody& mb, const StmtNode& st) {
    switch (st.kind) {
      case StKind::Pass:
        return;
      case StKind::Assign:
        break;
      case StKind::AugAssign:
        break;
      default:
        fail("E307", st,
             "only assignments are supported inside dace.map bodies; use "
             "numpythonic style for complex bodies");
    }

    std::vector<InputRef> inputs;
    CodeExpr code = map_code(mb, st.value, inputs, st.line);

    if (st.kind == StKind::Assign && st.target->kind == ExKind::Name &&
        vars_.count(st.target->name) == 0) {
      // Local scalar definition inside the map scope.
      ir::DataDesc& d =
          sdfg_->add_scalar(sdfg_->unique_name("__s_" + st.target->name),
                            DType::f64, /*transient=*/true);
      int tl = wire_tasklet(mb, "set_" + st.target->name, inputs, code);
      int acc = mb.st->add_access(d.name);
      mb.st->add_edge(tl, "__out", acc, "", Memlet(d.name, Subset{}));
      mb.local_scalars[st.target->name] = acc;
      return;
    }

    // Target: indexed array (or scalar container for WCR).
    std::string container;
    Subset element;
    if (st.target->kind == ExKind::Subscript) {
      Operand t = resolve_subscript(st.target);
      if (!t.view_shape.empty())
        fail("E307", st, "map-body writes must target single elements");
      container = t.container;
      element = t.subset;
    } else if (st.target->kind == ExKind::Name) {
      auto it = vars_.find(st.target->name);
      if (it == vars_.end() || it->second.k != Var::K::Array)
        fail("E301", st, "unknown map-body target");
      const auto& d = sdfg_->array(it->second.target);
      if (!d.is_scalar())
        fail("E307", st, "map-body writes to arrays must be indexed");
      container = d.name;
      element = Subset{};
    } else {
      fail("E307", st, "unsupported map-body target");
    }

    WCR wcr = WCR::None;
    if (st.kind == StKind::AugAssign) {
      // Race detection: the write is conflict-free iff every map parameter
      // appears in the target index expressions.
      std::set<std::string> used;
      for (const auto& r : element.ranges()) r.begin.free_symbols(used);
      bool covers = true;
      for (const auto& p : mb.params) covers &= used.count(p) > 0;
      if (covers) {
        // Read-modify-write without conflicts.
        std::string conn = "__win";
        inputs.push_back(InputRef{conn, container, element, -1});
        static const std::map<std::string, CodeOp> ops = {
            {"+", CodeOp::Add}, {"-", CodeOp::Sub},
            {"*", CodeOp::Mul}, {"/", CodeOp::Div}};
        code = CodeExpr::binary(ops.at(st.aug_op), CodeExpr::input(conn),
                                code);
      } else {
        static const std::map<std::string, WCR> wcrs = {
            {"+", WCR::Sum}, {"*", WCR::Prod}};
        auto it = wcrs.find(st.aug_op);
        if (it == wcrs.end())
          fail("E307", st, "unsupported write-conflict resolution op");
        wcr = it->second;
      }
    }

    int tl = wire_tasklet(mb, "w_" + container, inputs, code);
    // tasklet -> exit -> outer access.
    const auto* me = mb.st->node_as<ir::MapEntry>(mb.entry);
    Memlet inner(container, element, wcr);
    mb.st->add_edge(tl, "__out", mb.exit, "IN_" + container, inner);
    if (!mb.exit_conns.count(container)) {
      mb.exit_conns.insert(container);
      int oacc = mb.st->add_access(container);
      mb.outer_out[container] = oacc;
      auto uni = union_over_params(element, mb.params, me->range);
      Memlet outer(container,
                   uni ? *uni
                       : Subset::full(sdfg_->array(container).shape),
                   wcr);
      outer.dynamic = !uni.has_value();
      mb.st->add_edge(mb.exit, "OUT_" + container, oacc, "", outer);
    } else {
      auto uni = union_over_params(element, mb.params, me->range);
      for (auto& e : mb.st->edges()) {
        if (e.src == mb.exit && e.src_conn == "OUT_" + container) {
          if (uni && !e.memlet.dynamic) {
            e.memlet.subset = Subset::hull(e.memlet.subset, *uni);
          } else {
            e.memlet.subset = Subset::full(sdfg_->array(container).shape);
            e.memlet.dynamic = true;
          }
          if (wcr != e.memlet.wcr) e.memlet.wcr = wcr;  // mixed writes
        }
      }
    }
  }

  int wire_tasklet(MapBody& mb, const std::string& name,
                   const std::vector<InputRef>& inputs, const CodeExpr& code) {
    std::vector<std::string> conns;
    for (const auto& in : inputs) conns.push_back(in.conn);
    int tl = mb.st->add_tasklet(name, conns, code);
    bool any_data = false;
    for (const auto& in : inputs) {
      if (in.local_access >= 0) {
        mb.st->add_edge(in.local_access, "", tl, in.conn,
                        Memlet(container_of_access(mb, in.local_access),
                               Subset{}));
        any_data = true;
        continue;
      }
      // Route through the map entry.
      if (!mb.entry_conns.count(in.container)) {
        mb.entry_conns.insert(in.container);
        int acc = mb.st->add_access(in.container);
        mb.outer_in[in.container] = acc;
        const auto& d = sdfg_->array(in.container);
        const auto* men = mb.st->node_as<ir::MapEntry>(mb.entry);
        auto uni = union_over_params(in.subset, mb.params, men->range);
        Memlet outer(in.container, uni ? *uni : Subset::full(d.shape));
        outer.dynamic = !uni.has_value();
        mb.st->add_edge(acc, "", mb.entry, "IN_" + in.container,
                        std::move(outer));
      } else {
        // Widen the recorded read set with this access.
        const auto* men = mb.st->node_as<ir::MapEntry>(mb.entry);
        auto uni = union_over_params(in.subset, mb.params, men->range);
        for (auto& e : mb.st->edges()) {
          if (e.dst == mb.entry && e.dst_conn == "IN_" + in.container) {
            if (uni && !e.memlet.dynamic) {
              e.memlet.subset = Subset::hull(e.memlet.subset, *uni);
            } else {
              e.memlet.subset =
                  Subset::full(sdfg_->array(in.container).shape);
              e.memlet.dynamic = true;
            }
          }
        }
      }
      mb.st->add_edge(mb.entry, "OUT_" + in.container, tl, in.conn,
                      Memlet(in.container, in.subset));
      any_data = true;
    }
    if (!any_data) {
      mb.st->add_edge(mb.entry, "", tl, "", Memlet());
    }
    return tl;
  }

  std::string container_of_access(MapBody& mb, int access_id) {
    auto* a = mb.st->node_as<ir::AccessNode>(access_id);
    DACE_CHECK(a != nullptr, "internal: not an access node");
    return a->data;
  }

  /// Translate a scalar expression inside a map body to tasklet code,
  /// collecting input references.
  CodeExpr map_code(MapBody& mb, const ExprPtr& e,
                    std::vector<InputRef>& inputs, int line) {
    switch (e->kind) {
      case ExKind::Num:
        return CodeExpr::constant(e->num);
      case ExKind::Name: {
        // Local scalar defined earlier in the map body?
        if (auto it = mb.local_scalars.find(e->name);
            it != mb.local_scalars.end()) {
          std::string conn = "__l" + std::to_string(inputs.size());
          inputs.push_back(InputRef{conn, "", Subset{}, it->second});
          return CodeExpr::input(conn);
        }
        auto it = vars_.find(e->name);
        if (it != vars_.end()) {
          if (it->second.k == Var::K::Symbol)
            return CodeExpr::symbol(it->second.target);
          const auto& d = sdfg_->array(it->second.target);
          if (!d.is_scalar())
            fail("E307", e, "arrays inside map bodies must be indexed: '" +
                                e->name + "'");
          std::string conn = "__c" + std::to_string(inputs.size());
          inputs.push_back(InputRef{conn, d.name, Subset{}, -1});
          return CodeExpr::input(conn);
        }
        if (sdfg_->has_symbol(e->name)) return CodeExpr::symbol(e->name);
        fail("E301", e, "unknown name '" + e->name + "' in map body");
      }
      case ExKind::Subscript: {
        Operand t = resolve_subscript(e);
        if (!t.view_shape.empty())
          fail("E307", e, "map-body reads must be single elements");
        std::string conn = "__r" + std::to_string(inputs.size());
        inputs.push_back(InputRef{conn, t.container, t.subset, -1});
        return CodeExpr::input(conn);
      }
      case ExKind::BinOp: {
        static const std::map<std::string, CodeOp> ops = {
            {"+", CodeOp::Add}, {"-", CodeOp::Sub}, {"*", CodeOp::Mul},
            {"/", CodeOp::Div}, {"**", CodeOp::Pow}, {"%", CodeOp::Mod},
            {"<", CodeOp::Lt}, {"<=", CodeOp::Le}, {">", CodeOp::Gt},
            {">=", CodeOp::Ge}, {"==", CodeOp::Eq}, {"!=", CodeOp::Ne},
            {"and", CodeOp::And}, {"or", CodeOp::Or}};
        auto it = ops.find(e->name);
        if (it == ops.end())
          fail("E302", e, "unsupported operator in map body: '" + e->name + "'");
        CodeExpr a = map_code(mb, e->args[0], inputs, line);
        CodeExpr b = map_code(mb, e->args[1], inputs, line);
        return CodeExpr::binary(it->second, a, b);
      }
      case ExKind::UnOp: {
        CodeExpr a = map_code(mb, e->args[0], inputs, line);
        if (e->name == "-") return CodeExpr::unary(CodeOp::Neg, a);
        if (e->name == "not") return CodeExpr::unary(CodeOp::Not, a);
        fail("E302", e, "unsupported unary operator in map body");
      }
      case ExKind::Call: {
        if (!e->base || e->base->kind != ExKind::Name)
          fail("E305", e, "unsupported call in map body");
        static const std::map<std::string, CodeOp> unary = {
            {"np.exp", CodeOp::Exp},   {"np.sqrt", CodeOp::Sqrt},
            {"np.log", CodeOp::Log},   {"np.abs", CodeOp::Abs},
            {"np.sin", CodeOp::Sin},   {"np.cos", CodeOp::Cos},
            {"np.tanh", CodeOp::Tanh}, {"abs", CodeOp::Abs}};
        static const std::map<std::string, CodeOp> binary = {
            {"np.minimum", CodeOp::Min},
            {"np.maximum", CodeOp::Max},
            {"min", CodeOp::Min},
            {"max", CodeOp::Max},
            {"np.power", CodeOp::Pow}};
        const std::string& fn = e->base->name;
        if (auto it = unary.find(fn); it != unary.end())
          return CodeExpr::unary(it->second,
                                 map_code(mb, e->args[0], inputs, line));
        if (auto it = binary.find(fn); it != binary.end())
          return CodeExpr::binary(it->second,
                                  map_code(mb, e->args[0], inputs, line),
                                  map_code(mb, e->args[1], inputs, line));
        fail("E305", e, "unsupported function in map body: '" + fn + "'");
      }
      default:
        fail("E302", e, "unsupported expression in map body");
    }
  }
};

}  // namespace

std::unique_ptr<ir::SDFG> lower_to_sdfg(const Function& f) {
  return Lowerer(f, nullptr).run();
}

std::unique_ptr<ir::SDFG> lower_to_sdfg(const Function& f,
                                        diag::DiagSink& sink) {
  try {
    return Lowerer(f, nullptr, &sink).run();
  } catch (const diag::DiagError&) {
    return nullptr;  // already recorded in the sink
  } catch (const Error& e) {
    sink.error("E300", 0, 0,
               std::string("internal lowering error: ") + e.what());
    return nullptr;
  }
}

std::unique_ptr<ir::SDFG> compile_to_sdfg(const std::string& source,
                                          diag::DiagSink& sink,
                                          const std::string& name) {
  Module m = [&] {
    OBS_SPAN("frontend", "parse");
    return parse(source, sink);
  }();
  if (m.functions.empty()) {
    if (!sink.has_errors())
      sink.error("E212", 0, 0, "no functions in module");
    return nullptr;
  }
  // Lower every function in order; earlier functions are callable from
  // later ones (calls become nested SDFGs).  A function that fails to
  // lower is skipped (its diagnostics stay in the sink) so the rest of
  // the module is still checked.
  KnownFunctions known;
  std::unique_ptr<ir::SDFG> result;
  const std::string want = name.empty() ? m.functions.back().name : name;
  for (const auto& f : m.functions) {
    obs::Span lspan("frontend", "lower");
    if (lspan.active())
      lspan.set_args("{\"function\":\"" + diag::json_escape(f.name) + "\"}");
    std::unique_ptr<ir::SDFG> sdfg;
    try {
      sdfg = Lowerer(f, &known, &sink).run();
    } catch (const diag::DiagError&) {
      continue;  // recorded in the sink; keep checking later functions
    } catch (const Error& e) {
      sink.error("E300", 0, 0,
                 std::string("internal lowering error: ") + e.what());
      continue;
    }
    if (f.name == want) {
      result = std::move(sdfg);
      // Register a shared clone so later functions can still call it.
      known[f.name] = KnownFunction{std::shared_ptr<ir::SDFG>(result->clone()),
                                    f.params};
    } else {
      known[f.name] =
          KnownFunction{std::shared_ptr<ir::SDFG>(std::move(sdfg)), f.params};
    }
  }
  if (!result && !sink.has_errors())
    sink.error("E212", 0, 0, "no function named '" + want + "'");
  return result;
}

std::unique_ptr<ir::SDFG> compile_to_sdfg(const std::string& source,
                                          const std::string& name) {
  diag::DiagSink sink;
  sink.set_source("<input>", source);
  auto result = compile_to_sdfg(source, sink, name);
  if (!result || sink.has_errors()) throw diag_error(sink);
  return result;
}

}  // namespace dace::fe
