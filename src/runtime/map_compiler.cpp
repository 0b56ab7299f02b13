// Compiles SDFG map scopes into VM bytecode.
//
// The whole scope -- loop nest, symbolic memlet offsets, tasklet DAG,
// inner scalar transients, nested sequential maps -- becomes one register
// program.  Loop-invariant subexpressions (strides, symbol loads) are
// hoisted into a preamble; per-iteration offsets are emitted as canonical
// symbolic polynomials, so fused stencil bodies compile to tight code.
#include <algorithm>
#include <map>
#include <optional>

#include "analysis/absint.hpp"
#include "runtime/executor.hpp"

namespace dace::rt {

namespace {

namespace absint = dace::analysis::absint;

using ir::CodeExpr;
using ir::CodeOp;
using sym::Expr;
using sym::ExprKind;

class MapCompiler {
 public:
  MapCompiler(const ir::SDFG& sdfg, const ir::State& st, int entry,
              const absint::Env* state_env)
      : sdfg_(sdfg), st_(st), top_entry_(entry), state_env_(state_env) {}

  Program compile() {
    const auto* me = st_.node_as<const ir::MapEntry>(top_entry_);
    DACE_CHECK(me != nullptr, "map compiler: node is not a map entry");
    prog_.splittable = me->schedule == ir::Schedule::CPUParallel ||
                       me->schedule == ir::Schedule::GPUDevice ||
                       me->schedule == ir::Schedule::FPGAPipeline;
    // WCR stores that two chunks of a split launch may apply to the same
    // element update atomically; the rest are plain read-modify-writes.
    if (prog_.splittable)
      atomic_wcr_ = analysis::conflicting_wcr_writes(sdfg_, st_, top_entry_);
    // Interval-analysis facts drive guard insertion and the Tier-1
    // vectorization flags.  Off restores the unchecked seed behavior;
    // All guards every access regardless of proof (the differential
    // fuzzer uses it to cross-validate the prover).
    absint_mode_ = absint::mode();
    if (absint_mode_ != absint::Mode::Off) {
      std::optional<absint::SymbolRanges> ranges;
      const absint::Env* env = state_env_;
      if (!env) {
        ranges = absint::SymbolRanges::compute(sdfg_);
        env = &ranges->at(sdfg_.state_id(&st_));
      }
      facts_ = absint::analyze_map(sdfg_, st_, top_entry_, *env);
      prog_.use_restrict = facts_.innermost_contiguous;
      prog_.vec_innermost = facts_.vectorizable;
    }
    // Scalar transients with an access node inside this scope live in
    // (thread-private) registers; scalars produced outside the scope are
    // memory-resident and loaded/stored like rank-0 arrays.
    for (int id : st_.scope_nodes(top_entry_)) {
      if (const auto* a = st_.node_as<const ir::AccessNode>(id)) {
        const ir::DataDesc& d = sdfg_.array(a->data);
        if (d.is_scalar() && d.transient) register_scalars_.insert(a->data);
      }
    }
    // i0/i1 reserved for the split outer bounds.
    next_ireg_ = 2;
    emit_scope(top_entry_, /*outermost=*/true);
    emit(Op::Halt);
    // Loop-invariant expressions were collected into a preamble that runs
    // once; splice it in front and retarget the body's jumps.
    if (!preamble_.empty()) {
      int64_t shift = (int64_t)preamble_.size();
      for (Instr& in : prog_.code) {
        if (in.op == Op::Jmp || in.op == Op::JGe) in.imm += shift;
      }
      prog_.code.insert(prog_.code.begin(), preamble_.begin(),
                        preamble_.end());
    }
    prog_.n_iregs = next_ireg_;
    prog_.n_fregs = std::max(next_freg_, 1);
    return std::move(prog_);
  }

 private:
  const ir::SDFG& sdfg_;
  const ir::State& st_;
  int top_entry_;
  const absint::Env* state_env_;
  Program prog_;
  int next_ireg_ = 2;
  int next_freg_ = 0;
  std::map<std::string, int> param_reg_;       // map param -> ireg
  std::map<std::string, int> invariant_reg_;   // hoisted expr -> ireg
  std::map<std::string, int> scalar_reg_;      // scalar transient -> freg
  std::set<std::string> register_scalars_;     // in-scope scalar transients
  std::map<int, int> tasklet_out_freg_;        // tasklet node -> freg
  std::vector<Instr> preamble_;                // runs once, before the body
  bool in_loop_ = false;
  bool to_preamble_ = false;
  absint::Mode absint_mode_ = absint::Mode::Off;
  absint::MapFacts facts_;
  std::set<size_t> atomic_wcr_;  // state-edge indices of atomic WCR stores

  size_t edge_index(const ir::Edge* e) const {
    return static_cast<size_t>(e - st_.edges().data());
  }

  /// Whether the memlet access of `e` needs a runtime bounds guard:
  /// never in Off mode, always in All mode, and only when the interval
  /// analysis failed to prove it in range otherwise.
  bool needs_guard(const ir::Edge* e) const {
    if (absint_mode_ == absint::Mode::Off) return false;
    if (absint_mode_ == absint::Mode::All) return true;
    return facts_.inrange_edges.count(edge_index(e)) == 0;
  }

  /// Emit a Guard trapping unless the flat offset lies in [0, numel).
  void emit_guard(const ir::Memlet& m, int off_reg) {
    const ir::DataDesc& d = sdfg_.array(m.data);
    Expr numel(int64_t{1});
    for (const Expr& s : d.shape) numel = numel * s;
    int limit = emit_expr(numel);  // invariant: hoisted to the preamble
    emit(Op::Guard, (uint16_t)off_reg, (uint16_t)limit, 0,
         prog_.array_slot(m.data));
  }

  size_t emit(Op op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
              int64_t imm = 0, double fimm = 0, uint8_t flag = 0) {
    std::vector<Instr>& out = to_preamble_ ? preamble_ : prog_.code;
    out.push_back(Instr{op, a, b, c, flag, imm, fimm});
    return out.size() - 1;
  }

  int ireg() {
    DACE_CHECK(next_ireg_ < 60000, "map compiler: integer register overflow");
    return next_ireg_++;
  }
  int freg() {
    DACE_CHECK(next_freg_ < 60000, "map compiler: float register overflow");
    return next_freg_++;
  }

  bool expr_is_invariant(const Expr& e) const {
    for (const auto& s : e.free_symbols()) {
      if (param_reg_.count(s)) return false;
    }
    return true;
  }

  /// Emit integer expression into a register.  Expressions with no map
  /// parameters (strides, symbolic bounds like an inner loop's `N`) are
  /// emitted into the once-run preamble and cached, even when requested
  /// from inside a loop -- nested scopes then reuse the same register
  /// instead of re-evaluating per outer iteration.
  int emit_expr(const Expr& e) {
    std::string key = e.to_string();
    if (auto it = invariant_reg_.find(key); it != invariant_reg_.end())
      return it->second;
    if (expr_is_invariant(e)) {
      bool saved = to_preamble_;
      to_preamble_ = true;
      int r = emit_expr_inner(e);
      to_preamble_ = saved;
      invariant_reg_[key] = r;
      return r;
    }
    return emit_expr_inner(e);
  }

  int emit_expr_inner(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::Const: {
        int r = ireg();
        emit(Op::IConst, (uint16_t)r, 0, 0, e.constant());
        return r;
      }
      case ExprKind::Symbol: {
        const std::string& n = e.symbol_name();
        if (auto it = param_reg_.find(n); it != param_reg_.end())
          return it->second;
        int r = ireg();
        emit(Op::ISym, (uint16_t)r, 0, 0, prog_.symbol_slot(n));
        return r;
      }
      case ExprKind::Add:
      case ExprKind::Mul: {
        Op op = e.kind() == ExprKind::Add ? Op::IAdd : Op::IMul;
        auto ops = e.operands();
        int acc = emit_expr(ops[0]);
        for (size_t i = 1; i < ops.size(); ++i) {
          int rhs = emit_expr(ops[i]);
          int r = ireg();
          emit(op, (uint16_t)r, (uint16_t)acc, (uint16_t)rhs);
          acc = r;
        }
        return acc;
      }
      default: {
        auto ops = e.operands();
        int a = emit_expr(ops[0]);
        int b = emit_expr(ops[1]);
        int r = ireg();
        Op op;
        switch (e.kind()) {
          case ExprKind::FloorDiv: op = Op::IFloorDiv; break;
          case ExprKind::Mod: op = Op::IMod; break;
          case ExprKind::Min: op = Op::IMin; break;
          default: op = Op::IMax; break;
        }
        emit(op, (uint16_t)r, (uint16_t)a, (uint16_t)b);
        return r;
      }
    }
  }

  /// Flat-offset expression for an element memlet.
  Expr offset_expr(const ir::Memlet& m) const {
    const ir::DataDesc& d = sdfg_.array(m.data);
    std::vector<Expr> strides = d.strides();
    Expr off(int64_t{0});
    for (size_t dim = 0; dim < m.subset.dims(); ++dim) {
      off = off + m.subset.range(dim).begin * strides[dim];
    }
    return off;
  }

  /// Emit tasklet code expression into a float register.
  int emit_code(const CodeExpr& e, const std::map<std::string, int>& inputs) {
    switch (e.op()) {
      case CodeOp::Const: {
        int r = freg();
        emit(Op::FConst, (uint16_t)r, 0, 0, 0, e.value());
        return r;
      }
      case CodeOp::Input: {
        auto it = inputs.find(e.name());
        DACE_CHECK(it != inputs.end(), "map compiler: unbound input ",
                   e.name());
        return it->second;
      }
      case CodeOp::Sym: {
        int r = freg();
        if (auto it = param_reg_.find(e.name()); it != param_reg_.end()) {
          emit(Op::FFromI, (uint16_t)r, (uint16_t)it->second);
        } else {
          emit(Op::FSym, (uint16_t)r, 0, 0, prog_.symbol_slot(e.name()));
        }
        return r;
      }
      case CodeOp::Select: {
        int c = emit_code(e.args()[0], inputs);
        int t = emit_code(e.args()[1], inputs);
        int f = emit_code(e.args()[2], inputs);
        int r = freg();
        emit(Op::FSelect, (uint16_t)r, (uint16_t)c, (uint16_t)t, f);
        return r;
      }
      default:
        break;
    }
    static const std::map<CodeOp, Op> binmap = {
        {CodeOp::Add, Op::FAdd}, {CodeOp::Sub, Op::FSub},
        {CodeOp::Mul, Op::FMul}, {CodeOp::Div, Op::FDiv},
        {CodeOp::Pow, Op::FPow}, {CodeOp::Mod, Op::FMod},
        {CodeOp::Min, Op::FMin}, {CodeOp::Max, Op::FMax},
        {CodeOp::Lt, Op::FLt},   {CodeOp::Le, Op::FLe},
        {CodeOp::Gt, Op::FGt},   {CodeOp::Ge, Op::FGe},
        {CodeOp::Eq, Op::FEq},   {CodeOp::Ne, Op::FNe},
        {CodeOp::And, Op::FAnd}, {CodeOp::Or, Op::FOr}};
    static const std::map<CodeOp, Op> unmap = {
        {CodeOp::Neg, Op::FNeg},     {CodeOp::Abs, Op::FAbs},
        {CodeOp::Exp, Op::FExp},     {CodeOp::Log, Op::FLog},
        {CodeOp::Sqrt, Op::FSqrt},   {CodeOp::Sin, Op::FSin},
        {CodeOp::Cos, Op::FCos},     {CodeOp::Tanh, Op::FTanh},
        {CodeOp::Floor, Op::FFloor}, {CodeOp::Not, Op::FNot}};
    if (auto it = binmap.find(e.op()); it != binmap.end()) {
      int a = emit_code(e.args()[0], inputs);
      int b = emit_code(e.args()[1], inputs);
      int r = freg();
      emit(it->second, (uint16_t)r, (uint16_t)a, (uint16_t)b);
      return r;
    }
    auto it = unmap.find(e.op());
    DACE_CHECK(it != unmap.end(), "map compiler: unsupported code op");
    int a = emit_code(e.args()[0], inputs);
    int r = freg();
    emit(it->second, (uint16_t)r, (uint16_t)a);
    return r;
  }

  /// Direct children of a map scope: nodes whose innermost scope is it.
  std::vector<int> direct_children(int entry) const {
    std::vector<int> scope = st_.scope_nodes(entry);
    std::vector<int> order = st_.topological_order();
    std::vector<int> out;
    for (int id : order) {
      if (std::find(scope.begin(), scope.end(), id) == scope.end()) continue;
      if (st_.scope_of(id) == entry) out.push_back(id);
    }
    return out;
  }

  void emit_scope(int entry, bool outermost) {
    const auto* me = st_.node_as<const ir::MapEntry>(entry);
    int exit = me->exit_node;

    // Loop headers.
    struct LoopInfo {
      int var;
      size_t cond_pos;
      int end_reg;
      int step_reg;
    };
    std::vector<LoopInfo> loops;
    for (size_t d = 0; d < me->params.size(); ++d) {
      const sym::Range& r = me->range.range(d);
      int begin_reg, end_reg;
      if (outermost && d == 0 && prog_.splittable) {
        begin_reg = 0;  // chunk lo
        end_reg = 1;    // chunk hi
      } else {
        begin_reg = emit_expr(r.begin);
        end_reg = emit_expr(r.end);
      }
      int step_reg = emit_expr(r.step);
      int var = ireg();
      emit(Op::IMov, (uint16_t)var, (uint16_t)begin_reg);
      size_t cond = emit(Op::JGe, (uint16_t)var, (uint16_t)end_reg, 0,
                         /*imm target patched later*/ 0);
      param_reg_[me->params[d]] = var;
      loops.push_back(LoopInfo{var, cond, end_reg, step_reg});
      in_loop_ = true;
    }

    // Body.
    for (int id : direct_children(entry)) {
      const ir::Node* n = st_.node(id);
      switch (n->kind) {
        case ir::NodeKind::Tasklet:
          emit_tasklet(exit, id);
          break;
        case ir::NodeKind::MapEntry:
          emit_scope(id, /*outermost=*/false);
          break;
        case ir::NodeKind::Access: {
          const auto* a = static_cast<const ir::AccessNode*>(n);
          const ir::DataDesc& d = sdfg_.array(a->data);
          DACE_CHECK(d.is_scalar() && d.transient,
                     "map compiler: only scalar transients are supported "
                     "inside map scopes (found '", a->data, "')");
          break;  // handled through access_freg_ when written
        }
        case ir::NodeKind::MapExit:
          break;
        default:
          throw err("map compiler: unsupported node inside map scope");
      }
    }

    // Close loops innermost-first: a single in-place increment per
    // back-edge (the canonical latch pattern the bytecode optimizer's
    // strength reduction keys on).
    for (size_t d = loops.size(); d-- > 0;) {
      const LoopInfo& li = loops[d];
      emit(Op::IAdd, (uint16_t)li.var, (uint16_t)li.var,
           (uint16_t)li.step_reg);
      emit(Op::Jmp, 0, 0, 0, (int64_t)li.cond_pos);
      prog_.code[li.cond_pos].imm = (int64_t)prog_.code.size();
      param_reg_.erase(me->params[d]);
    }
    if (loops.empty()) in_loop_ = false;
  }

  bool is_register_scalar(const std::string& data) const {
    return register_scalars_.count(data) > 0;
  }

  /// Accumulate `val` into a scalar register per the WCR operator.
  void emit_reg_wcr(int reg, int val, ir::WCR wcr) {
    Op op;
    switch (wcr) {
      case ir::WCR::Sum: op = Op::FAdd; break;
      case ir::WCR::Prod: op = Op::FMul; break;
      case ir::WCR::Min: op = Op::FMin; break;
      case ir::WCR::Max: op = Op::FMax; break;
      default: throw err("map compiler: bad register WCR");
    }
    emit(op, (uint16_t)reg, (uint16_t)reg, (uint16_t)val);
  }

  void emit_tasklet(int exit, int id) {
    const auto* t = st_.node_as<const ir::Tasklet>(id);
    std::map<std::string, int> inputs;
    for (const auto* e : st_.in_edges(id)) {
      if (e->dst_conn.empty()) continue;  // ordering edge
      const ir::Node* src = st_.node(e->src);
      if (src->kind == ir::NodeKind::Tasklet) {
        auto it = tasklet_out_freg_.find(e->src);
        DACE_CHECK(it != tasklet_out_freg_.end(),
                   "map compiler: tasklet dependency not yet computed");
        inputs[e->dst_conn] = it->second;
        continue;
      }
      DACE_CHECK(!e->memlet.empty(), "map compiler: dataless input edge");
      if (is_register_scalar(e->memlet.data)) {
        auto it = scalar_reg_.find(e->memlet.data);
        DACE_CHECK(it != scalar_reg_.end(),
                   "map compiler: scalar transient '", e->memlet.data,
                   "' read before write");
        inputs[e->dst_conn] = it->second;
        continue;
      }
      if (src->kind == ir::NodeKind::MapEntry ||
          src->kind == ir::NodeKind::Access) {
        int off = emit_expr(offset_expr(e->memlet));
        if (needs_guard(e)) emit_guard(e->memlet, off);
        int r = freg();
        emit(Op::Load, (uint16_t)r, (uint16_t)off, 0,
             prog_.array_slot(e->memlet.data));
        inputs[e->dst_conn] = r;
        continue;
      }
      throw err("map compiler: unsupported tasklet input edge");
    }
    int out = emit_code(t->code, inputs);
    tasklet_out_freg_[id] = out;
    for (const auto* e : st_.out_edges(id)) {
      const ir::Node* dst = st_.node(e->dst);
      if (dst->kind == ir::NodeKind::Tasklet) continue;  // value edge
      if (e->memlet.empty()) continue;                   // ordering edge
      if (is_register_scalar(e->memlet.data)) {
        if (e->memlet.wcr == ir::WCR::None) {
          scalar_reg_[e->memlet.data] = out;
        } else {
          auto it = scalar_reg_.find(e->memlet.data);
          DACE_CHECK(it != scalar_reg_.end(),
                     "map compiler: WCR into uninitialized scalar '",
                     e->memlet.data, "'");
          emit_reg_wcr(it->second, out, e->memlet.wcr);
        }
        continue;
      }
      if (e->dst == exit || dst->kind == ir::NodeKind::MapExit ||
          dst->kind == ir::NodeKind::Access) {
        int off = emit_expr(offset_expr(e->memlet));
        if (needs_guard(e)) emit_guard(e->memlet, off);
        if (e->memlet.wcr == ir::WCR::None) {
          emit(Op::Store, (uint16_t)out, (uint16_t)off, 0,
               prog_.array_slot(e->memlet.data));
        } else {
          int kind = 1;
          switch (e->memlet.wcr) {
            case ir::WCR::Sum: kind = 1; break;
            case ir::WCR::Prod: kind = 2; break;
            case ir::WCR::Min: kind = 3; break;
            case ir::WCR::Max: kind = 4; break;
            default: break;
          }
          emit(Op::StoreWcr, (uint16_t)out, (uint16_t)off, (uint16_t)kind,
               prog_.array_slot(e->memlet.data), 0,
               atomic_wcr_.count(edge_index(e)) ? 1 : 0);
        }
        continue;
      }
      throw err("map compiler: unsupported tasklet output edge");
    }
  }
};

}  // namespace

Program compile_map_scope(const ir::SDFG& sdfg, const ir::State& st,
                          int entry, const absint::Env* state_env) {
  return MapCompiler(sdfg, st, entry, state_env).compile();
}

}  // namespace dace::rt
