#include "codegen/codegen.hpp"

#include <sstream>

#include "analysis/analysis.hpp"

namespace dace::cg {

namespace {

using ir::CodeExpr;
using ir::CodeOp;
using ir::SDFG;
using ir::State;
using sym::Expr;
using sym::ExprKind;

// -- symbolic expression printing -------------------------------------------

std::string sym_c(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::Const:
      return std::to_string(e.constant()) + "LL";
    case ExprKind::Symbol:
      return e.symbol_name();
    case ExprKind::Add: {
      std::string s = "(";
      auto ops = e.operands();
      for (size_t i = 0; i < ops.size(); ++i) {
        if (i) s += " + ";
        s += sym_c(ops[i]);
      }
      return s + ")";
    }
    case ExprKind::Mul: {
      std::string s = "(";
      auto ops = e.operands();
      for (size_t i = 0; i < ops.size(); ++i) {
        if (i) s += " * ";
        s += sym_c(ops[i]);
      }
      return s + ")";
    }
    case ExprKind::FloorDiv:
      return "dace_floordiv(" + sym_c(e.operands()[0]) + ", " +
             sym_c(e.operands()[1]) + ")";
    case ExprKind::Mod:
      return "dace_mod(" + sym_c(e.operands()[0]) + ", " +
             sym_c(e.operands()[1]) + ")";
    case ExprKind::Min:
      return "std::min<long long>(" + sym_c(e.operands()[0]) + ", " +
             sym_c(e.operands()[1]) + ")";
    case ExprKind::Max:
      return "std::max<long long>(" + sym_c(e.operands()[0]) + ", " +
             sym_c(e.operands()[1]) + ")";
  }
  throw err("codegen: unreachable symbolic kind");
}

// -- tasklet code printing ---------------------------------------------------

std::string code_c(const CodeExpr& e,
                   const std::map<std::string, std::string>& inputs) {
  auto arg = [&](size_t i) { return code_c(e.args()[i], inputs); };
  switch (e.op()) {
    case CodeOp::Const: {
      std::ostringstream os;
      os.precision(17);
      os << e.value();
      std::string s = os.str();
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos)
        s += ".0";
      return s;
    }
    case CodeOp::Input: {
      auto it = inputs.find(e.name());
      DACE_CHECK(it != inputs.end(), "codegen: unbound input ", e.name());
      return it->second;
    }
    case CodeOp::Sym:
      return "(double)" + e.name();
    case CodeOp::Add: return "(" + arg(0) + " + " + arg(1) + ")";
    case CodeOp::Sub: return "(" + arg(0) + " - " + arg(1) + ")";
    case CodeOp::Mul: return "(" + arg(0) + " * " + arg(1) + ")";
    case CodeOp::Div: return "(" + arg(0) + " / " + arg(1) + ")";
    case CodeOp::Pow: return "std::pow(" + arg(0) + ", " + arg(1) + ")";
    case CodeOp::Mod: return "dace_fmod(" + arg(0) + ", " + arg(1) + ")";
    case CodeOp::Min: return "std::min(" + arg(0) + ", " + arg(1) + ")";
    case CodeOp::Max: return "std::max(" + arg(0) + ", " + arg(1) + ")";
    case CodeOp::Neg: return "(-" + arg(0) + ")";
    case CodeOp::Abs: return "std::abs(" + arg(0) + ")";
    case CodeOp::Exp: return "std::exp(" + arg(0) + ")";
    case CodeOp::Log: return "std::log(" + arg(0) + ")";
    case CodeOp::Sqrt: return "std::sqrt(" + arg(0) + ")";
    case CodeOp::Sin: return "std::sin(" + arg(0) + ")";
    case CodeOp::Cos: return "std::cos(" + arg(0) + ")";
    case CodeOp::Tanh: return "std::tanh(" + arg(0) + ")";
    case CodeOp::Floor: return "std::floor(" + arg(0) + ")";
    case CodeOp::Lt: return "((" + arg(0) + " < " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::Le: return "((" + arg(0) + " <= " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::Gt: return "((" + arg(0) + " > " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::Ge: return "((" + arg(0) + " >= " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::Eq: return "((" + arg(0) + " == " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::Ne: return "((" + arg(0) + " != " + arg(1) + ") ? 1.0 : 0.0)";
    case CodeOp::And:
      return "(((" + arg(0) + " != 0.0) && (" + arg(1) +
             " != 0.0)) ? 1.0 : 0.0)";
    case CodeOp::Or:
      return "(((" + arg(0) + " != 0.0) || (" + arg(1) +
             " != 0.0)) ? 1.0 : 0.0)";
    case CodeOp::Not: return "((" + arg(0) + " == 0.0) ? 1.0 : 0.0)";
    case CodeOp::Select:
      return "((" + arg(0) + " != 0.0) ? " + arg(1) + " : " + arg(2) + ")";
  }
  throw err("codegen: unreachable code op");
}

std::string cond_c(const CodeExpr& e) { return code_c(e, {}) + " != 0.0"; }

// ---------------------------------------------------------------------------

class Emitter {
 public:
  Emitter(const SDFG& sdfg, Flavor flavor) : sdfg_(sdfg), flavor_(flavor) {}

  std::string run() {
    prelude();
    signature();
    declarations();
    control_flow();
    os_ << "__dace_end: return;\n}\n";
    return os_.str();
  }

 private:
  const SDFG& sdfg_;
  Flavor flavor_;
  std::ostringstream os_;
  int indent_ = 1;
  int tmp_counter_ = 0;

  void line(const std::string& s) {
    for (int i = 0; i < indent_; ++i) os_ << "  ";
    os_ << s << "\n";
  }

  void prelude() {
    os_ << "// Generated by DaCe++ (" <<
        (flavor_ == Flavor::CPU ? "CPU backend"
         : flavor_ == Flavor::CUDA ? "CUDA backend" : "HLS backend")
        << ") from SDFG '" << sdfg_.name() << "'.\n";
    os_ << "#include <algorithm>\n#include <cmath>\n#include <cstdint>\n"
           "#include <vector>\n\n";
    if (flavor_ == Flavor::CUDA) {
      os_ << "// NOTE: device kernels are emitted inline below as "
             "annotated\n// parallel regions; nvcc splits them into "
             "__global__ functions.\n";
    }
    os_ << "static inline long long dace_floordiv(long long a, long long b) "
           "{\n  long long q = a / b;\n  if ((a % b != 0) && ((a < 0) != (b "
           "< 0))) --q;\n  return q;\n}\n";
    os_ << "static inline long long dace_mod(long long a, long long b) {\n"
           "  return a - dace_floordiv(a, b) * b;\n}\n";
    os_ << "static inline double dace_fmod(double a, double b) {\n"
           "  double r = std::fmod(a, b);\n"
           "  if (r != 0 && ((r < 0) != (b < 0))) r += b;\n  return r;\n}\n\n";
  }

  void signature() {
    os_ << "extern \"C\" void " << sdfg_.name()
        << "(double** __args, long long* __syms) {\n";
  }

  void declarations() {
    size_t i = 0;
    for (const auto& an : sdfg_.arg_names()) {
      line("double* " + an + " = __args[" + std::to_string(i++) + "];");
    }
    i = 0;
    for (const auto& s : symbol_order(sdfg_)) {
      line("long long " + s + " = __syms[" + std::to_string(i++) + "];");
    }
    // Symbols assigned on interstate edges (loop variables).
    std::set<std::string> free = sdfg_.free_symbols();
    for (const auto& s : sdfg_.symbols()) {
      if (!free.count(s) && !is_map_param(s))
        line("long long " + s + " = 0;");
    }
    // Transients.
    for (const auto& [name, d] : sdfg_.arrays()) {
      if (!d.transient) continue;
      DACE_CHECK(!d.is_stream, "codegen: streams are FPGA-executor only");
      if (d.is_scalar()) {
        declare_scalar(name);
        continue;
      }
      std::string n = sym_c(d.num_elements());
      if (d.lifetime == ir::Lifetime::Persistent) {
        line("static std::vector<double> __buf_" + name + ";");
        line("__buf_" + name + ".resize((size_t)" + n + ");");
      } else if (d.storage == ir::Storage::CPUStack &&
                 d.num_elements().is_constant()) {
        line("double __stack_" + name + "[" +
             std::to_string(d.num_elements().constant()) + "] = {};");
        line("double* " + name + " = __stack_" + name + ";");
        continue;
      } else {
        line("std::vector<double> __buf_" + name + "((size_t)" + n + ");");
      }
      line("double* " + name + " = __buf_" + name + ".data();");
    }
  }

  bool is_map_param(const std::string& s) const {
    for (int sid : sdfg_.state_ids()) {
      const State& st = sdfg_.state(sid);
      for (int nid : st.node_ids()) {
        if (const auto* m = st.node_as<const ir::MapEntry>(nid)) {
          for (const auto& p : m->params) {
            if (p == s) return true;
          }
        }
      }
    }
    return false;
  }

  void control_flow() {
    line("goto __dace_state_" + std::to_string(sdfg_.start_state()) + ";");
    for (int sid : sdfg_.state_order()) {
      os_ << "__dace_state_" << sid << ": {\n";
      emit_state(sdfg_.state(sid));
      // Transitions.
      bool has_unconditional = false;
      for (size_t ei : sdfg_.out_interstate(sid)) {
        const auto& e = sdfg_.interstate_edges()[ei];
        std::string assigns;
        for (const auto& [k, v] : e.assignments)
          assigns += k + " = " + sym_c(v) + "; ";
        if (e.condition.valid()) {
          line("if (" + cond_c(e.condition) + ") { " + assigns +
               "goto __dace_state_" + std::to_string(e.dst) + "; }");
        } else {
          line(assigns + "goto __dace_state_" + std::to_string(e.dst) + ";");
          has_unconditional = true;
          break;
        }
      }
      if (!has_unconditional) line("goto __dace_end;");
      os_ << "}\n";
    }
  }

  std::string offset_c(const ir::Memlet& m) const {
    const ir::DataDesc& d = sdfg_.array(m.data);
    std::vector<Expr> strides = d.strides();
    Expr off(int64_t{0});
    for (size_t dim = 0; dim < m.subset.dims(); ++dim)
      off = off + m.subset.range(dim).begin * strides[dim];
    return sym_c(off);
  }

  void emit_state(const State& st) {
    std::set<int> inner;
    for (int id : st.node_ids()) {
      if (st.node(id)->kind == ir::NodeKind::MapEntry && st.scope_of(id) == -1) {
        for (int s : st.scope_nodes(id)) inner.insert(s);
      }
    }
    for (int id : st.topological_order()) {
      if (inner.count(id)) continue;
      switch (st.node(id)->kind) {
        case ir::NodeKind::MapEntry:
          emit_map(st, id, atomic_wcr(st, id), /*top=*/true);
          break;
        case ir::NodeKind::Tasklet:
          emit_tasklet(st, id, {});
          break;
        case ir::NodeKind::Library:
          emit_library(st, id);
          break;
        case ir::NodeKind::Access:
        case ir::NodeKind::MapExit:
          break;
        default:
          throw err("codegen: unsupported top-level node");
      }
    }
  }

  static bool parallel_schedule(const ir::MapEntry& me) {
    return me.schedule == ir::Schedule::CPUParallel ||
           me.schedule == ir::Schedule::GPUDevice;
  }

  /// WCR output edges (indices into st.edges()) of the top-level scope at
  /// `entry` that update atomically.  CPU: the edges that two threads of a
  /// split of the first parameter can apply to the same element -- the
  /// executor's conflict rule, nested scopes included.  CUDA: every WCR
  /// output of a tasklet directly in a parallel scope.  Updates of the
  /// scope's private scalars are never atomic.
  std::set<size_t> atomic_wcr(const State& st, int entry) const {
    if (!parallel_schedule(*st.node_as<const ir::MapEntry>(entry))) return {};
    std::set<size_t> out;
    if (flavor_ == Flavor::CPU) {
      out = analysis::conflicting_wcr_writes(sdfg_, st, entry);
    } else if (flavor_ == Flavor::CUDA) {
      for (int id : direct_children(st, entry)) {
        if (st.node(id)->kind != ir::NodeKind::Tasklet) continue;
        for (const auto* e : st.out_edges(id))
          if (e->memlet.wcr != ir::WCR::None)
            out.insert((size_t)(e - st.edges().data()));
      }
    }
    std::set<std::string> priv = private_scalars(st, entry);
    std::erase_if(out, [&](size_t ei) {
      return priv.count(st.edges()[ei].memlet.data) > 0;
    });
    return out;
  }

  /// Scalar transients with an access node inside the parallel scope at
  /// `entry`.  Like the map compiler's registers, each iteration owns
  /// them: they are declared at the top of the loop body.
  std::set<std::string> private_scalars(const State& st, int entry) const {
    std::set<std::string> out;
    for (int id : st.scope_nodes(entry)) {
      const auto* a = st.node_as<const ir::AccessNode>(id);
      if (a && is_scalar_transient(a->data)) out.insert(a->data);
    }
    return out;
  }

  void declare_scalar(const std::string& name) {
    line("double " + name + "_v = 0.0; double* " + name + " = &" + name +
         "_v;");
  }

  /// True when a tasklet of the scope at `entry` writes with WCR.
  static bool has_wcr_write(const State& st, int entry) {
    for (int id : st.scope_nodes(entry)) {
      if (st.node(id)->kind != ir::NodeKind::Tasklet) continue;
      for (const auto* e : st.out_edges(id))
        if (e->memlet.wcr != ir::WCR::None) return true;
    }
    return false;
  }

  void emit_map(const State& st, int entry,
                const std::set<size_t>& atomic_edges, bool top) {
    const auto* me = st.node_as<const ir::MapEntry>(entry);
    bool parallel = top && parallel_schedule(*me);
    if (parallel) {
      if (flavor_ == Flavor::CPU) {
        // The conflict rule models a split of the first parameter, so a
        // scope with WCR writes is not collapsed.
        std::string clause =
            me->omp_collapse && me->params.size() > 1 &&
                    !has_wcr_write(st, entry)
                ? " collapse(" + std::to_string(me->params.size()) + ")"
                : "";
        line("#pragma omp parallel for" + clause);
      } else if (flavor_ == Flavor::CUDA) {
        line("// CUDA kernel: one thread per '" + me->params[0] +
             "' iteration, grid-stride over " +
             sym_c(me->range.range(0).size()));
        line("#pragma dace cuda_kernel");
      }
    }
    if (flavor_ == Flavor::HLS && me->schedule == ir::Schedule::FPGAPipeline)
      line("// FPGA pipelined unit (StreamingComposition)");
    for (size_t d = 0; d < me->params.size(); ++d) {
      const sym::Range& r = me->range.range(d);
      const std::string& p = me->params[d];
      line("for (long long " + p + " = " + sym_c(r.begin) + "; " + p + " < " +
           sym_c(r.end) + "; " + p + " += " + sym_c(r.step) + ") {");
      ++indent_;
      if (flavor_ == Flavor::HLS && d + 1 == me->params.size())
        line("#pragma HLS PIPELINE II=1");
    }
    if (parallel)
      for (const std::string& name : private_scalars(st, entry))
        declare_scalar(name);
    for (int id : direct_children(st, entry)) {
      switch (st.node(id)->kind) {
        case ir::NodeKind::Tasklet:
          emit_tasklet(st, id, atomic_edges);
          break;
        case ir::NodeKind::MapEntry:
          emit_map(st, id, atomic_edges, /*top=*/false);
          break;
        case ir::NodeKind::Access:
        case ir::NodeKind::MapExit:
          break;
        default:
          throw err("codegen: unsupported node inside map scope");
      }
    }
    for (size_t d = 0; d < me->params.size(); ++d) {
      --indent_;
      line("}");
    }
  }

  std::vector<int> direct_children(const State& st, int entry) const {
    std::vector<int> scope = st.scope_nodes(entry);
    std::vector<int> out;
    for (int id : st.topological_order()) {
      if (std::find(scope.begin(), scope.end(), id) == scope.end()) continue;
      if (st.scope_of(id) == entry) out.push_back(id);
    }
    return out;
  }

  bool is_scalar_transient(const std::string& data) const {
    if (data.empty() || !sdfg_.has_array(data)) return false;
    const auto& d = sdfg_.array(data);
    return d.is_scalar() && d.transient;
  }

  void emit_tasklet(const State& st, int id,
                    const std::set<size_t>& atomic_edges) {
    const auto* t = st.node_as<const ir::Tasklet>(id);
    std::map<std::string, std::string> inputs;
    for (const auto* e : st.in_edges(id)) {
      if (e->dst_conn.empty()) continue;
      if (st.node(e->src)->kind == ir::NodeKind::Tasklet) {
        inputs[e->dst_conn] = "__tv" + std::to_string(e->src);
        continue;
      }
      DACE_CHECK(!e->memlet.empty(), "codegen: dataless input edge");
      inputs[e->dst_conn] =
          e->memlet.data + "[" + offset_c(e->memlet) + "]";
    }
    std::string expr = code_c(t->code, inputs);
    std::string val = "__tv" + std::to_string(id);
    line("const double " + val + " = " + expr + ";");
    for (const auto* e : st.out_edges(id)) {
      if (st.node(e->dst)->kind == ir::NodeKind::Tasklet) continue;
      if (e->memlet.empty()) continue;
      std::string lhs = e->memlet.data + "[" + offset_c(e->memlet) + "]";
      bool atomic = atomic_edges.count((size_t)(e - st.edges().data())) > 0;
      switch (e->memlet.wcr) {
        case ir::WCR::None:
          line(lhs + " = " + val + ";");
          break;
        case ir::WCR::Sum:
          if (atomic && flavor_ == Flavor::CPU) line("#pragma omp atomic");
          if (atomic && flavor_ == Flavor::CUDA)
            line("// atomicAdd on device");
          line(lhs + " += " + val + ";");
          break;
        case ir::WCR::Prod:
          if (atomic && flavor_ == Flavor::CPU) line("#pragma omp atomic");
          line(lhs + " *= " + val + ";");
          break;
        case ir::WCR::Min:
          line(lhs + " = std::min(" + lhs + ", " + val + ");");
          break;
        case ir::WCR::Max:
          line(lhs + " = std::max(" + lhs + ", " + val + ");");
          break;
      }
    }
  }

  struct ViewInfo {
    std::vector<Expr> extents;
    std::vector<Expr> strides;
    Expr base = Expr(int64_t{0});
  };

  ViewInfo view_of(const ir::Memlet& m, const std::string& viewdims) const {
    const ir::DataDesc& d = sdfg_.array(m.data);
    std::vector<Expr> strides = d.strides();
    std::set<int> keep;
    size_t pos = 0;
    while (pos < viewdims.size()) {
      size_t comma = viewdims.find(',', pos);
      if (comma == std::string::npos) comma = viewdims.size();
      keep.insert(std::stoi(viewdims.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    ViewInfo v;
    for (size_t dim = 0; dim < m.subset.dims(); ++dim) {
      v.base = v.base + m.subset.range(dim).begin * strides[dim];
      if (viewdims.empty() ? true : keep.count((int)dim)) {
        if (viewdims.empty() && m.subset.range(dim).size().is_one()) continue;
        v.extents.push_back(m.subset.range(dim).size());
        v.strides.push_back(strides[dim] * m.subset.range(dim).step);
      }
    }
    return v;
  }

  std::string attr_or(const ir::LibraryNode& l, const std::string& k,
                      const std::string& fb) const {
    auto it = l.attrs.find(k);
    return it == l.attrs.end() ? fb : it->second;
  }

  void emit_library(const State& st, int id) {
    const auto* l = st.node_as<const ir::LibraryNode>(id);
    auto in = [&](const std::string& c) -> const ir::Edge* {
      for (const auto* e : st.in_edges(id)) {
        if (e->dst_conn == c) return e;
      }
      throw err("codegen: missing connector ", c);
    };
    auto out = [&](const std::string& c) -> const ir::Edge* {
      for (const auto* e : st.out_edges(id)) {
        if (e->src_conn == c) return e;
      }
      throw err("codegen: missing connector ", c);
    };
    int u = tmp_counter_++;
    std::string ACC = "__acc" + std::to_string(u);
    std::string RED = "__red" + std::to_string(u);
    auto at = [&](const std::string& name, const ViewInfo& v,
                  std::vector<std::string> idx) {
      std::string s = name + "[" + sym_c(v.base);
      for (size_t i = 0; i < idx.size(); ++i)
        s += " + (" + idx[i] + ") * " + sym_c(v.strides[i]);
      return s + "]";
    };
    if (l->op == "MatMul") {
      ViewInfo a = view_of(in("_a")->memlet, attr_or(*l, "viewdims_a", ""));
      ViewInfo b = view_of(in("_b")->memlet, attr_or(*l, "viewdims_b", ""));
      ViewInfo c = view_of(out("_c")->memlet, "");
      const std::string& an = in("_a")->memlet.data;
      const std::string& bn = in("_b")->memlet.data;
      const std::string& cn = out("_c")->memlet.data;
      std::string I = "__li" + std::to_string(u), J = "__lj" + std::to_string(u),
                  K = "__lk" + std::to_string(u);
      if (a.extents.size() == 2 && b.extents.size() == 2) {
        line("// MatMul library node (expansion: native)");
        if (flavor_ == Flavor::CPU) line("#pragma omp parallel for");
        line("for (long long " + I + " = 0; " + I + " < " +
             sym_c(a.extents[0]) + "; ++" + I + ") {");
        ++indent_;
        line("for (long long " + J + " = 0; " + J + " < " +
             sym_c(b.extents[1]) + "; ++" + J + ") {");
        ++indent_;
        line(("double " + ACC + " = 0.0;"));
        line("for (long long " + K + " = 0; " + K + " < " +
             sym_c(a.extents[1]) + "; ++" + K + ") " + ACC + " += " +
             at(an, a, {I, K}) + " * " + at(bn, b, {K, J}) + ";");
        line(at(cn, c, {I, J}) + " = " + ACC + ";");
        --indent_;
        line("}");
        --indent_;
        line("}");
      } else if (a.extents.size() == 1 && b.extents.size() == 2) {
        line("for (long long " + J + " = 0; " + J + " < " +
             sym_c(b.extents[1]) + "; ++" + J + ") {");
        ++indent_;
        line(("double " + ACC + " = 0.0;"));
        line("for (long long " + K + " = 0; " + K + " < " +
             sym_c(a.extents[0]) + "; ++" + K + ") " + ACC + " += " +
             at(an, a, {K}) + " * " + at(bn, b, {K, J}) + ";");
        line(at(cn, c, {J}) + " = " + ACC + ";");
        --indent_;
        line("}");
      } else if (a.extents.size() == 2 && b.extents.size() == 1) {
        line("for (long long " + I + " = 0; " + I + " < " +
             sym_c(a.extents[0]) + "; ++" + I + ") {");
        ++indent_;
        line(("double " + ACC + " = 0.0;"));
        line("for (long long " + K + " = 0; " + K + " < " +
             sym_c(a.extents[1]) + "; ++" + K + ") " + ACC + " += " +
             at(an, a, {I, K}) + " * " + at(bn, b, {K}) + ";");
        line(at(cn, c, {I}) + " = " + ACC + ";");
        --indent_;
        line("}");
      } else {
        throw err("codegen: unsupported MatMul ranks");
      }
      return;
    }
    if (l->op == "Reduce") {
      ViewInfo v = view_of(in("_in")->memlet, attr_or(*l, "viewdims_in", ""));
      ViewInfo o = view_of(out("_out")->memlet, "");
      const std::string& inn = in("_in")->memlet.data;
      const std::string& on = out("_out")->memlet.data;
      std::string op = attr_or(*l, "op", "sum");
      auto axis_it = l->attrs.find("axis");
      if (axis_it == l->attrs.end()) {
        // max/min start from the first element, as ops::max_all does, so
        // NaNs and infinities fold the same; folding that element again
        // leaves it unchanged.
        std::string init =
            op == "sum" ? "0.0"
                        : at(inn, v, std::vector<std::string>(
                                         v.extents.size(), "0"));
        line("double " + RED + " = " + init + ";");
        std::vector<std::string> idx;
        for (size_t d2 = 0; d2 < v.extents.size(); ++d2) {
          std::string iv = "__r" + std::to_string(u) + "_" + std::to_string(d2);
          line("for (long long " + iv + " = 0; " + iv + " < " +
               sym_c(v.extents[d2]) + "; ++" + iv + ") {");
          ++indent_;
          idx.push_back(iv);
        }
        std::string elem = at(inn, v, idx);
        if (op == "sum") line(RED + " += " + elem + ";");
        if (op == "max") line(RED + " = std::max(" + RED + ", " + elem + ");");
        if (op == "min") line(RED + " = std::min(" + RED + ", " + elem + ");");
        for (size_t d2 = 0; d2 < v.extents.size(); ++d2) {
          --indent_;
          line("}");
        }
        line(on + "[" + sym_c(o.base) + "] = " + RED + ";");
      } else {
        int axis = std::stoi(axis_it->second);
        if (axis < 0) axis += (int)v.extents.size();
        DACE_CHECK(v.extents.size() == 2 && op == "sum",
                   "codegen: axis reduce supports 2-D sum");
        int keep = 1 - axis;
        std::string I = "__ra" + std::to_string(u), K = "__rb" + std::to_string(u);
        line("for (long long " + I + " = 0; " + I + " < " +
             sym_c(v.extents[(size_t)keep]) + "; ++" + I + ") {");
        ++indent_;
        line(("double " + ACC + " = 0.0;"));
        std::vector<std::string> idx(2);
        idx[(size_t)keep] = I;
        idx[(size_t)axis] = K;
        line("for (long long " + K + " = 0; " + K + " < " +
             sym_c(v.extents[(size_t)axis]) + "; ++" + K + ") " + ACC + " += " +
             at(inn, v, idx) + ";");
        line(at(on, o, {I}) + " = " + ACC + ";");
        --indent_;
        line("}");
      }
      return;
    }
    throw err("codegen: library node '", l->op, "' has no expansion");
  }
};

}  // namespace

std::vector<std::string> symbol_order(const SDFG& sdfg) {
  auto fs = sdfg.free_symbols();
  return {fs.begin(), fs.end()};
}

std::string generate(const SDFG& sdfg, Flavor flavor) {
  return Emitter(sdfg, flavor).run();
}

}  // namespace dace::cg
