#include "runtime/eager_interpreter.hpp"

#include <cmath>

#include "runtime/tensor_ops.hpp"

namespace dace::rt {

namespace {

using fe::ExKind;
using fe::ExprPtr;
using fe::SliceItem;
using fe::StKind;
using fe::StmtNode;

/// Runtime value: a tensor view or an integer (symbol / loop index).
struct Value {
  enum class K { Tensor, Int } k = K::Int;
  Tensor t;
  int64_t i = 0;

  static Value of(Tensor t) {
    Value v;
    v.k = K::Tensor;
    v.t = std::move(t);
    return v;
  }
  static Value of(int64_t i) {
    Value v;
    v.k = K::Int;
    v.i = i;
    return v;
  }
  bool is_tensor() const { return k == K::Tensor; }
  double scalar() const {
    return is_tensor() ? t.value() : static_cast<double>(i);
  }
  Tensor as_tensor() const {
    return is_tensor() ? t : Tensor::scalar(static_cast<double>(i));
  }
};

}  // namespace

class EagerImpl {
 public:
  EagerImpl(EagerInterpreter& owner, const fe::Function& f,
            EagerObserver* obs)
      : owner_(owner), func_(f), obs_(obs) {}

  void run(Bindings& args, const sym::SymbolMap& symbols) {
    syms_ = symbols;
    for (const auto& p : func_.params) {
      if (p.shape.empty() && ir::dtype_is_integer(p.dtype)) {
        auto it = syms_.find(p.name);
        DACE_CHECK(it != syms_.end(), "eager: missing integer argument ",
                   p.name);
        env_[p.name] = Value::of(it->second);
        continue;
      }
      auto it = args.find(p.name);
      DACE_CHECK(it != args.end(), "eager: missing argument ", p.name);
      env_[p.name] = Value::of(it->second);
    }
    exec_block(func_.body);
  }

 private:
  EagerInterpreter& owner_;
  const fe::Function& func_;
  EagerObserver* obs_;
  sym::SymbolMap syms_;
  std::map<std::string, Value> env_;

  [[noreturn]] void fail(int line, const std::string& msg) {
    throw err("eager: ", msg, " (", func_.name, ":", line, ")");
  }

  void note(const std::string& kind, int64_t out, int64_t in, int64_t flops) {
    ++owner_.op_count_;
    if (obs_) obs_->on_op(kind, out, in, flops);
  }

  // -- expressions -----------------------------------------------------------
  int64_t eval_int(const ExprPtr& e) {
    Value v = eval(e);
    if (v.is_tensor()) return static_cast<int64_t>(v.t.value());
    return v.i;
  }

  /// A slice or loop step (1 when absent); only positive steps exist.
  int64_t eval_step(const ExprPtr& e, int line) {
    int64_t s = e ? eval_int(e) : 1;
    if (s <= 0)
      fail(line, "step must be positive, got " + std::to_string(s));
    return s;
  }

  Value eval(const ExprPtr& e) {
    switch (e->kind) {
      case ExKind::Num:
        if (e->num_is_int) return Value::of(e->inum);
        return Value::of(Tensor::scalar(e->num));
      case ExKind::Name: {
        auto it = env_.find(e->name);
        if (it != env_.end()) return it->second;
        auto st = syms_.find(e->name);
        if (st != syms_.end()) return Value::of(st->second);
        fail(e->line, "unknown name '" + e->name + "'");
      }
      case ExKind::Subscript:
        return subscript(e);
      case ExKind::UnOp: {
        Value a = eval(e->args[0]);
        if (e->name == "-") {
          if (!a.is_tensor()) return Value::of(-a.i);
          Tensor r = ops::neg(a.t);
          note("ew", r.size(), a.t.size(), r.size());
          return Value::of(r);
        }
        if (e->name == "not") return Value::of((int64_t)(a.scalar() == 0));
        fail(e->line, "unsupported unary operator");
      }
      case ExKind::BinOp:
        return binop(e);
      case ExKind::Call:
        return call(e);
      case ExKind::Tuple:
        fail(e->line, "tuple in expression position");
    }
    fail(e->line, "unsupported expression");
  }

  Value binop(const ExprPtr& e) {
    const std::string& op = e->name;
    Value a = eval(e->args[0]);
    Value b = eval(e->args[1]);
    // Pure integer arithmetic (loop indices).
    if (!a.is_tensor() && !b.is_tensor()) {
      int64_t x = a.i, y = b.i;
      if (op == "+") return Value::of(x + y);
      if (op == "-") return Value::of(x - y);
      if (op == "*") return Value::of(x * y);
      if (op == "//") return Value::of((int64_t)std::floor((double)x / y));
      if (op == "%") return Value::of(((x % y) + y) % y);
      if (op == "<") return Value::of((int64_t)(x < y));
      if (op == "<=") return Value::of((int64_t)(x <= y));
      if (op == ">") return Value::of((int64_t)(x > y));
      if (op == ">=") return Value::of((int64_t)(x >= y));
      if (op == "==") return Value::of((int64_t)(x == y));
      if (op == "!=") return Value::of((int64_t)(x != y));
      if (op == "and") return Value::of((int64_t)(x && y));
      if (op == "or") return Value::of((int64_t)(x || y));
      if (op == "/") return Value::of(Tensor::scalar((double)x / y));
    }
    if (op == "@") {
      Tensor r = ops::matmul(a.as_tensor(), b.as_tensor());
      int64_t m = a.t.rank() >= 1 ? a.t.shape()[0] : 1;
      int64_t k = a.t.rank() == 2 ? a.t.shape()[1] : 1;
      note("matmul", r.size(), a.t.size() + b.t.size(), 2 * r.size() * k);
      (void)m;
      return Value::of(r);
    }
    Tensor ta = a.as_tensor(), tb = b.as_tensor();
    Tensor r;
    if (op == "+") r = ops::add(ta, tb);
    else if (op == "-") r = ops::sub(ta, tb);
    else if (op == "*") r = ops::mul(ta, tb);
    else if (op == "/") r = ops::div(ta, tb);
    else if (op == "**") r = ops::pow(ta, tb);
    else fail(e->line, "unsupported operator '" + op + "'");
    note("ew", r.size(), ta.size() + tb.size(), r.size());
    return Value::of(r);
  }

  Value call(const ExprPtr& e) {
    const std::string& fn = e->base->name;
    using Unary = Tensor (*)(const Tensor&);
    static const std::map<std::string, Unary> unary = {
        {"np.exp", ops::exp},   {"np.sqrt", ops::sqrt}, {"np.log", ops::log},
        {"np.abs", ops::abs},   {"np.sin", ops::sin},   {"np.cos", ops::cos},
        {"np.tanh", ops::tanh}, {"abs", ops::abs}};
    if (auto it = unary.find(fn); it != unary.end()) {
      Tensor a = eval(e->args[0]).as_tensor();
      Tensor r = it->second(a);
      note("ew", r.size(), a.size(), r.size());
      return Value::of(r);
    }
    if (fn == "np.minimum" || fn == "np.maximum" || fn == "np.power") {
      Tensor a = eval(e->args[0]).as_tensor();
      Tensor b = eval(e->args[1]).as_tensor();
      Tensor r = fn == "np.minimum" ? ops::minimum(a, b)
                 : fn == "np.maximum" ? ops::maximum(a, b)
                                      : ops::pow(a, b);
      note("ew", r.size(), a.size() + b.size(), r.size());
      return Value::of(r);
    }
    if (fn == "np.sum" || fn == "np.max" || fn == "np.min") {
      Tensor a = eval(e->args[0]).as_tensor();
      std::optional<int> axis;
      for (const auto& [k, v] : e->kwargs) {
        if (k == "axis") axis = (int)eval_int(v);
      }
      Tensor r;
      if (axis) {
        int ax = *axis < 0 ? *axis + (int)a.rank() : *axis;
        DACE_CHECK(fn == "np.sum", "eager: axis reduction supports sum only");
        r = ops::sum_axis(a, ax);
      } else if (fn == "np.sum") {
        r = Tensor::scalar(ops::sum_all(a));
      } else if (fn == "np.max") {
        r = Tensor::scalar(ops::max_all(a));
      } else {
        r = Tensor::scalar(ops::min_all(a));
      }
      note("reduce", r.size(), a.size(), a.size());
      return Value::of(r);
    }
    if (fn == "np.dot") {
      Tensor a = eval(e->args[0]).as_tensor();
      Tensor b = eval(e->args[1]).as_tensor();
      Tensor r = ops::matmul(a, b);
      note("matmul", r.size(), a.size() + b.size(), 2 * a.size());
      return Value::of(r);
    }
    if (fn == "np.outer") {
      Tensor a = eval(e->args[0]).as_tensor();
      Tensor b = eval(e->args[1]).as_tensor();
      Tensor r = ops::outer(a, b);
      note("ew", r.size(), a.size() + b.size(), r.size());
      return Value::of(r);
    }
    if (fn == "np.transpose") {
      // Zero-copy view, exactly like NumPy.
      return Value::of(eval(e->args[0]).as_tensor().transpose());
    }
    if (fn == "np.copy") {
      Tensor a = eval(e->args[0]).as_tensor();
      Tensor r = a.copy();
      note("copy", r.size(), a.size(), 0);
      return Value::of(r);
    }
    if (fn == "np.float64" || fn == "np.float32" || fn == "float") {
      return eval(e->args[0]);
    }
    if (fn == "np.empty" || fn == "np.zeros" || fn == "np.ones" ||
        fn == "np.full" || fn == "np.empty_like" || fn == "np.zeros_like" ||
        fn == "np.ones_like") {
      return allocate(e, fn);
    }
    if (fn == "range" || fn.rfind("dace.", 0) == 0) {
      fail(e->line, "'" + fn + "' is only valid as a loop iterator");
    }
    fail(e->line, "unsupported function '" + fn + "'");
  }

  Value allocate(const ExprPtr& e, const std::string& which) {
    std::vector<int64_t> shape;
    ir::DType dtype = ir::DType::f64;
    if (which.find("_like") != std::string::npos) {
      Tensor src = eval(e->args[0]).as_tensor();
      shape = src.shape();
      dtype = src.dtype();
    } else {
      const ExprPtr& sh = e->args[0];
      if (sh->kind == ExKind::Tuple) {
        for (const auto& d : sh->args) shape.push_back(eval_int(d));
      } else {
        shape.push_back(eval_int(sh));
      }
    }
    for (const auto& [k, v] : e->kwargs) {
      if (k != "dtype") continue;
      const std::string& n = v->name;
      if (n == "np.float32") dtype = ir::DType::f32;
      else if (n == "np.int64" || n == "MPI_Request") dtype = ir::DType::i64;
      else if (n == "np.int32") dtype = ir::DType::i32;
      else if (n.size() > 6 && n.substr(n.size() - 6) == ".dtype") {
        auto it = env_.find(n.substr(0, n.size() - 6));
        if (it != env_.end() && it->second.is_tensor())
          dtype = it->second.t.dtype();
      }
    }
    Tensor t(dtype, shape);
    if (which == "np.ones" || which == "np.ones_like") t.fill(1.0);
    if (which == "np.full") t.fill(eval(e->args[1]).scalar());
    note("alloc", t.size(), 0, 0);
    return Value::of(t);
  }

  Tensor subscript_view(const ExprPtr& e) {
    Value base = eval(e->base);
    if (!base.is_tensor()) fail(e->line, "subscript of non-array");
    Tensor t = base.t;
    std::vector<int64_t> b, en, st;
    std::vector<bool> drop;
    for (size_t d = 0; d < t.rank(); ++d) {
      int64_t size = t.shape()[d];
      if (d < e->slices.size()) {
        const SliceItem& s = e->slices[d];
        if (s.is_index) {
          int64_t i = eval_int(s.index);
          if (i < 0) i += size;
          b.push_back(i);
          en.push_back(i + 1);
          st.push_back(1);
          drop.push_back(true);
          continue;
        }
        int64_t bb = s.begin ? eval_int(s.begin) : 0;
        int64_t ee = s.end ? eval_int(s.end) : size;
        if (bb < 0) bb += size;
        if (ee < 0) ee += size;
        b.push_back(bb);
        en.push_back(ee);
        st.push_back(eval_step(s.step, e->line));
        drop.push_back(false);
      } else {
        b.push_back(0);
        en.push_back(size);
        st.push_back(1);
        drop.push_back(false);
      }
    }
    return t.slice(b, en, st, drop);
  }

  Value subscript(const ExprPtr& e) {
    Tensor v = subscript_view(e);
    return Value::of(v);
  }

  // -- statements --------------------------------------------------------------
  void exec_block(const std::vector<fe::StmtPtr>& body) {
    for (const auto& st : body) exec(*st);
  }

  void exec(const StmtNode& st) {
    switch (st.kind) {
      case StKind::Pass:
        return;
      case StKind::Assign: {
        if (st.target->kind == ExKind::Name) {
          env_[st.target->name] = eval(st.value);
          return;
        }
        if (st.target->kind == ExKind::Subscript) {
          Tensor dst = subscript_view(st.target);
          Value v = eval(st.value);
          if (v.is_tensor() && v.t.rank() == dst.rank() &&
              v.t.shape() == dst.shape()) {
            dst.assign_from(v.t);
          } else if (!v.is_tensor() || v.t.size() == 1) {
            dst.fill(v.scalar());
          } else {
            // Broadcast assignment.
            Tensor bcast = ops::add(v.t, Tensor(dst.dtype(), dst.shape()));
            dst.assign_from(bcast);
          }
          note("copy", dst.size(), dst.size(), 0);
          return;
        }
        fail(st.line, "unsupported assignment target");
      }
      case StKind::AugAssign: {
        Tensor dst = st.target->kind == ExKind::Subscript
                         ? subscript_view(st.target)
                         : env_.at(st.target->name).t;
        Tensor v = eval(st.value).as_tensor();
        Tensor r;
        if (st.aug_op == "+") r = ops::add(dst, v);
        else if (st.aug_op == "-") r = ops::sub(dst, v);
        else if (st.aug_op == "*") r = ops::mul(dst, v);
        else r = ops::div(dst, v);
        // NumPy result may broadcast; reduce back not supported.
        Tensor rr = r;
        if (r.shape() != dst.shape()) fail(st.line, "augassign broadcast");
        dst.assign_from(rr);
        note("ew", dst.size(), dst.size() + v.size(), dst.size());
        return;
      }
      case StKind::For:
        exec_for(st);
        return;
      case StKind::If:
        if (eval(st.cond).scalar() != 0) {
          exec_block(st.body);
        } else {
          exec_block(st.orelse);
        }
        return;
      case StKind::While:
        while (eval(st.cond).scalar() != 0) exec_block(st.body);
        return;
      case StKind::ExprStmt:
        fail(st.line, "bare expression statements are not supported");
    }
  }

  void exec_for(const StmtNode& st) {
    // dace.map iterates like nested Python loops here (the baseline pays
    // full interpreter cost for explicit loops, as CPython would).
    if (st.iter->kind == ExKind::Subscript && st.iter->base &&
        st.iter->base->name == "dace.map") {
      std::vector<int64_t> begins, ends, steps;
      for (const auto& s : st.iter->slices) {
        begins.push_back(s.begin ? eval_int(s.begin) : 0);
        ends.push_back(eval_int(s.end));
        steps.push_back(eval_step(s.step, st.line));
      }
      // An empty range in any dimension runs no iteration at all.
      for (size_t d = 0; d < begins.size(); ++d)
        if (begins[d] >= ends[d]) return;
      std::vector<int64_t> idx = begins;
      size_t rank = begins.size();
      if (rank == 0) return;
      for (;;) {
        for (size_t d = 0; d < rank; ++d)
          env_[st.loop_vars[d]] = Value::of(idx[d]);
        exec_block(st.body);
        size_t d = rank;
        while (d-- > 0) {
          idx[d] += steps[d];
          if (idx[d] < ends[d]) break;
          if (d == 0) return;
          idx[d] = begins[d];
        }
      }
    }
    DACE_CHECK(st.iter->kind == ExKind::Call && st.iter->base &&
                   st.iter->base->name == "range",
               "eager: for iterator must be range or dace.map");
    int64_t begin = 0, end = 0, step = 1;
    const auto& a = st.iter->args;
    if (a.size() == 1) {
      end = eval_int(a[0]);
    } else {
      begin = eval_int(a[0]);
      end = eval_int(a[1]);
      if (a.size() == 3) step = eval_step(a[2], st.line);
    }
    for (int64_t i = begin; i < end; i += step) {
      env_[st.loop_vars[0]] = Value::of(i);
      exec_block(st.body);
    }
  }
};

EagerInterpreter::EagerInterpreter(const fe::Function& f,
                                   EagerObserver* observer)
    : func_(f), observer_(observer) {}

void EagerInterpreter::run(Bindings& args, const sym::SymbolMap& symbols) {
  op_count_ = 0;
  EagerImpl impl(*this, func_, observer_);
  impl.run(args, symbols);
}

}  // namespace dace::rt
