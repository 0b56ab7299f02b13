#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <exception>
#include <mutex>
#include <sstream>

#include "analysis/analysis.hpp"
#include "codegen/kernel_plan.hpp"
#include "common/diag.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/tensor_ops.hpp"
#include "runtime/thread_pool.hpp"

namespace dace::rt {

// ---------------------------------------------------------------------------
// Library registry
// ---------------------------------------------------------------------------

namespace detail {
void register_builtin_kernels(LibraryRegistry&);  // library_kernels.cpp
}

LibraryRegistry& LibraryRegistry::global() {
  static LibraryRegistry reg = [] {
    LibraryRegistry r;
    detail::register_builtin_kernels(r);
    return r;
  }();
  return reg;
}

void LibraryRegistry::register_op(const std::string& op, LibraryHandler h) {
  handlers_[op] = std::move(h);
}

const LibraryHandler* LibraryRegistry::find(const std::string& op) const {
  auto it = handlers_.find(op);
  return it == handlers_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(const ir::SDFG& sdfg, ExecutorOptions opts)
    : sdfg_(sdfg),
      opts_(opts),
      inst_(std::make_unique<Instrumenter>(sdfg)),
      tier_cfg_(TierConfig::from_env()),
      bc_opt_(bytecode_opt_enabled()) {}

Tensor& Executor::tensor(const std::string& container) {
  auto it = env_.find(container);
  DACE_CHECK(it != env_.end(), "executor: container '", container,
             "' is not bound");
  return it->second;
}

int64_t Executor::eval(const sym::Expr& e) const { return e.eval(syms_); }

Tensor Executor::view(const ir::Memlet& m) {
  Tensor& t = tensor(m.data);
  if (m.subset.dims() == 0) return t;
  std::vector<int64_t> b, e, s;
  for (size_t d = 0; d < m.subset.dims(); ++d) {
    b.push_back(eval(m.subset.range(d).begin));
    e.push_back(eval(m.subset.range(d).end));
    s.push_back(eval(m.subset.range(d).step));
  }
  return t.slice(b, e, s);
}

Tensor& Executor::operand(std::string_view conn, bool input) {
  DACE_CHECK(cur_library_ != nullptr, "executor: operand '", conn,
             "' requested outside a library call");
  for (Operand& o : cur_library_->operands) {
    if (o.is_input != input || *o.conn != conn) continue;
    if (o.run != run_id_) {
      o.tensor = tensor(o.memlet->data);
      o.run = run_id_;
    }
    size_t dims = o.memlet->subset.dims();
    if (dims == 0) return o.tensor;
    for (size_t d = 0; d < dims; ++d) {
      o.b[d] = o.bounds[3 * d].eval(cells_);
      o.e[d] = o.bounds[3 * d + 1].eval(cells_);
      o.s[d] = o.bounds[3 * d + 2].eval(cells_);
    }
    o.tensor.slice_into(o.view, o.b, o.e, o.s, o.drop);
    return o.view;
  }
  throw err("library: missing ", input ? "input" : "output", " connector '",
            conn, "'");
}

const Tensor& Executor::input(std::string_view conn) {
  return operand(conn, true);
}

Tensor& Executor::output(std::string_view conn) {
  return operand(conn, false);
}

int Executor::slot(const std::string& name) {
  auto [it, fresh] = slot_of_.emplace(name, (int)cells_.size());
  if (fresh) {
    slot_names_.push_back(&it->first);
    auto sit = syms_.find(name);
    cells_.push_back(sit == syms_.end() ? nullptr : &sit->second);
  }
  return it->second;
}

sym::SlotExpr Executor::slot_expr(const sym::Expr& e) {
  return sym::SlotExpr(e, [this](const std::string& n) { return slot(n); });
}

void Executor::allocate_transients() {
  for (const auto& [name, d] : sdfg_.arrays()) {
    if (!d.transient || d.is_stream) continue;
    if (env_.count(name)) continue;
    std::vector<int64_t> shape;
    shape.reserve(d.shape.size());
    for (const auto& s : d.shape) shape.push_back(eval(s));
    if (d.lifetime == ir::Lifetime::Persistent) {
      auto it = persistent_.find(name);
      if (it != persistent_.end() &&
          it->second.shape() == shape) {
        env_.emplace(name, it->second);
        continue;
      }
      Tensor t(d.dtype, shape);
      persistent_[name] = t;
      env_.emplace(name, t);
    } else {
      env_.emplace(name, Tensor(d.dtype, shape));
    }
  }
}

void Executor::run(Bindings& args, const sym::SymbolMap& symbols) {
  if (!validated_) {
    sdfg_.validate();
    // Under DACE_VERIFY_PASSES=1, refuse to run a program the static
    // analyzer finds errors in.
    if (analysis::verify_env()) {
      analysis::AnalysisReport report = analysis::analyze(sdfg_);
      if (report.has_errors())
        throw err("executor: refusing to run '", sdfg_.name(),
                  "', static analysis found errors:\n", report.to_string());
    }
    free_symbols_ = sdfg_.free_symbols();
    validated_ = true;
  }
  // A new run: every per-run binding lapses, and the symbol cells point
  // into the new syms_.
  ++run_id_;
  syms_ = symbols;
  for (size_t i = 0; i < cells_.size(); ++i) {
    auto it = syms_.find(*slot_names_[i]);
    cells_[i] = it == syms_.end() ? nullptr : &it->second;
  }
  // Check all free symbols are provided.
  for (const auto& s : free_symbols_) {
    DACE_CHECK(syms_.count(s), "executor: missing symbol '", s, "'");
  }
  env_.clear();
  for (const auto& an : sdfg_.arg_names()) {
    auto it = args.find(an);
    DACE_CHECK(it != args.end(), "executor: missing argument '", an, "'");
    env_.emplace(an, it->second);  // shallow view, shared buffer
  }
  allocate_transients();

  int cur = sdfg_.start_state();
  int64_t steps = 0;
  const int64_t kMaxSteps = 100000000;
  while (cur >= 0) {
    if (opts_.cancel_check && opts_.cancel_check()) {
      throw err("cancelled: run aborted at state boundary");
    }
    StatePlan& sp = plan(cur);
    const ir::State& st = *sp.st;
    // States are instrumented only via their explicit attribute; the
    // DACE_INSTRUMENT default applies at launch granularity.
    if (st.instrument != ir::Instrument::Off) {
      VMStats before = stats_;
      int64_t t0 = obs::now_ns();
      execute_state(sp);
      VMStats d = stats_delta(before);
      inst_->record("state", cur, -1, st.label(), st.instrument, t0,
                    obs::now_ns() - t0, 0, 1, &d);
    } else {
      execute_state(sp);
    }
    if (opts_.post_state_hook) opts_.post_state_hook(st, syms_);
    DACE_CHECK(++steps < kMaxSteps, "executor: state machine did not halt");
    int next = -1;
    for (const EdgePlan& ep : sp.out) {
      const ir::InterstateEdge& e = *ep.edge;
      if (e.condition.valid() && e.condition.eval({}, syms_) == 0) continue;
      // Evaluate all assignments against the pre-transition symbol values.
      for (size_t i = 0; i < ep.assigns.size(); ++i)
        edge_vals_[i] = ep.assigns[i].second.eval(cells_);
      for (size_t i = 0; i < ep.assigns.size(); ++i) {
        size_t s = (size_t)ep.assigns[i].first;
        if (!cells_[s]) cells_[s] = &syms_[*slot_names_[s]];
        *cells_[s] = edge_vals_[i];
      }
      next = e.dst;
      break;
    }
    cur = next;
  }
}

void Executor::notify_launch(const char* kind, const VMStats& before) {
  if (!opts_.launch_hook) return;
  opts_.launch_hook(kind, stats_delta(before));
}

VMStats Executor::stats_delta(const VMStats& before) const {
  VMStats d;
  d.flops = stats_.flops - before.flops;
  d.loads = stats_.loads - before.loads;
  d.stores = stats_.stores - before.stores;
  d.wcr_stores = stats_.wcr_stores - before.wcr_stores;
  d.instrs = stats_.instrs - before.instrs;
  return d;
}

Executor::StatePlan& Executor::plan(int sid) {
  if ((size_t)sid < plans_.size() && plans_[(size_t)sid])
    return *plans_[(size_t)sid];
  const ir::State& st = sdfg_.state(sid);
  auto sp = std::make_unique<StatePlan>();
  sp->sid = sid;
  sp->st = &st;
  // Top-level nodes only; nodes inside map scopes execute via the VM.
  std::set<int> inner;
  for (int id : st.node_ids()) {
    if (st.node(id)->kind == ir::NodeKind::MapEntry &&
        st.scope_of(id) == -1) {
      for (int s : st.scope_nodes(id)) inner.insert(s);
    }
  }
  for (int id : st.topological_order()) {
    const ir::Node* n = st.node(id);
    if (inner.count(id) || n->kind == ir::NodeKind::Access ||
        n->kind == ir::NodeKind::MapExit)
      continue;
    NodePlan np;
    np.id = id;
    np.node = n;
    if (n->kind == ir::NodeKind::Library) plan_library(*sp, np);
    sp->nodes.push_back(std::move(np));
  }
  for (size_t ei : sdfg_.out_interstate(sid)) {
    EdgePlan ep;
    ep.edge = &sdfg_.interstate_edges()[ei];
    for (const auto& [k, v] : ep.edge->assignments)
      ep.assigns.emplace_back(slot(k), slot_expr(v));
    edge_vals_.resize(std::max(edge_vals_.size(), ep.assigns.size()));
    sp->out.push_back(std::move(ep));
  }
  if ((size_t)sid >= plans_.size()) plans_.resize((size_t)sid + 1);
  plans_[(size_t)sid] = std::move(sp);
  return *plans_[(size_t)sid];
}

namespace {

/// The dims a `viewdims` attribute drops from a rank-`rank` memlet: all
/// but the comma-separated ones it lists (the empty string lists none).
/// Returns false on malformed text or a dim outside the rank.
bool parse_viewdims(const std::string& text, size_t rank,
                    std::vector<bool>& drop) {
  drop.assign(rank, true);
  if (text.empty()) return true;
  const char* p = text.data();
  const char* end = p + text.size();
  while (true) {
    size_t d = 0;
    auto [q, ec] = std::from_chars(p, end, d);
    if (ec != std::errc() || q == p || d >= rank) return false;
    drop[d] = false;
    if (q == end) return true;
    if (*q != ',') return false;
    p = q + 1;
  }
}

}  // namespace

void Executor::plan_library(const StatePlan& sp, NodePlan& np) {
  const auto* l = static_cast<const ir::LibraryNode*>(np.node);
  np.handler = LibraryRegistry::global().find(l->op);
  for (const ir::Edge& e : sp.st->edges()) {
    bool in = e.dst == np.id;
    if (!in && e.src != np.id) continue;
    Operand o;
    o.conn = in ? &e.dst_conn : &e.src_conn;
    if (o.conn->empty()) continue;
    o.is_input = in;
    o.memlet = &e.memlet;
    size_t dims = e.memlet.subset.dims();
    for (size_t d = 0; d < dims; ++d) {
      const sym::Range& r = e.memlet.subset.range(d);
      o.bounds.push_back(slot_expr(r.begin));
      o.bounds.push_back(slot_expr(r.end));
      o.bounds.push_back(slot_expr(r.step));
    }
    o.b.resize(dims);
    o.e.resize(dims);
    o.s.resize(dims);
    np.operands.push_back(std::move(o));
  }
  // `viewdims<conn>` names the container dims an input's view keeps.
  constexpr std::string_view kViewdims = "viewdims";
  for (const auto& [key, text] : l->attrs) {
    if (key.compare(0, kViewdims.size(), kViewdims) != 0) continue;
    const std::string conn = key.substr(kViewdims.size());
    auto bad = [&](auto&&... why) {
      return err("executor: library node '", l->op, "' (state ", sp.sid,
                 ", node ", np.id, "): attribute ", key, " = \"", text,
                 "\" ", why...);
    };
    auto o = std::find_if(np.operands.begin(), np.operands.end(),
                          [&](const Operand& x) {
                            return x.is_input && *x.conn == conn;
                          });
    if (o == np.operands.end()) throw bad("names no input connector");
    size_t rank = o->memlet->subset.dims();
    if (!parse_viewdims(text, rank, o->drop))
      throw bad("is not a list of dims of the rank-", rank, " memlet on '",
                conn, "'");
  }
}

void Executor::execute_state(StatePlan& sp) {
  const ir::State& st = *sp.st;
  for (NodePlan& np : sp.nodes) {
    const ir::Node* n = np.node;
    switch (n->kind) {
      case ir::NodeKind::Access:
      case ir::NodeKind::MapExit:
        break;
      case ir::NodeKind::Tasklet: {
        VMStats before = stats_;
        ir::Instrument im =
            inst_->active() ? inst_->effective(*n) : ir::Instrument::Off;
        int64_t t0 = im != ir::Instrument::Off ? obs::now_ns() : 0;
        execute_tasklet(st, np.id);
        notify_launch("tasklet", before);
        if (im != ir::Instrument::Off) {
          VMStats d = stats_delta(before);
          inst_->record("tasklet", sp.sid, np.id,
                        static_cast<const ir::Tasklet*>(n)->name, im, t0,
                        obs::now_ns() - t0, 0, 1, &d);
        }
        break;
      }
      case ir::NodeKind::MapEntry: {
        VMStats before = stats_;
        ir::Instrument im =
            inst_->active() ? inst_->effective(*n) : ir::Instrument::Off;
        int64_t t0 = im != ir::Instrument::Off ? obs::now_ns() : 0;
        int tier = 0;
        int64_t iters = 0;
        execute_map(sp, np, &tier, &iters);
        notify_launch("map", before);
        if (im != ir::Instrument::Off) {
          // Tier-1 runs produce no VMStats; only attach the delta when the
          // VM interpreted the map, so instrs/iter stays meaningful.
          VMStats d = stats_delta(before);
          inst_->record("map", sp.sid, np.id,
                        static_cast<const ir::MapEntry*>(n)->name, im, t0,
                        obs::now_ns() - t0, tier, iters,
                        tier == 0 ? &d : nullptr);
        }
        break;
      }
      case ir::NodeKind::Library: {
        VMStats before = stats_;
        ir::Instrument im =
            inst_->active() ? inst_->effective(*n) : ir::Instrument::Off;
        int64_t t0 = im != ir::Instrument::Off ? obs::now_ns() : 0;
        execute_library(sp, np);
        notify_launch("library", before);
        if (im != ir::Instrument::Off) {
          VMStats d = stats_delta(before);
          inst_->record("library", sp.sid, np.id, n->label(), im, t0,
                        obs::now_ns() - t0, 0, 1, &d);
        }
        break;
      }
      case ir::NodeKind::NestedSDFG:
        execute_nested(sp, np);
        break;
    }
  }
}

void Executor::execute_tasklet(const ir::State& st, int node) {
  const auto* t = st.node_as<const ir::Tasklet>(node);
  std::map<std::string, double> inputs;
  for (const auto* e : st.in_edges(node)) {
    if (e->memlet.empty()) continue;
    Tensor v = view(e->memlet);
    inputs[e->dst_conn] = v.get_flat(0);
  }
  double out = t->code.eval(inputs, syms_);
  for (const auto* e : st.out_edges(node)) {
    if (e->memlet.empty()) continue;
    Tensor v = view(e->memlet);
    switch (e->memlet.wcr) {
      case ir::WCR::None: v.set_flat(0, out); break;
      case ir::WCR::Sum: v.set_flat(0, v.get_flat(0) + out); break;
      case ir::WCR::Prod: v.set_flat(0, v.get_flat(0) * out); break;
      case ir::WCR::Min: v.set_flat(0, std::min(v.get_flat(0), out)); break;
      case ir::WCR::Max: v.set_flat(0, std::max(v.get_flat(0), out)); break;
    }
  }
}

int Executor::plan_chunks(const TieredProgram& tp, int tier, int64_t iters) {
  double nspi = tp.ns_per_iter[tier];
  if (nspi <= 0.0) {
    // Pre-measurement heuristic: cost scales with bytecode length;
    // native code retires an "instruction" far faster than the VM.
    nspi = (double)tp.prog.code.size() * (tier == 1 ? 0.4 : 2.5);
  }
  return ThreadPool::global().chunks_for(iters, nspi * (double)iters);
}

void Executor::update_cost(TieredProgram& tp, int tier, int64_t iters,
                           int64_t dur_ns) {
  if (iters <= 0 || dur_ns <= 0) return;
  double nspi = (double)dur_ns / (double)iters;
  double& ema = tp.ns_per_iter[tier];
  ema = ema <= 0.0 ? nspi : 0.5 * ema + 0.5 * nspi;
}

void Executor::compile_map(const StatePlan& sp, NodePlan& np) {
  const auto* me = static_cast<const ir::MapEntry*>(np.node);
  int64_t c0 = obs::enabled() ? obs::now_ns() : 0;
  if (!symbol_ranges_)
    symbol_ranges_ = analysis::absint::SymbolRanges::compute(sdfg_);
  auto tp = std::make_unique<TieredProgram>();
  tp->prog =
      compile_map_scope(sdfg_, *sp.st, np.id, &symbol_ranges_->at(sp.sid));
  if (bc_opt_) optimize_program(tp->prog);
  for (const std::string& s : tp->prog.symbols)
    tp->sym_slots.push_back(slot(s));
  tp->symvals.resize(tp->sym_slots.size());
  const sym::Range& r0 = me->range.range(0);
  tp->begin = slot_expr(r0.begin);
  tp->end = slot_expr(r0.end);
  tp->step = slot_expr(r0.step);
  np.map = std::move(tp);
  if (obs::enabled()) {
    std::ostringstream a;
    a << "{\"map\":\"" << diag::json_escape(me->name)
      << "\",\"instructions\":" << np.map->prog.code.size() << "}";
    obs::complete("executor", "compile-map", c0, obs::now_ns() - c0,
                  a.str());
  }
}

void Executor::bind_map(TieredProgram& tp) {
  const Program& prog = tp.prog;
  size_t n = prog.arrays.size();
  tp.arrays.resize(n);
  tp.bases.resize(n);
  std::vector<std::pair<uintptr_t, uintptr_t>> spans(n);
  for (size_t i = 0; i < n; ++i) {
    Tensor& t = tensor(prog.arrays[i]);
    DACE_CHECK(t.contiguous(),
               "executor: map operand '", prog.arrays[i],
               "' must be contiguous");
    tp.arrays[i] = ArrayRef{t.data(), t.dtype()};
    tp.bases[i] = t.data();
    uintptr_t b = reinterpret_cast<uintptr_t>(t.data());
    spans[i] = {b, b + sizeof(double) * (size_t)t.size()};
  }
  // Generated Tier-1 code declares its array pointers __restrict__ when
  // interval analysis proved the scope contiguous; that assertion only
  // holds if the bound buffers really are disjoint (a caller may alias
  // two arguments, or pass overlapping views).  Check once per run and
  // run the map on the VM on overlap.
  tp.restrict_ok = true;
  if (prog.use_restrict) {
    for (size_t i = 0; i < n && tp.restrict_ok; ++i)
      for (size_t j = i + 1; j < n && tp.restrict_ok; ++j)
        if (spans[i].first < spans[j].second &&
            spans[j].first < spans[i].second)
          tp.restrict_ok = false;
  }
  tp.run = run_id_;
}

void Executor::execute_map(const StatePlan& sp, NodePlan& np, int* tier_used,
                           int64_t* iters_out) {
  *tier_used = 0;
  *iters_out = 0;
  const auto* me = static_cast<const ir::MapEntry*>(np.node);
  if (!np.map) compile_map(sp, np);
  TieredProgram& tp = *np.map;
  const Program& prog = tp.prog;
  if (tp.run != run_id_) bind_map(tp);
  for (size_t i = 0; i < tp.sym_slots.size(); ++i) {
    const int64_t* cell = cells_[(size_t)tp.sym_slots[i]];
    DACE_CHECK(cell != nullptr, "executor: unbound symbol '",
               prog.symbols[i], "' in map");
    tp.symvals[i] = *cell;
  }

  ++map_launches_;
  if (opts_.cancel_check && opts_.cancel_check()) {
    throw err("cancelled: map '", me->name, "' not dispatched");
  }
  int64_t begin = tp.begin.eval(cells_), end = tp.end.eval(cells_),
          step = tp.step.eval(cells_);
  int64_t iters = step > 0 ? (end - begin + step - 1) / step : 0;
  if (iters <= 0) return;
  *iters_out = iters;

  bool parallel = opts_.parallel &&
                  (me->schedule == ir::Schedule::CPUParallel ||
                   me->schedule == ir::Schedule::GPUDevice) &&
                  prog.splittable;

  // Tier-1 promotion.  The launch that crosses the threshold builds (or
  // finds in the cache) its native code on this thread and runs it; a
  // failed build leaves the program on Tier 0.  Disabled whenever a launch
  // hook is installed: the device simulators charge their cost models from
  // per-launch VMStats deltas, and native execution produces none.
  if (tier_cfg_.enabled && !opts_.launch_hook && !tp.promoted) {
    tp.iterations += iters;
    if (tp.iterations >= tier_cfg_.threshold) {
      std::vector<ir::DType> dtypes(tp.arrays.size());
      for (size_t i = 0; i < tp.arrays.size(); ++i)
        dtypes[i] = tp.arrays[i].dtype;
      tp.native = request_native(prog, dtypes, tier_cfg_);
      tp.promoted = true;
      ++native_promotions_;
      METRIC_INC("dacepp_tier_promotions_total");
      if (obs::enabled()) {
        std::ostringstream a;
        a << "{\"map\":\"" << diag::json_escape(me->name)
          << "\",\"iterations\":" << tp.iterations << "}";
        obs::instant("tier", "promote", a.str());
      }
    }
  }

  // Set when this launch runs on Tier 1.
  cg::MapNativeFn fn = tp.restrict_ok ? tp.native : nullptr;
  if (fn) {
    ++native_launches_;
    *tier_used = 1;
  }

  // One dispatch for both tiers.  A chunk runs outer iterations [lo, hi)
  // (a scope that is not splittable runs whole, with lo = hi = 0).  Errors
  // raised inside worker threads must not unwind through the pool: the
  // first one is kept and rethrown on the calling thread after the
  // barrier.
  int tier = fn ? 1 : 0;
  int chunks = parallel ? plan_chunks(tp, tier, iters) : 1;
  std::mutex mu;  // guards first_error and stats_
  std::exception_ptr first_error;
  std::atomic<bool> cancelled{false};
  int64_t work_ns = 0;
  ThreadPool::global().parallel_for(
      iters, chunks, [&](int64_t lo, int64_t hi) {
        // Cooperative cancellation between chunks: skip remaining work,
        // leave buffers intact, report after the barrier.
        if (chunks > 1 && opts_.cancel_check &&
            (cancelled.load(std::memory_order_relaxed) ||
             opts_.cancel_check())) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        int64_t b = 0, e = 0;
        if (prog.splittable) {
          b = begin + lo * step;
          e = hi == iters ? end : begin + hi * step;
        }
        try {
          if (fn) {
            int64_t g = 0;
            fn(tp.bases.data(), tp.symvals.data(), b, e, &g);
            if (g) {
              throw err("map guard: out-of-range access on array '",
                        prog.arrays[(size_t)(g - 1)], "' in map '",
                        me->name, "'");
            }
          } else {
            VMStats local;
            vm_run(prog, tp.arrays, tp.symvals, b, e, &local);
            std::lock_guard<std::mutex> lk(mu);
            stats_ += local;
          }
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!first_error) first_error = std::current_exception();
        }
      },
      &work_ns);
  update_cost(tp, tier, iters, work_ns);
  if (fn && !tp.plan_reported && obs::enabled()) {
    tp.plan_reported = true;
    cg::KernelPlan plan = cg::plan_kernel(prog);
    cg::KernelPlan::Summary sum = plan.summary();
    std::ostringstream a;
    a << "{\"map\":\"" << diag::json_escape(me->name) << "\",\"plan\":\""
      << plan.describe() << "\",\"jam\":" << sum.jam
      << ",\"unroll\":" << sum.unroll << ",\"sinks\":" << sum.sinks
      << ",\"chunks\":" << chunks << ",\"ns_per_iter\":"
      << tp.ns_per_iter[1] << "}";
    obs::instant("tier", "kernel-plan", a.str());
  }
  if (first_error) std::rethrow_exception(first_error);
  if (cancelled.load(std::memory_order_relaxed)) {
    throw err("cancelled: map '", me->name, "' abandoned mid-dispatch");
  }
}

void Executor::execute_library(const StatePlan& sp, NodePlan& np) {
  if (!np.handler) {
    const auto* l = static_cast<const ir::LibraryNode*>(np.node);
    np.handler = LibraryRegistry::global().find(l->op);
    DACE_CHECK(np.handler != nullptr,
               "executor: no implementation for library node '", l->op, "'");
  }
  cur_library_ = &np;
  try {
    (*np.handler)(*this, *sp.st, np.id);
  } catch (...) {
    cur_library_ = nullptr;
    throw;
  }
  cur_library_ = nullptr;
}

void Executor::execute_nested(const StatePlan& sp, NodePlan& np) {
  const ir::State& st = *sp.st;
  const auto* nn = static_cast<const ir::NestedSDFGNode*>(np.node);
  if (!np.child) np.child = std::make_unique<Executor>(*nn->sdfg, opts_);
  Executor& child = *np.child;
  child.comm_context = comm_context;

  Bindings child_args;
  for (const auto* e : st.in_edges(np.id)) {
    if (e->memlet.empty()) continue;
    child_args.emplace(e->dst_conn, view(e->memlet));
  }
  for (const auto* e : st.out_edges(np.id)) {
    if (e->memlet.empty()) continue;
    if (!child_args.count(e->src_conn))
      child_args.emplace(e->src_conn, view(e->memlet));
  }
  sym::SymbolMap child_syms = syms_;
  for (const auto& [k, v] : nn->symbol_mapping) child_syms[k] = eval(v);
  VMStats before = child.stats_;
  child.run(child_args, child_syms);
  stats_ += child.stats_delta(before);
}

void execute(const ir::SDFG& sdfg, Bindings& args,
             const sym::SymbolMap& symbols, ExecutorOptions opts) {
  Executor ex(sdfg, opts);
  ex.run(args, symbols);
}

}  // namespace dace::rt
