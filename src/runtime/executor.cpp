#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
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

Tensor Executor::view(const ir::Memlet& m, const std::string& viewdims) {
  Tensor& t = tensor(m.data);
  if (m.subset.dims() == 0) return t;
  std::set<int> keep;
  size_t pos = 0;
  while (pos < viewdims.size()) {
    size_t comma = viewdims.find(',', pos);
    if (comma == std::string::npos) comma = viewdims.size();
    keep.insert(std::stoi(viewdims.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  std::vector<int64_t> b, e, s;
  std::vector<bool> drop;
  for (size_t d = 0; d < m.subset.dims(); ++d) {
    b.push_back(eval(m.subset.range(d).begin));
    e.push_back(eval(m.subset.range(d).end));
    s.push_back(eval(m.subset.range(d).step));
    drop.push_back(!keep.count((int)d));
  }
  return t.slice(b, e, s, drop);
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
  syms_ = symbols;
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
    const ir::State& st = sdfg_.state(cur);
    // States are instrumented only via their explicit attribute; the
    // DACE_INSTRUMENT default applies at launch granularity.
    if (st.instrument != ir::Instrument::Off) {
      VMStats before = stats_;
      int64_t t0 = obs::now_ns();
      execute_state(cur, st);
      VMStats d = stats_delta(before);
      inst_->record("state", cur, -1, st.label(), st.instrument, t0,
                    obs::now_ns() - t0, 0, 1, &d);
    } else {
      execute_state(cur, st);
    }
    if (opts_.post_state_hook) opts_.post_state_hook(st, syms_);
    DACE_CHECK(++steps < kMaxSteps, "executor: state machine did not halt");
    int next = -1;
    for (size_t ei : sdfg_.out_interstate(cur)) {
      const ir::InterstateEdge& e = sdfg_.interstate_edges()[ei];
      bool taken = true;
      if (e.condition.valid()) {
        taken = e.condition.eval({}, syms_) != 0;
      }
      if (!taken) continue;
      // Evaluate all assignments against the pre-transition symbol values.
      std::vector<std::pair<std::string, int64_t>> vals;
      for (const auto& [k, v] : e.assignments) vals.emplace_back(k, eval(v));
      for (const auto& [k, v] : vals) syms_[k] = v;
      next = e.dst;
      break;
    }
    cur = next;
  }
}

void Executor::notify_launch(const std::string& kind, const VMStats& before) {
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

const std::vector<int>& Executor::schedule(int sid, const ir::State& st) {
  auto it = schedules_.find(sid);
  if (it != schedules_.end()) return it->second;
  // Top-level nodes only; nodes inside map scopes execute via the VM.
  std::set<int> inner;
  for (int id : st.node_ids()) {
    if (st.node(id)->kind == ir::NodeKind::MapEntry &&
        st.scope_of(id) == -1) {
      for (int s : st.scope_nodes(id)) inner.insert(s);
    }
  }
  std::vector<int> order;
  for (int id : st.topological_order())
    if (!inner.count(id)) order.push_back(id);
  return schedules_.emplace(sid, std::move(order)).first->second;
}

void Executor::execute_state(int sid, const ir::State& st) {
  for (int id : schedule(sid, st)) {
    const ir::Node* n = st.node(id);
    switch (n->kind) {
      case ir::NodeKind::Access:
        break;
      case ir::NodeKind::Tasklet: {
        VMStats before = stats_;
        ir::Instrument im =
            inst_->active() ? inst_->effective(*n) : ir::Instrument::Off;
        int64_t t0 = im != ir::Instrument::Off ? obs::now_ns() : 0;
        execute_tasklet(st, id);
        notify_launch("tasklet", before);
        if (im != ir::Instrument::Off) {
          VMStats d = stats_delta(before);
          inst_->record("tasklet", sid, id,
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
        execute_map(st, id, &tier, &iters);
        notify_launch("map", before);
        if (im != ir::Instrument::Off) {
          // Tier-1 runs produce no VMStats; only attach the delta when the
          // VM interpreted the map, so instrs/iter stays meaningful.
          VMStats d = stats_delta(before);
          inst_->record("map", sid, id,
                        static_cast<const ir::MapEntry*>(n)->name, im, t0,
                        obs::now_ns() - t0, tier, iters,
                        tier == 0 ? &d : nullptr);
        }
        break;
      }
      case ir::NodeKind::MapExit:
        break;
      case ir::NodeKind::Library: {
        VMStats before = stats_;
        ir::Instrument im =
            inst_->active() ? inst_->effective(*n) : ir::Instrument::Off;
        int64_t t0 = im != ir::Instrument::Off ? obs::now_ns() : 0;
        execute_library(st, id);
        notify_launch("library", before);
        if (im != ir::Instrument::Off) {
          VMStats d = stats_delta(before);
          inst_->record("library", sid, id, n->label(), im,
                        t0, obs::now_ns() - t0, 0, 1, &d);
        }
        break;
      }
      case ir::NodeKind::NestedSDFG:
        execute_nested(st, id);
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

void Executor::execute_map(const ir::State& st, int node, int* tier_used,
                           int64_t* iters_out) {
  *tier_used = 0;
  *iters_out = 0;
  const auto* me = st.node_as<const ir::MapEntry>(node);
  int sid = sdfg_.state_id(&st);
  auto key = std::make_pair(sid, node);
  auto it = programs_.find(key);
  if (it == programs_.end()) {
    int64_t c0 = obs::enabled() ? obs::now_ns() : 0;
    if (!symbol_ranges_)
      symbol_ranges_ = analysis::absint::SymbolRanges::compute(sdfg_);
    TieredProgram tp;
    tp.prog = compile_map_scope(sdfg_, st, node, &symbol_ranges_->at(sid));
    if (bc_opt_) optimize_program(tp.prog);
    it = programs_.emplace(key, std::move(tp)).first;
    if (obs::enabled()) {
      std::ostringstream a;
      a << "{\"map\":\"" << diag::json_escape(me->name)
        << "\",\"instructions\":" << it->second.prog.code.size() << "}";
      obs::complete("executor", "compile-map", c0, obs::now_ns() - c0,
                    a.str());
    }
  }
  TieredProgram& tp = it->second;
  const Program& prog = tp.prog;

  // Bind array slots and symbol slots.
  std::vector<ArrayRef> arrays(prog.arrays.size());
  for (size_t i = 0; i < prog.arrays.size(); ++i) {
    Tensor& t = tensor(prog.arrays[i]);
    DACE_CHECK(t.contiguous(),
               "executor: map operand '", prog.arrays[i],
               "' must be contiguous");
    arrays[i] = ArrayRef{t.data(), t.dtype()};
  }
  std::vector<int64_t> symvals(prog.symbols.size());
  for (size_t i = 0; i < prog.symbols.size(); ++i) {
    auto sit = syms_.find(prog.symbols[i]);
    DACE_CHECK(sit != syms_.end(), "executor: unbound symbol '",
               prog.symbols[i], "' in map");
    symvals[i] = sit->second;
  }

  ++map_launches_;
  if (opts_.cancel_check && opts_.cancel_check()) {
    throw err("cancelled: map '", me->name, "' not dispatched");
  }
  const sym::Range& r0 = me->range.range(0);
  int64_t begin = eval(r0.begin), end = eval(r0.end), step = eval(r0.step);
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
      std::vector<ir::DType> dtypes(arrays.size());
      for (size_t i = 0; i < arrays.size(); ++i) dtypes[i] = arrays[i].dtype;
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
  // Generated Tier-1 code declares its array pointers __restrict__ when
  // interval analysis proved the scope contiguous; that assertion only
  // holds if the bound buffers really are disjoint (a caller may alias
  // two arguments, or pass overlapping views).  Re-check per launch and
  // fall back to the VM on overlap.
  bool restrict_ok = true;
  if (tp.native && prog.use_restrict) {
    std::vector<std::pair<uintptr_t, uintptr_t>> spans(arrays.size());
    for (size_t i = 0; i < arrays.size(); ++i) {
      uintptr_t b = reinterpret_cast<uintptr_t>(arrays[i].base);
      spans[i] = {b, b + sizeof(double) *
                          (size_t)tensor(prog.arrays[i]).size()};
    }
    for (size_t i = 0; i < spans.size() && restrict_ok; ++i)
      for (size_t j = i + 1; j < spans.size() && restrict_ok; ++j)
        if (spans[i].first < spans[j].second &&
            spans[j].first < spans[i].second)
          restrict_ok = false;
  }

  // Set when this launch runs on Tier 1.
  cg::MapNativeFn fn = restrict_ok ? tp.native : nullptr;
  std::vector<double*> bases(fn ? arrays.size() : 0);
  for (size_t i = 0; i < bases.size(); ++i) bases[i] = arrays[i].base;
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
  int64_t work_ns = ThreadPool::global().parallel_for(
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
            fn(bases.data(), symvals.data(), b, e, &g);
            if (g) {
              throw err("map guard: out-of-range access on array '",
                        prog.arrays[(size_t)(g - 1)], "' in map '",
                        me->name, "'");
            }
          } else {
            VMStats local;
            vm_run(prog, arrays, symvals, b, e, &local);
            std::lock_guard<std::mutex> lk(mu);
            stats_ += local;
          }
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
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

void Executor::execute_library(const ir::State& st, int node) {
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const LibraryHandler* h = LibraryRegistry::global().find(l->op);
  DACE_CHECK(h != nullptr, "executor: no implementation for library node '",
             l->op, "'");
  (*h)(*this, st, node);
}

void Executor::execute_nested(const ir::State& st, int node) {
  const auto* nn = st.node_as<const ir::NestedSDFGNode>(node);
  int sid = sdfg_.state_id(&st);
  auto key = std::make_pair(sid, node);
  auto it = children_.find(key);
  if (it == children_.end()) {
    auto child = std::make_unique<Executor>(*nn->sdfg, opts_);
    child->comm_context = comm_context;
    it = children_.emplace(key, std::move(child)).first;
  }
  Executor& child = *it->second;
  child.comm_context = comm_context;

  Bindings child_args;
  for (const auto* e : st.in_edges(node)) {
    if (e->memlet.empty()) continue;
    child_args.emplace(e->dst_conn, view(e->memlet));
  }
  for (const auto* e : st.out_edges(node)) {
    if (e->memlet.empty()) continue;
    if (!child_args.count(e->src_conn))
      child_args.emplace(e->src_conn, view(e->memlet));
  }
  sym::SymbolMap child_syms = syms_;
  for (const auto& [k, v] : nn->symbol_mapping) child_syms[k] = eval(v);
  child.run(child_args, child_syms);
  stats_ += child.stats();
}

void execute(const ir::SDFG& sdfg, Bindings& args,
             const sym::SymbolMap& symbols, ExecutorOptions opts) {
  Executor ex(sdfg, opts);
  ex.run(args, symbols);
}

}  // namespace dace::rt
