#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/analysis.hpp"
#include "codegen/artifact_cache.hpp"
#include "codegen/jit.hpp"
#include "common/diag.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/eager_interpreter.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "testing/fuzzgen.hpp"
#include "transforms/auto_optimize.hpp"

namespace perfbench {
namespace {

using namespace dace;

/// Runs `f` and returns its wall time in ms.  With tracing on, the call
/// is also recorded as an obs:: span in the "perfbench" category.
template <typename F>
double timed(const char* name, F&& f) {
  int64_t t0 = obs::now_ns();
  f();
  int64_t dt = obs::now_ns() - t0;
  if (obs::enabled()) obs::complete("perfbench", name, t0, dt);
  return (double)dt / 1e6;
}

/// Profile-DB activity from the metrics registry.
struct DbCounters {
  double flushes = 0, merges = 0;
};

DbCounters db_counters() {
  std::string t = metrics::expose_text();
  return {registry_value(t, "dacepp_profdb_flushes_total"),
          registry_value(t, "dacepp_profdb_merges_total")};
}

/// Per-program layer measurements of the traced operations.
struct Layers {
  std::vector<double> parse, lower, aopt, pass_body, analyze, roundtrip, init,
      first_run, teardown, applied, run, rolled_back, flushes, merges;

  void add_passes(const xf::PassReport& r, double aopt_ms) {
    double body = 0, n_applied = 0;
    for (const auto& o : r.outcomes) {
      body += o.ms;
      n_applied += o.applied ? 1 : 0;
    }
    aopt.push_back(aopt_ms);
    pass_body.push_back(body);
    applied.push_back(n_applied);
    run.push_back((double)r.outcomes.size());
    rolled_back.push_back((double)r.rolled_back);
  }

  void add_db(const DbCounters& before, const DbCounters& after) {
    flushes.push_back(after.flushes - before.flushes);
    merges.push_back(after.merges - before.merges);
  }

  /// The blocking steps of one compile, in order (ms).
  double chain_ms() const {
    return mean(parse) + mean(lower) + mean(aopt) + mean(init) +
           mean(first_run) + mean(teardown);
  }

  void emit(Outcome& out) const {
    out.set("frontend.parse_ms", mean(parse), "ms");
    out.set("frontend.lower_ms", mean(lower), "ms");
    out.set("transforms.auto_optimize_ms", mean(aopt), "ms");
    out.set("transforms.pass_body_ms", mean(pass_body), "ms");
    out.set("transforms.gate_ms", mean(aopt) - mean(pass_body), "ms");
    out.set("analysis.analyze_ms", mean(analyze), "ms");
    out.set("ir.roundtrip_ms", mean(roundtrip), "ms");
    out.set("transforms.passes_applied", mean(applied), "count");
    out.set("transforms.passes_run", mean(run), "count");
    out.set("transforms.rolled_back", mean(rolled_back), "count");
    out.set("runtime.executor_init_ms", mean(init), "ms");
    out.set("runtime.first_run_ms", mean(first_run), "ms");
    out.set("profdb.teardown_ms", mean(teardown), "ms");
    out.set("profdb.flushes", mean(flushes), "count");
    out.set("profdb.merges", mean(merges), "count");
  }
};

/// The work the commit gate repeats, timed on a freshly lowered SDFG:
/// one baseline analysis and one serializer round-trip.
void probe_ir(const fe::Function& f, Layers& L, Outcome& out) {
  std::unique_ptr<ir::SDFG> g = fe::lower_to_sdfg(f);
  L.analyze.push_back(
      timed("analysis.analyze", [&] { (void)analysis::analyze(*g); }));
  bool same = false;
  L.roundtrip.push_back(timed("ir.roundtrip", [&] {
    same = ir::load_sdfg(g->save())->dump() == g->dump();
  }));
  out.check(same, f.name + ": serializer round-trip changed the graph");
}

/// Timing summary of one half (untraced or traced) of a run: operation
/// latency relative to an interleaved reference operation, and the
/// latencies themselves.
struct Timings {
  double ratio_p50 = 0, ratio_p90 = 0, op_p50 = 0, op_p90 = 0, ref_p50 = 0;
};

/// Operations paired with runs of one fixed reference operation.
Timings pooled(const std::vector<double>& op, const std::vector<double>& ref) {
  double r = median(ref);
  return {median(op) / r, quantile(op, 0.9) / r, median(op), quantile(op, 0.9),
          r};
}

void report_timings(Outcome& out, const Timings& t, const Timings* traced) {
  std::printf("operation p50 %.4f ms, p90 %.4f ms; reference p50 %.4f ms\n",
              t.op_p50, t.op_p90, t.ref_p50);
  out.set("ref_ratio_p50", t.ratio_p50, "ratio");
  out.set("ref_ratio_p90", t.ratio_p90, "ratio");
  out.set("op_ms_p50", t.op_p50, "ms");
  out.set("op_ms_p90", t.op_p90, "ms");
  out.set("ref_ms_p50", t.ref_p50, "ms");
  if (!traced) return;
  out.set("trace_overhead.ref_ratio_p50", traced->ratio_p50 - t.ratio_p50,
          "ratio");
  out.set("trace_overhead.ref_ratio_p90", traced->ratio_p90 - t.ratio_p90,
          "ratio");
  out.set("trace_overhead.op_ms_p50", traced->op_p50 - t.op_p50, "ms");
  out.set("trace_overhead.op_ms_p90", traced->op_p90 - t.op_p90, "ms");
}

// ---------------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------------

struct NodeTimes {
  double map_ns = 0, library_ns = 0, tasklet_ns = 0;
  int64_t maps = 0, native = 0;
};

NodeTimes node_times(const rt::Executor& ex) {
  NodeTimes t;
  for (const auto& [key, p] : ex.instrumentation().profiles()) {
    if (p.kind == "map") t.map_ns += (double)p.total_ns;
    if (p.kind == "library") t.library_ns += (double)p.total_ns;
    if (p.kind == "tasklet") t.tasklet_ns += (double)p.total_ns;
  }
  t.maps = ex.map_launches();
  t.native = ex.native_launches();
  return t;
}

struct KernelCase {
  const kernels::Kernel* k = nullptr;
  sym::SymbolMap sizes;
  rt::Bindings inputs;    // seeded; only ever copied
  rt::Bindings expected;  // k.reference applied to a copy of inputs
  std::unique_ptr<ir::SDFG> sdfg;
  std::unique_ptr<rt::Executor> ex;
  std::unique_ptr<ir::SDFG> traced_sdfg;
  std::unique_ptr<rt::Executor> traced_ex;  // built under DACE_INSTRUMENT=timer
  NodeTimes traced_start;
  std::vector<double> run_ms, ref_ms, traced_ms;
};

/// The kernel's own initializer fixes shapes and scalars; every array it
/// fills with a pattern is refilled with a pattern drawn from the seed.
/// Zero-initialized outputs stay zero.
rt::Bindings seeded_inputs(const kernels::Kernel& k,
                           const sym::SymbolMap& sizes, uint64_t seed) {
  rt::Bindings b = k.init(sizes);
  uint64_t salt = 0;
  for (auto& [name, t] : b) {
    ++salt;
    if (t.is_scalar()) continue;
    bool filled = false;
    for (int64_t i = 0; i < t.size() && !filled; ++i)
      filled = t.get_flat(i) != 0.0;
    if (filled)
      kernels::fill_pattern(t, (unsigned)(mix(seed, salt) % 1000003));
  }
  return b;
}

struct Built {
  std::unique_ptr<ir::SDFG> sdfg;
  std::unique_ptr<rt::Executor> ex;
  xf::PassReport report;
  double frontend_ms = 0, aopt_ms = 0, init_ms = 0, first_run_ms = 0;
  double total_ms() const {
    return frontend_ms + aopt_ms + init_ms + first_run_ms;
  }
};

/// Kernel set-up: compile_to_sdfg, auto_optimize(CPU), an Executor, and
/// one warm run (which contains every Tier-1 build) checked against the
/// reference.  Input copies are made outside the timed calls.
Built build_kernel(const KernelCase& c, Outcome& out, bool corrupt) {
  Built b;
  b.frontend_ms = timed("frontend.compile_to_sdfg",
                        [&] { b.sdfg = fe::compile_to_sdfg(c.k->source); });
  xf::AutoOptOptions ao;
  ao.report = &b.report;
  b.aopt_ms = timed("transforms.auto_optimize", [&] {
    xf::auto_optimize(*b.sdfg, ir::DeviceType::CPU, ao);
  });
  b.init_ms = timed("runtime.executor_init",
                    [&] { b.ex = std::make_unique<rt::Executor>(*b.sdfg); });
  rt::Bindings args = deep_copy(c.inputs);
  b.first_run_ms =
      timed("runtime.first_run", [&] { b.ex->run(args, c.sizes); });
  if (corrupt) corrupt_output(args, c.k->outputs[0]);
  std::string why = output_mismatch(args, c.expected, c.k->outputs);
  out.check(why.empty(), c.k->name + " warm run: " + why);
  return b;
}

/// One round: each kernel once on the executor, once on the C++
/// reference and (traced runs) once on the instrumented executor, in a
/// seeded order, each on its own copy of the same inputs.
void kernel_round(std::vector<KernelCase*>& live, Rng& rng, bool record,
                  bool traced, Outcome& out) {
  for (KernelCase* c : live) {
    rt::Bindings a = deep_copy(c->inputs),
                 r = deep_copy(c->inputs), t;
    if (traced) t = deep_copy(c->inputs);
    int slots[3] = {0, 1, 2};
    int n = traced ? 3 : 2;
    for (int i = n - 1; i > 0; --i)
      std::swap(slots[i], slots[rng.below(i + 1)]);
    double run = 0, ref = 0, tr = 0;
    try {
      for (int i = 0; i < n; ++i) {
        switch (slots[i]) {
          case 0:
            run = timed("runtime.run", [&] { c->ex->run(a, c->sizes); });
            break;
          case 1:
            ref = timed("reference",
                        [&] { c->k->reference(r, c->sizes); });
            break;
          default:
            obs::set_enabled(true);
            tr = timed("runtime.run",
                       [&] { c->traced_ex->run(t, c->sizes); });
            obs::set_enabled(false);
            break;
        }
      }
    } catch (const std::exception& e) {
      obs::set_enabled(false);
      out.check(false, c->k->name + " run: " + e.what());
      continue;
    }
    std::string why = output_mismatch(a, r, c->k->outputs);
    out.check(why.empty(), c->k->name + " run: " + why);
    if (traced) {
      why = output_mismatch(t, r, c->k->outputs);
      out.check(why.empty(), c->k->name + " traced run: " + why);
    }
    if (!record) continue;
    c->run_ms.push_back(run);
    c->ref_ms.push_back(ref);
    if (traced) c->traced_ms.push_back(tr);
  }
}

}  // namespace

void run_kernels(const Options& o, Outcome& out) {
  // Tier-1 at first launch, built synchronously (fig7's jit_t1 column).
  setenv("DACEPP_JIT_THRESHOLD", "1", 1);
  setenv("DACEPP_JIT_SYNC", "1", 1);
  // A serial pool, like the serial C++ references: on a shared 4-vCPU
  // host the speedup of the 4-wide pool swung with co-tenant load (a
  // ref ratio of 1.6 in one process, 2.6 in the next), while both serial
  // sides slow down together and their ratio holds.
  setenv("DACEPP_NUM_THREADS", "1", 1);
  const char* preset = o.smoke ? "test" : "paper";
  std::vector<KernelCase> cases;
  for (const auto& k : kernels::suite()) {
    KernelCase c;
    c.k = &k;
    c.sizes = k.presets.at(preset);
    c.inputs = seeded_inputs(k, c.sizes, o.seed);
    c.expected = deep_copy(c.inputs);
    k.reference(c.expected, c.sizes);
    cases.push_back(std::move(c));
  }

  // Set-up: every Tier-1 build lands in the run's empty artifact cache.
  obs::set_enabled(o.trace);
  Layers L;
  uint64_t jit0 = cg::jit_compile_count();
  DbCounters db0 = db_counters();
  double setup_ms = 0, compile_ms = 0, first_run_ms = 0;
  bool corrupt = o.corrupt;
  for (auto& c : cases) {
    try {
      Built b = build_kernel(c, out, std::exchange(corrupt, false));
      setup_ms += b.total_ms();
      compile_ms += b.frontend_ms + b.aopt_ms;
      first_run_ms += b.first_run_ms;
      L.add_passes(b.report, b.aopt_ms);
      L.init.push_back(b.init_ms);
      L.first_run.push_back(b.first_run_ms);
      c.sdfg = std::move(b.sdfg);
      c.ex = std::move(b.ex);
    } catch (const std::exception& e) {
      out.check(false, c.k->name + " set-up: " + e.what());
    }
  }
  DbCounters db1 = db_counters();
  out.set("setup_s", setup_ms / 1e3, "s");

  if (o.trace) {
    out.set("transforms.kernels_compile_s", compile_ms / 1e3, "s");
    out.set("codegen.first_run_s", first_run_ms / 1e3, "s");
    out.set("codegen.jit_builds", (double)(cg::jit_compile_count() - jit0),
            "count");
    out.set("codegen.object_kb",
            (double)tree_bytes(cg::cache::ArtifactCache::instance().dir()) /
                1024.0,
            "KB");
    for (auto& c : cases) {
      fe::Module m;
      L.parse.push_back(timed("frontend.parse",
                              [&] { m = fe::parse(c.k->source); }));
      L.lower.push_back(timed("frontend.lower", [&] {
        (void)fe::lower_to_sdfg(m.functions.back());
      }));
      probe_ir(m.functions.back(), L, out);
    }
    // Tracing overhead on set-up: the same set-up repeated untraced and
    // traced.  Tier-1 handles are cached in-process, so neither repeat
    // rebuilds; the traced one keeps instrumented executors for timing.
    obs::set_enabled(false);
    double untraced_ms = 0, traced_ms = 0;
    for (auto& c : cases) {
      if (!c.ex) continue;
      untraced_ms += build_kernel(c, out, false).total_ms();
    }
    obs::set_enabled(true);
    setenv("DACE_INSTRUMENT", "timer", 1);  // read by each new Executor
    for (auto& c : cases) {
      if (!c.ex) continue;
      Built b = build_kernel(c, out, false);
      traced_ms += b.total_ms();
      c.traced_sdfg = std::move(b.sdfg);
      c.traced_ex = std::move(b.ex);
    }
    unsetenv("DACE_INSTRUMENT");
    obs::set_enabled(false);
    out.set("trace_overhead.setup_s", (traced_ms - untraced_ms) / 1e3, "s");
  }

  std::vector<KernelCase*> live;
  for (auto& c : cases)
    if (c.ex && (!o.trace || c.traced_ex)) live.push_back(&c);
  Rng rng(mix(o.seed, 0x6b65726e656c73ull));
  // Discarded warm-up round: caches, pool threads and clocks settle.
  kernel_round(live, rng, false, o.trace, out);
  for (KernelCase* c : live)
    if (c->traced_ex) c->traced_start = node_times(*c->traced_ex);
  double end = now_ms() + o.seconds * 1e3;
  do {
    for (size_t i = live.size(); i > 1; --i)
      std::swap(live[i - 1], live[rng.below(i)]);
    kernel_round(live, rng, true, o.trace, out);
  } while (now_ms() < end);

  // tail: every run over its kernel's median, pooled over kernels.
  std::vector<double> med, ref, ratio, tail, tmed, tratio, ttail;
  int64_t maps = 0, native = 0;
  for (auto& c : cases) {
    if (c.run_ms.empty()) continue;
    std::printf("kernel %-11s runs %3zu  median %9.3f ms  p90 %9.3f ms  "
                "reference %9.3f ms  ratio %7.3f\n",
                c.k->name.c_str(), c.run_ms.size(), median(c.run_ms),
                quantile(c.run_ms, 0.9), median(c.ref_ms),
                median(c.run_ms) / median(c.ref_ms));
    med.push_back(median(c.run_ms));
    ref.push_back(median(c.ref_ms));
    ratio.push_back(med.back() / ref.back());
    for (double r : c.run_ms) tail.push_back(r / med.back());
    if (!o.trace || c.traced_ms.empty()) continue;
    tmed.push_back(median(c.traced_ms));
    tratio.push_back(tmed.back() / ref.back());
    for (double r : c.traced_ms) ttail.push_back(r / tmed.back());
    // Decomposition of the instrumented runs: maps and library nodes are
    // timed inside each run, so map + library <= run by construction.
    NodeTimes now = node_times(*c.traced_ex);
    double n = (double)c.traced_ms.size();
    double run = mean(c.traced_ms);
    double map = (now.map_ns - c.traced_start.map_ns) / 1e6 / n;
    double lib = (now.library_ns - c.traced_start.library_ns) / 1e6 / n;
    double tasklet = (now.tasklet_ns - c.traced_start.tasklet_ns) / 1e6 / n;
    out.set("runtime.run_ms." + c.k->name, run, "ms");
    out.set("runtime.map_ms." + c.k->name, map, "ms");
    out.set("runtime.library_ms." + c.k->name, lib, "ms");
    out.set("runtime.control_ms." + c.k->name, run - map - lib - tasklet,
            "ms");
    maps += now.maps - c.traced_start.maps;
    native += now.native - c.traced_start.native;
  }
  // Kernels differ in run time by 1000x: each kernel's median enters a
  // geometric mean, and the p90 scales it by the p90 of the pooled tail
  // (a kernel alone has too few runs for a p90).
  double t90 = quantile(tail, 0.9), tt90 = quantile(ttail, 0.9);
  Timings untraced{geomean(ratio), geomean(ratio) * t90, geomean(med),
                   geomean(med) * t90, geomean(ref)};
  Timings traced{geomean(tratio), geomean(tratio) * tt90, geomean(tmed),
                 geomean(tmed) * tt90, geomean(ref)};
  report_timings(out, untraced, o.trace ? &traced : nullptr);

  // Teardown flushes each executor's map profiles into the profile DB.
  DbCounters db2 = db_counters();
  for (auto& c : cases) {
    if (!c.ex) continue;
    L.teardown.push_back(timed("profdb.teardown", [&] { c.ex.reset(); }));
  }
  DbCounters db3 = db_counters();
  if (!o.trace) return;
  L.emit(out);
  double n_prog = (double)std::max<size_t>(1, L.teardown.size());
  out.set("profdb.flushes",
          (db1.flushes - db0.flushes + db3.flushes - db2.flushes) / n_prog,
          "count");
  out.set("profdb.merges",
          (db1.merges - db0.merges + db3.merges - db2.merges) / n_prog,
          "count");
  out.set("runtime.native_share", maps ? (double)native / (double)maps : 0.0,
          "fraction");
}

// ---------------------------------------------------------------------------
// program stream shared by compile and serve
// ---------------------------------------------------------------------------

namespace {

struct ProgramCase {
  std::string label;
  std::string source;
  sym::SymbolMap syms;
  rt::Bindings inputs;
  rt::Bindings expected;  // eager interpreter on a copy of inputs
  std::vector<std::string> outputs;
};

/// Fuzz programs are drawn from seeds [0, kFuzzPool) of
/// fuzz::generate_program, each at most once per process.
constexpr uint32_t kFuzzPool = 20000;

/// Seeds in that range whose programs the auto-optimized VM computes
/// differently from the eager interpreter at the commit that defined this
/// benchmark, on the fuzzer's inputs (fuzz::run_differential over the
/// whole range) or on the arguments sdfg-serve synthesizes (7669, 16409).
/// They are compiler bugs for the differential fuzzer, not workload: no
/// operation of a workload may fail.
const std::set<uint32_t> kKnownMismatches = {
    698,   1685,  1710,  3029,  4274,  4721,  5072,  6075,
    7050,  7483,  7669,  9019,  9667,  10897, 11292, 11853,
    12290, 13232, 14377, 16294, 16409, 18741, 19025, 19788};

/// Fills in the eager oracle's outputs; false if the eager interpreter
/// rejects the program.
bool add_oracle(ProgramCase& p) {
  for (const auto& [name, t] : p.inputs) p.outputs.push_back(name);
  try {
    fe::Module m = fe::parse(p.source);
    rt::EagerInterpreter eager(m.functions.back());
    p.expected = deep_copy(p.inputs);
    eager.run(p.expected, p.syms);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// A suite kernel's source at the test preset, with seeded inputs.
ProgramCase suite_program(const kernels::Kernel& k, uint64_t seed) {
  ProgramCase p;
  p.label = "suite:" + k.name;
  p.source = k.source;
  p.syms = k.presets.at("test");
  p.inputs = seeded_inputs(k, p.syms, seed);
  return p;
}

/// The program every set-up sample of compile and serve compiles.  It is
/// the same in every run, so only the library and the host vary: a batch
/// of fuzz programs varies with the programs drawn (the spread of its
/// compile time over five seeds was 0.43).
constexpr const char* kSetupKernel = "gemm";

/// When compile and serve take their set-up samples: spread evenly over
/// the timed phase, one at its start and one after each twentieth of it,
/// between operations and outside their timers.  On the host where the
/// benchmark was defined, the same compile took 6 ms in some seconds and
/// 9-10 ms in others.  Twenty samples taken back to back fell in one such
/// second, and their median moved by 30% between two ten-seed sets.
class SetupSchedule {
 public:
  explicit SetupSchedule(const Options& o)
      : next_(now_ms()), step_(o.seconds * 1e3 / kSamples) {}

  /// True if a sample is due now; it counts as taken.
  bool due() {
    if (taken_ == kSamples || now_ms() < next_) return false;
    next_ += step_;
    ++taken_;
    return true;
  }
  /// Samples the timed phase ended without.
  int missing() const { return kSamples - taken_; }

 private:
  static constexpr int kSamples = 20;
  double next_, step_;
  int taken_ = 0;
};

/// Seeded stream of programs no earlier draw repeats: fuzz programs, and
/// on request the suite sources at the test preset mixed in at seeded
/// positions.  Programs the eager interpreter rejects are skipped; each
/// program carries its inputs and the eager oracle's outputs.
class ProgramStream {
 public:
  explicit ProgramStream(uint64_t seed)
      : rng_(mix(seed, 0x70726f6772616d73ull)),
        seed_(seed),
        order_(kFuzzPool) {
    for (uint32_t i = 0; i < kFuzzPool; ++i) order_[i] = i;
  }

  /// Mixes the 21 suite sources in among the next `span` draws.
  void mix_in_suite(size_t span) {
    suite_.clear();
    for (const auto& k : kernels::suite()) suite_.push_back(&k);
    for (size_t i = suite_.size(); i > 1; --i)
      std::swap(suite_[i - 1], suite_[rng_.below(i)]);
    left_ = std::max(span, suite_.size());
  }

  /// Appends `n` programs to `into`.
  void build(size_t n, std::vector<ProgramCase>& into) {
    for (size_t built = 0; built < n;) {
      ProgramCase p;
      if (draw(p)) {
        into.push_back(std::move(p));
        ++built;
      }
    }
  }

 private:
  bool draw(ProgramCase& p) {
    bool suite = !suite_.empty() && rng_.below(left_) < suite_.size();
    if (left_ > 0) --left_;
    if (suite) {
      p = suite_program(*suite_.back(), seed_);
      suite_.pop_back();
    } else {
      if (next_ == kFuzzPool) throw Error("program pool exhausted");
      // Partial Fisher-Yates: a seeded draw without replacement.
      std::swap(order_[next_],
                order_[next_ + rng_.below(kFuzzPool - next_)]);
      uint32_t fs = order_[next_++];
      if (kKnownMismatches.count(fs)) return false;
      p.label = "fuzz:" + std::to_string(fs);
      p.source = fuzz::generate_program(fs);
      p.syms = fuzz::symbol_values(fs);
      p.inputs = fuzz::make_inputs(fs);
    }
    return add_oracle(p);
  }

  Rng rng_;
  uint64_t seed_;
  std::vector<uint32_t> order_;
  uint32_t next_ = 0;
  std::vector<const kernels::Kernel*> suite_;
  size_t left_ = 0;
};

/// Programs a timed phase may use up: enough for 150 operations a second.
size_t programs_for(const Options& o) {
  return (size_t)(o.seconds * 150) + 32;
}

/// The suite sources are spread over the first programs a run reaches
/// even at 10 operations a second.
size_t suite_span(const Options& o) { return (size_t)(o.seconds * 10); }

struct CompileTimes {
  double op_ms = 0;
  double parse = 0, lower = 0, aopt = 0, init = 0, first_run = 0,
         teardown = 0;
  xf::PassReport report;
};

/// One compile: source text to first result, then executor teardown.
CompileTimes compile_once(const ProgramCase& p, rt::Bindings& args,
                          fe::Module& m) {
  CompileTimes t;
  int64_t t0 = obs::now_ns();
  std::unique_ptr<ir::SDFG> g;
  std::unique_ptr<rt::Executor> ex;
  t.parse = timed("frontend.parse", [&] { m = fe::parse(p.source); });
  t.lower = timed("frontend.lower",
                  [&] { g = fe::lower_to_sdfg(m.functions.back()); });
  xf::AutoOptOptions ao;
  ao.report = &t.report;
  t.aopt = timed("transforms.auto_optimize",
                 [&] { xf::auto_optimize(*g, ir::DeviceType::CPU, ao); });
  t.init = timed("runtime.executor_init",
                 [&] { ex = std::make_unique<rt::Executor>(*g); });
  t.first_run = timed("runtime.first_run", [&] { ex->run(args, p.syms); });
  t.teardown = timed("profdb.teardown", [&] { ex.reset(); });
  t.op_ms = (double)(obs::now_ns() - t0) / 1e6;
  if (obs::enabled())
    obs::complete("perfbench", "compile", t0, obs::now_ns() - t0);
  return t;
}

}  // namespace

void run_compile(const Options& o, Outcome& out) {
  // A discarded warm-up of fuzz programs, then the timed set with the
  // suite sources mixed in.
  ProgramStream stream(o.seed);
  std::vector<ProgramCase> warmup, progs;
  stream.build(o.smoke ? 4 : 32, warmup);
  for (const ProgramCase& p : warmup) {
    rt::Bindings args = deep_copy(p.inputs);
    fe::Module m;
    try {
      compile_once(p, args, m);
      yardstick_ms();
    } catch (const std::exception& e) {
      out.check(false, p.label + " warm-up: " + e.what());
      continue;
    }
    std::string why = output_mismatch(args, p.expected, p.outputs);
    out.check(why.empty(), p.label + " warm-up: " + why);
  }
  stream.mix_in_suite(suite_span(o));
  stream.build(programs_for(o), progs);

  // Set-up sample: the set-up program compiled from source text to first
  // result.  Traced runs alternate untraced and traced samples.
  // Generating the fuzz programs and their inputs takes about 15 us a
  // program, too little to time steadily.
  ProgramCase first = suite_program(kernels::kernel(kSetupKernel), o.seed);
  if (!add_oracle(first)) throw Error("eager rejects " + first.label);
  std::vector<double> setup, traced_setup;
  auto setup_sample = [&] {
    bool traced = o.trace && (setup.size() + traced_setup.size()) % 2 == 1;
    rt::Bindings args = deep_copy(first.inputs);
    fe::Module m;
    obs::set_enabled(traced);
    double ms = compile_once(first, args, m).op_ms;
    obs::set_enabled(false);
    (traced ? traced_setup : setup).push_back(ms / 1e3);
    std::string why = output_mismatch(args, first.expected, first.outputs);
    out.check(why.empty(), first.label + " set-up: " + why);
  };

  Layers L;
  Rng rng(mix(o.seed, 0x636f6d70696c65ull));
  std::vector<double> lat, ref, tlat, tref;
  bool corrupt = o.corrupt;
  SetupSchedule schedule(o);
  double end = now_ms() + o.seconds * 1e3;
  for (size_t i = 0; i < progs.size() && now_ms() < end; ++i) {
    if (schedule.due()) setup_sample();
    const ProgramCase& p = progs[i];
    bool traced = o.trace && i % 2 == 1;
    rt::Bindings args = deep_copy(p.inputs);
    fe::Module m;
    DbCounters d0 = traced ? db_counters() : DbCounters{};
    // The reference (one yardstick) goes before or after the compile, by
    // a seeded coin.
    bool ref_first = rng.below(2) == 0;
    double yard = ref_first ? yardstick_ms() : 0;
    obs::set_enabled(traced);
    CompileTimes t;
    try {
      t = compile_once(p, args, m);
    } catch (const std::exception& e) {
      obs::set_enabled(false);
      out.check(false, p.label + ": " + e.what());
      continue;
    }
    obs::set_enabled(false);
    if (!ref_first) yard = yardstick_ms();
    if (std::exchange(corrupt, false)) corrupt_output(args, p.outputs[0]);
    std::string why = output_mismatch(args, p.expected, p.outputs);
    out.check(why.empty(), p.label + ": " + why);
    (traced ? tlat : lat).push_back(t.op_ms);
    (traced ? tref : ref).push_back(yard);
    if (!traced) continue;
    L.add_db(d0, db_counters());
    L.parse.push_back(t.parse);
    L.lower.push_back(t.lower);
    L.add_passes(t.report, t.aopt);
    L.init.push_back(t.init);
    L.first_run.push_back(t.first_run);
    L.teardown.push_back(t.teardown);
    obs::set_enabled(true);
    probe_ir(m.functions.back(), L, out);
    obs::set_enabled(false);
  }
  for (int i = schedule.missing(); i > 0; --i) setup_sample();
  out.set("setup_s", median(setup), "s");
  if (lat.empty()) throw Error("compile: no program was timed");
  Timings traced = pooled(tlat, tref);
  report_timings(out, pooled(lat, ref), o.trace ? &traced : nullptr);
  if (!o.trace) return;
  L.emit(out);
  out.set("compile.layer_share", L.chain_ms() / mean(tlat), "fraction");
  out.set("trace_overhead.setup_s", median(traced_setup) - median(setup),
          "s");
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

namespace {

std::string hex16(uint64_t v) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

serve::RunRequest to_request(const ProgramCase& p, const std::string& id) {
  serve::RunRequest req;
  req.source = p.source;
  req.symbols.insert(p.syms.begin(), p.syms.end());
  req.id = id;
  return req;
}

/// Arguments as Server::run_job synthesizes them: the same values on
/// every run of a request, so output checksums are comparable.
rt::Bindings synthesize_args(const ir::SDFG& g, const sym::SymbolMap& syms) {
  rt::Bindings args;
  for (const auto& an : g.arg_names()) {
    const auto& desc = g.arrays().at(an);
    uint64_t h = cg::cache::fnv1a(an.data(), an.size());
    if (desc.is_scalar()) {
      args.emplace(an, rt::Tensor::scalar((double)(h % 97) / 7.0, desc.dtype));
      continue;
    }
    std::vector<int64_t> shape;
    for (const auto& e : desc.shape) shape.push_back(e.eval(syms));
    rt::Tensor t(desc.dtype, shape);
    double* d = t.data();
    for (int64_t i = 0; i < t.size(); ++i)
      d[i] = (double)((h + (uint64_t)i * 2654435761ull) % 1024) / 64.0;
    args.emplace(an, std::move(t));
  }
  return args;
}

/// One request replayed in-process.
struct Replay {
  std::string outputs;  // the "outputs" object the daemon should reply
  std::string eager;    // how the outputs disagree with eager; "" if not
  double ms = 0;        // the calls run_job makes, end to end
};

/// Replays one request with the calls Server::run_job makes (the
/// persisted negative-cache probe aside): compile, argument synthesis,
/// executor, run, output checksums, teardown.  The same arguments then go
/// through the eager interpreter, which shares no compiler code with the
/// daemon.  With `L`, each step's time is recorded and the IR probed.
Replay replay_job(const serve::RunRequest& req, Layers* L, Outcome& out) {
  Layers scratch;
  Layers& l = L ? *L : scratch;
  Replay r;
  double t0 = now_ms();
  fe::Module m;
  std::unique_ptr<ir::SDFG> g;
  l.parse.push_back(
      timed("frontend.parse", [&] { m = fe::parse(req.source); }));
  l.lower.push_back(timed("frontend.lower",
                          [&] { g = fe::lower_to_sdfg(m.functions.back()); }));
  xf::PassReport rep;
  xf::AutoOptOptions ao;
  ao.report = &rep;
  double aopt_ms = timed("transforms.auto_optimize", [&] {
    xf::auto_optimize(*g, ir::DeviceType::CPU, ao);
  });
  l.add_passes(rep, aopt_ms);
  sym::SymbolMap syms(req.symbols.begin(), req.symbols.end());
  rt::Bindings args = synthesize_args(*g, syms);
  double c0 = now_ms();
  rt::Bindings eager_args = deep_copy(args);
  double clone_ms = now_ms() - c0;
  std::unique_ptr<rt::Executor> ex;
  l.init.push_back(timed("runtime.executor_init",
                         [&] { ex = std::make_unique<rt::Executor>(*g); }));
  l.first_run.push_back(
      timed("runtime.first_run", [&] { ex->run(args, syms); }));
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& an : g->arg_names()) {
    const rt::Tensor& t = args.at(an);
    os << (first ? "" : ",") << "\"" << diag::json_escape(an) << "\":\""
       << hex16(cg::cache::fnv1a(t.data(), (size_t)t.size() * sizeof(double)))
       << "\"";
    first = false;
  }
  os << "}";
  r.outputs = os.str();
  l.teardown.push_back(timed("profdb.teardown", [&] { ex.reset(); }));
  r.ms = now_ms() - t0 - clone_ms;
  try {
    rt::EagerInterpreter(m.functions.back()).run(eager_args, syms);
    r.eager = output_mismatch(args, eager_args, g->arg_names());
  } catch (const std::exception& e) {
    r.eager = std::string("eager interpreter: ") + e.what();
  }
  if (L) probe_ir(m.functions.back(), *L, out);
  return r;
}

}  // namespace

void run_serve(const Options& o, Outcome& out) {
  // Relative to the working directory, which run.py makes private to the
  // run: unix socket paths must be short.
  const std::string sock = "serve.sock";
  serve::ServeConfig cfg;
  cfg.socket_path = sock;
  serve::ClientOptions copts;
  copts.socket_path = sock;
  serve::Client cli(copts);

  // Checks one reply: it must be ok, and its output checksums must equal
  // those of the same request replayed in-process, after the reply and
  // outside the timers.  No daemon job is in flight between closed-loop
  // requests, so the replay cannot race the daemon's workers for the
  // thread pool.  With `layers`, the replay is traced into it.
  bool corrupt = o.corrupt;
  auto verify = [&](const serve::RunRequest& req, const serve::Reply& rep,
                    const std::string& label, Layers* layers, Replay& r) {
    if (!rep.ok) {
      out.check(false, "request " + req.id + ": " + rep.code + " " +
                           rep.message);
      return false;
    }
    std::string got = serve::extract_outputs(rep.payload);
    if (std::exchange(corrupt, false)) {
      // One hex digit of the first checksum.
      size_t at = got.find("\":\"");
      if (at != std::string::npos && at + 3 < got.size())
        got[at + 3] = got[at + 3] == '0' ? '1' : '0';
    }
    obs::set_enabled(layers != nullptr);
    try {
      r = replay_job(req, layers, out);
    } catch (const std::exception& e) {
      r.eager = std::string("replay threw: ") + e.what();
    }
    obs::set_enabled(false);
    out.check(got == r.outputs, "request " + req.id + ": reply " + got +
                                    " differs from the replay " + r.outputs);
    out.check(r.eager.empty(),
              "request " + req.id + " (" + label + "): " + r.eager);
    return true;
  };

  // Set-up sample: daemon start until its first request, the set-up
  // program, is answered.  Each sample starts a fresh daemon on a socket
  // of its own and drains it, between requests, when the main daemon has
  // no job in flight.  Traced runs alternate untraced and traced samples.
  // (Start until the first ping is a sub-millisecond span of thread
  // start-ups; its median over 200 starts moved 4x between processes.)
  serve::RunRequest first = to_request(
      suite_program(kernels::kernel(kSetupKernel), o.seed), "first");
  serve::ServeConfig setup_cfg;
  setup_cfg.socket_path = "setup.sock";
  serve::ClientOptions setup_copts;
  setup_copts.socket_path = setup_cfg.socket_path;
  serve::Client setup_cli(setup_copts);
  std::vector<double> setup, traced_setup;
  auto setup_sample = [&] {
    bool traced = o.trace && (setup.size() + traced_setup.size()) % 2 == 1;
    obs::set_enabled(traced);
    double t0 = now_ms();
    serve::Server daemon(setup_cfg);
    std::string why;
    if (!daemon.start(&why))
      throw Error("serve: set-up daemon failed to start: " + why);
    serve::Reply rep = setup_cli.run(first);
    (traced ? traced_setup : setup).push_back((now_ms() - t0) / 1e3);
    obs::set_enabled(false);
    Replay r;
    verify(first, rep, "set-up", nullptr, r);
    out.check(daemon.drain(), "set-up daemon drain left orphaned jobs");
  };

  serve::Server srv(cfg);
  std::string why;
  if (!srv.start(&why)) throw Error("serve: daemon failed to start: " + why);

  // The request stream, built like the compile workload's program set.
  size_t warmup = o.smoke ? 4 : 16;
  ProgramStream stream(o.seed);
  stream.mix_in_suite(suite_span(o));
  std::vector<ProgramCase> progs;
  stream.build(warmup + programs_for(o), progs);

  Rng rng(mix(o.seed, 0x7365727665ull));
  Layers L;
  std::vector<double> lat, ref, ping, tlat, tref, tping, overhead;
  SetupSchedule schedule(o);
  double end = -1;
  for (size_t i = 0; i < progs.size(); ++i) {
    if (i == warmup) end = now_ms() + o.seconds * 1e3;
    if (end > 0 && now_ms() >= end) break;
    if (schedule.due()) setup_sample();
    const ProgramCase& p = progs[i];
    serve::RunRequest req = to_request(p, "q" + std::to_string(i));
    bool traced = o.trace && i % 2 == 1;
    DbCounters d0 = traced ? db_counters() : DbCounters{};
    // Reference: one yardstick, before or after the request by a seeded
    // coin.
    bool ref_first = rng.below(2) == 0;
    double yard = ref_first ? yardstick_ms() : 0;
    obs::set_enabled(traced);
    serve::Reply rep;
    double ms = timed("serve.request", [&] { rep = cli.run(req); });
    bool pong = false;
    double pms = timed("serve.ping", [&] { pong = cli.ping().ok; });
    obs::set_enabled(false);
    if (!ref_first) yard = yardstick_ms();
    DbCounters d1 = traced ? db_counters() : DbCounters{};
    out.check(pong, "ping after " + req.id);
    Replay r;
    if (!verify(req, rep, p.label, traced ? &L : nullptr, r)) continue;
    if (i < warmup) continue;
    (traced ? tlat : lat).push_back(ms);
    (traced ? tref : ref).push_back(yard);
    (traced ? tping : ping).push_back(pms);
    if (!traced) continue;
    L.add_db(d0, d1);
    overhead.push_back(ms - r.ms);
  }

  for (int i = schedule.missing(); i > 0; --i) setup_sample();
  out.set("setup_s", median(setup), "s");
  serve::Reply st = cli.stats();
  out.check(st.ok, "stats verb");
  out.check(srv.drain(), "drain left orphaned jobs");
  if (lat.empty()) throw Error("serve: no request was timed");
  Timings traced = pooled(tlat, tref);
  report_timings(out, pooled(lat, ref), o.trace ? &traced : nullptr);
  if (!o.trace) return;
  L.emit(out);
  out.set("serve.ping_ms_p50", median(tping), "ms");
  out.set("serve.overhead_ms_p50", median(overhead), "ms");
  auto stat = [&](const char* key) {
    return (double)serve::json_find_int(st.payload, key, 0);
  };
  out.set("serve.queue_wait_ms_p90", stat("queue_wait_p90_ms"), "ms");
  out.set("serve.jobs_accepted", stat("accepted"), "count");
  out.set("serve.errors",
          stat("shed") + stat("compile_errors") + stat("deadline_exceeded") +
              stat("wedged") + stat("crashed") + stat("protocol_errors"),
          "count");
  out.set("trace_overhead.setup_s", median(traced_setup) - median(setup),
          "s");
}

}  // namespace perfbench
