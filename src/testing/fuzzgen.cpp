#include "testing/fuzzgen.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/eager_interpreter.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace::fuzz {

namespace {

/// splitmix64: deterministic and platform-independent, so a seed names
/// the same program on every machine.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool chance(int pct) { return range(1, 100) <= pct; }
};

enum class Kind { Mat, Row, Col, Scalar };

struct Var {
  std::string name;
  Kind kind;
};

/// Constants as fixed strings so program text is bit-stable; all are
/// "safe" (no zero divisors, no huge magnitudes).
const char* kConsts[] = {"0.5", "1.25", "2.0", "0.75", "3.0", "0.333"};

struct Gen {
  Rng rng;
  FuzzOptions opts;
  std::vector<Var> vars;
  int tmp_count = 0;
  std::ostringstream body;

  Gen(uint64_t seed, const FuzzOptions& o) : rng(seed), opts(o) {
    vars = {{"A", Kind::Mat},    {"B", Kind::Mat}, {"u", Kind::Row},
            {"v", Kind::Col},    {"out", Kind::Mat}, {"acc", Kind::Col}};
  }

  std::string constant() { return kConsts[rng.range(0, 5)]; }

  std::string pick(Kind k) {
    std::vector<const std::string*> c;
    for (const Var& v : vars)
      if (v.kind == k) c.push_back(&v.name);
    if (c.empty()) return "";
    return *c[rng.range(0, static_cast<int>(c.size()) - 1)];
  }

  std::string scalar_atom() {
    if (rng.chance(40)) {
      std::string s = pick(Kind::Scalar);
      if (!s.empty()) return s;
    }
    return constant();
  }

  std::string fresh(Kind k) {
    const char* prefix = k == Kind::Mat   ? "tm"
                         : k == Kind::Row ? "tr"
                         : k == Kind::Col ? "tc"
                                          : "ts";
    std::string name = prefix + std::to_string(tmp_count++);
    vars.push_back({name, k});
    return name;
  }

  /// Leaf of an elementwise expression of the given shape kind.
  std::string leaf(Kind k) {
    switch (k) {
      case Kind::Mat:
        if (opts.allow_matmul && rng.chance(12))
          return "np.outer(" + pick(Kind::Col) + ", " + pick(Kind::Row) + ")";
        if (opts.allow_broadcast && rng.chance(12))
          return "(" + pick(Kind::Mat) + " + " + pick(Kind::Row) + ")";
        return pick(Kind::Mat);
      case Kind::Row:
        if (opts.allow_matmul && rng.chance(18))
          return "(" + pick(Kind::Col) + " @ " + pick(Kind::Mat) + ")";
        return pick(Kind::Row);
      case Kind::Col:
        if (opts.allow_matmul && rng.chance(18))
          return "(" + pick(Kind::Mat) + " @ " + pick(Kind::Row) + ")";
        return pick(Kind::Col);
      case Kind::Scalar:
        return scalar_atom();
    }
    return constant();
  }

  /// Elementwise expression of shape kind `k`.  Only bounded or
  /// magnitude-preserving operations, so values stay finite and the
  /// differential tolerance stays meaningful.
  std::string expr(Kind k, int depth) {
    if (depth <= 0) return leaf(k);
    switch (rng.range(0, 5)) {
      case 0:
      case 1: {
        const char* ops[] = {"+", "-", "*"};
        return "(" + expr(k, depth - 1) + " " + ops[rng.range(0, 2)] + " " +
               expr(k, depth - 1) + ")";
      }
      case 2:
        return "(" + expr(k, depth - 1) + " / " + constant() + ")";
      case 3: {
        const char* fs[] = {"np.tanh", "np.sin", "np.cos", "np.abs"};
        return std::string(fs[rng.range(0, 3)]) + "(" + expr(k, depth - 1) +
               ")";
      }
      case 4:
        return std::string(rng.chance(50) ? "np.minimum" : "np.maximum") +
               "(" + expr(k, depth - 1) + ", " + expr(k, depth - 1) + ")";
      default:
        return "(" + scalar_atom() + " * " + expr(k, depth - 1) + ")";
    }
  }

  /// Scalar expression over map indices i (rows) and j (columns).
  std::string map_expr(int depth) {
    if (depth <= 0) {
      switch (rng.range(0, 3)) {
        case 0: return pick(Kind::Mat) + "[i, j]";
        case 1: return pick(Kind::Col) + "[i]";
        case 2: return pick(Kind::Row) + "[j]";
        default: return scalar_atom();
      }
    }
    if (rng.chance(25))
      return "np.tanh(" + map_expr(depth - 1) + ")";
    const char* ops[] = {"+", "-", "*"};
    return "(" + map_expr(depth - 1) + " " + ops[rng.range(0, 2)] + " " +
           map_expr(depth - 1) + ")";
  }

  void emit(int indent, const std::string& s) {
    body << std::string(static_cast<size_t>(indent) * 4, ' ') << s << "\n";
  }

  /// One statement.  `allow_new` gates transient creation (names first
  /// bound inside an `if` branch are invisible afterwards, so nested
  /// statements only write existing containers).
  void stmt(int indent, bool allow_new) {
    int kind = rng.range(0, 11);
    switch (kind) {
      case 0:
      case 1: {  // elementwise matrix assignment
        std::string rhs = expr(Kind::Mat, 2);
        if (allow_new && rng.chance(40))
          emit(indent, fresh(Kind::Mat) + " = " + rhs);
        else
          emit(indent, pick(Kind::Mat) + "[:] = " + rhs);
        return;
      }
      case 2: {  // elementwise vector assignment (column)
        std::string rhs = expr(Kind::Col, 2);
        if (allow_new && rng.chance(40))
          emit(indent, fresh(Kind::Col) + " = " + rhs);
        else
          emit(indent, pick(Kind::Col) + "[:] = " + rhs);
        return;
      }
      case 3: {  // elementwise vector assignment (row)
        std::string rhs = expr(Kind::Row, 2);
        if (allow_new && rng.chance(40))
          emit(indent, fresh(Kind::Row) + " = " + rhs);
        else
          emit(indent, pick(Kind::Row) + "[:] = " + rhs);
        return;
      }
      case 4: {  // augmented whole-array update
        Kind k = rng.chance(50) ? Kind::Mat : Kind::Col;
        const char* op = rng.chance(70) ? "+=" : "-=";
        emit(indent, pick(k) + "[:] " + op + " " + expr(k, 1));
        return;
      }
      case 5: {  // reduction into a scalar transient
        if (!opts.allow_reductions || !allow_new) break;
        const char* red = rng.chance(60) ? "np.sum" : "np.max";
        emit(indent,
             fresh(Kind::Scalar) + " = " + std::string(red) + "(" +
                 pick(Kind::Mat) + ")");
        return;
      }
      case 6:
      case 7: {  // dace.map scope, optionally with WCR accumulation
        if (!opts.allow_maps) break;
        emit(indent, "for i, j in dace.map[0:N, 0:M]:");
        if (rng.chance(35)) {  // WCR: indices do not cover both params
          emit(indent + 1, pick(Kind::Col) + "[i] += " + map_expr(1));
        } else {
          std::string target = pick(Kind::Mat);
          if (rng.chance(40)) {
            emit(indent + 1, "loc = " + map_expr(1));
            emit(indent + 1, target + "[i, j] = loc + " + map_expr(1));
          } else {
            emit(indent + 1, target + "[i, j] = " + map_expr(2));
          }
        }
        return;
      }
      case 8: {  // three-point stencil under a range loop (slices)
        if (!opts.allow_slices || !opts.allow_control_flow) break;
        std::string w = pick(rng.chance(50) ? Kind::Col : Kind::Row);
        emit(indent, "for t in range(" + std::to_string(rng.range(1, 3)) +
                         "):");
        emit(indent + 1, w + "[1:-1] = " + constant() + " * (" + w +
                             "[:-2] + " + w + "[1:-1] + " + w + "[2:])");
        return;
      }
      case 9: {  // shifted-slice matrix assignment
        if (!opts.allow_slices) break;
        static const char* pairs[][2] = {{"[1:, :]", "[:-1, :]"},
                                         {"[:-1, :]", "[1:, :]"},
                                         {"[:, 1:]", "[:, :-1]"},
                                         {"[1:-1, :]", "[1:-1, :]"}};
        int p = rng.range(0, 3);
        std::string x = pick(Kind::Mat);
        std::string y = pick(Kind::Mat);
        emit(indent, x + pairs[p][0] + " = " + y + pairs[p][1] + " * " +
                         constant() + " + " + x + pairs[p][0] + " * " +
                         constant());
        return;
      }
      case 10: {  // symbol-conditional branch with nested statements
        if (!opts.allow_control_flow || indent > 1) break;
        static const char* conds[] = {"N > M", "M > N", "N >= 3", "M > 2"};
        emit(indent, std::string("if ") + conds[rng.range(0, 3)] + ":");
        stmt(indent + 1, /*allow_new=*/false);
        if (rng.chance(50)) {
          emit(indent, "else:");
          stmt(indent + 1, /*allow_new=*/false);
        }
        return;
      }
      default:
        break;
    }
    // Fallback: an always-valid elementwise update.
    emit(indent, pick(Kind::Mat) + "[:] = " + expr(Kind::Mat, 1));
  }
};

}  // namespace

std::string generate_program(uint64_t seed, const FuzzOptions& opts) {
  Gen g(seed, opts);
  int n = g.rng.range(opts.min_statements, opts.max_statements);
  for (int i = 0; i < n; ++i) g.stmt(1, /*allow_new=*/true);
  std::ostringstream os;
  os << "@dace.program\n"
     << "def fuzz(A: dace.float64[N, M], B: dace.float64[N, M],\n"
     << "         u: dace.float64[M], v: dace.float64[N],\n"
     << "         out: dace.float64[N, M], acc: dace.float64[N]):\n"
     << g.body.str();
  return os.str();
}

sym::SymbolMap symbol_values(uint64_t seed) {
  Rng rng(seed ^ 0xf00dULL);
  return {{"N", rng.range(3, 7)}, {"M", rng.range(3, 7)}};
}

rt::Bindings make_inputs(uint64_t seed) {
  sym::SymbolMap s = symbol_values(seed);
  int64_t n = s.at("N"), m = s.at("M");
  auto pat = [&](std::vector<int64_t> shape, unsigned fill_seed) {
    rt::Tensor t(ir::DType::f64, std::move(shape));
    kernels::fill_pattern(t, fill_seed);
    return t;
  };
  unsigned base = static_cast<unsigned>(seed * 6);
  rt::Bindings b;
  b.emplace("A", pat({n, m}, base + 1));
  b.emplace("B", pat({n, m}, base + 2));
  b.emplace("u", pat({m}, base + 3));
  b.emplace("v", pat({n}, base + 4));
  b.emplace("out", pat({n, m}, base + 5));
  b.emplace("acc", pat({n}, base + 6));
  return b;
}

rt::Bindings clone_bindings(const rt::Bindings& b) {
  rt::Bindings out;
  for (const auto& [name, t] : b) out.emplace(name, t.copy());
  return out;
}

const char* config_name(Config c) {
  switch (c) {
    case Config::Eager: return "eager";
    case Config::Tier0VM: return "tier0-vm";
    case Config::OptimizedVM: return "optimized-vm";
    case Config::AutoOpt: return "auto-opt";
    case Config::Tier1Native: return "tier1-native";
  }
  return "?";
}

const char* diff_status_name(DiffStatus s) {
  switch (s) {
    case DiffStatus::Ok: return "ok";
    case DiffStatus::CompileError: return "compile-error";
    case DiffStatus::ConfigError: return "config-error";
    case DiffStatus::Mismatch: return "mismatch";
    case DiffStatus::Crash: return "crash";
  }
  return "?";
}

namespace {

struct ConfigOut {
  bool ok = false;         // ran to completion
  bool contained = false;  // failed with a dace::Error (diagnosed)
  std::string error;
  rt::Bindings outputs;
};

ConfigOut run_one(Config c, const std::string& src,
                  const rt::Bindings& inputs, const sym::SymbolMap& syms) {
  ConfigOut r;
  r.outputs = clone_bindings(inputs);
  try {
    switch (c) {
      case Config::Eager: {
        fe::Module m = fe::parse(src);
        DACE_CHECK(!m.functions.empty(), "generated module has no function");
        rt::EagerInterpreter interp(m.functions.back());
        interp.run(r.outputs, syms);
        break;
      }
      case Config::Tier0VM: {
        env::Override bc("DACEPP_BC_OPT", "0");
        env::Override jit("DACEPP_JIT", "0");
        auto sdfg = fe::compile_to_sdfg(src);
        rt::execute(*sdfg, r.outputs, syms);
        break;
      }
      case Config::OptimizedVM: {
        env::Override bc("DACEPP_BC_OPT", "1");
        env::Override jit("DACEPP_JIT", "0");
        auto sdfg = fe::compile_to_sdfg(src);
        rt::execute(*sdfg, r.outputs, syms);
        break;
      }
      case Config::AutoOpt: {
        env::Override bc("DACEPP_BC_OPT", "1");
        env::Override jit("DACEPP_JIT", "0");
        auto sdfg = fe::compile_to_sdfg(src);
        xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
        rt::execute(*sdfg, r.outputs, syms);
        break;
      }
      case Config::Tier1Native: {
        // Promote every map on its first launch so the native
        // (kernel-plan) codegen actually executes; maps the host
        // compiler rejects fall back to the VM, which still agrees.
        env::Override bc("DACEPP_BC_OPT", "1");
        env::Override jit("DACEPP_JIT", "1");
        env::Override thr("DACEPP_JIT_THRESHOLD", "1");
        auto sdfg = fe::compile_to_sdfg(src);
        xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
        rt::execute(*sdfg, r.outputs, syms);
        break;
      }
    }
    r.ok = true;
  } catch (const Error& e) {
    r.contained = true;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.error = e.what();
  } catch (...) {
    r.error = "unknown exception type";
  }
  return r;
}

}  // namespace

DiffResult run_differential(const std::string& source, uint64_t seed) {
  DiffResult out;
  std::vector<Config> rest = {Config::Tier0VM, Config::OptimizedVM,
                              Config::AutoOpt};
  try {
    if (env::flag("DACE_FUZZ_TIER1", false))
      rest.push_back(Config::Tier1Native);
  } catch (const Error& e) {
    out.status = DiffStatus::ConfigError;
    out.detail = e.what();
    return out;
  }
  sym::SymbolMap syms = symbol_values(seed);
  rt::Bindings inputs = make_inputs(seed);

  ConfigOut ref = run_one(Config::Eager, source, inputs, syms);
  if (!ref.ok && !ref.contained) {
    out.status = DiffStatus::Crash;
    out.detail = std::string("eager: uncontained exception: ") + ref.error;
    return out;
  }

  for (Config c : rest) {
    ConfigOut r = run_one(c, source, inputs, syms);
    if (!r.ok && !r.contained) {
      out.status = DiffStatus::Crash;
      out.detail = std::string(config_name(c)) +
                   ": uncontained exception: " + r.error;
      return out;
    }
    if (r.ok != ref.ok) {
      out.status = DiffStatus::ConfigError;
      out.detail = std::string(config_name(c)) +
                   (r.ok ? " accepted a program eager rejects ("
                         : " rejected a program eager accepts (") +
                   (r.ok ? ref.error : r.error) + ")";
      return out;
    }
    if (!r.ok) continue;  // both diagnosed the program; that agrees
    for (const auto& [name, t] : ref.outputs) {
      const rt::Tensor& got = r.outputs.at(name);
      // WCR accumulation order differs between sequential eager
      // execution and the parallel / tiled VM paths; compare with a
      // floating-point tolerance, not bit equality.
      if (!rt::allclose(got, t, 1e-6, 1e-9)) {
        out.status = DiffStatus::Mismatch;
        out.detail = std::string(config_name(c)) + ": output '" + name +
                     "' diverges from eager, max diff " +
                     std::to_string(rt::max_abs_diff(got, t));
        return out;
      }
    }
  }
  if (!ref.ok) {
    out.status = DiffStatus::CompileError;
    out.detail = ref.error;
  }
  return out;
}

std::string minimize(const std::string& source,
                     const std::function<bool(const std::string&)>&
                         still_failing) {
  std::vector<std::string> lines;
  {
    std::istringstream is(source);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }
  // Keep the decorator and the (possibly multi-line) signature intact;
  // shrink only body lines.
  size_t body_start = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("):") != std::string::npos) {
      body_start = i + 1;
      break;
    }
  }
  if (body_start == 0 || body_start >= lines.size()) return source;
  std::vector<std::string> header(lines.begin(),
                                  lines.begin() + static_cast<long>(body_start));
  std::vector<std::string> bodyl(lines.begin() + static_cast<long>(body_start),
                                 lines.end());
  auto assemble = [&](const std::vector<std::string>& b) {
    std::ostringstream os;
    for (const auto& l : header) os << l << "\n";
    for (const auto& l : b) os << l << "\n";
    return os.str();
  };
  int budget = 300;  // hard cap on predicate evaluations
  bool shrunk = true;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (size_t chunk = std::max<size_t>(bodyl.size() / 2, 1); chunk >= 1;
         chunk /= 2) {
      for (size_t i = 0; i + chunk <= bodyl.size() && budget > 0;) {
        if (bodyl.size() <= chunk) break;  // keep at least one line
        std::vector<std::string> cand;
        cand.reserve(bodyl.size() - chunk);
        cand.insert(cand.end(), bodyl.begin(),
                    bodyl.begin() + static_cast<long>(i));
        cand.insert(cand.end(),
                    bodyl.begin() + static_cast<long>(i + chunk),
                    bodyl.end());
        --budget;
        if (still_failing(assemble(cand))) {
          bodyl = std::move(cand);
          shrunk = true;
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return assemble(bodyl);
}

}  // namespace dace::fuzz
