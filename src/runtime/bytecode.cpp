#include "runtime/bytecode.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/common.hpp"
#include "runtime/tensor.hpp"

namespace dace::rt {

namespace {

int64_t floordiv_i64(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

double fmod_py(double a, double b) {
  double r = std::fmod(a, b);
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

void atomic_wcr(double* addr, double v, int kind) {
  std::atomic_ref<double> ref(*addr);
  double cur = ref.load(std::memory_order_relaxed);
  for (;;) {
    double next;
    switch (kind) {
      case 1: next = cur + v; break;
      case 2: next = cur * v; break;
      case 3: next = std::min(cur, v); break;
      default: next = std::max(cur, v); break;
    }
    if (ref.compare_exchange_weak(cur, next, std::memory_order_relaxed))
      return;
  }
}

constexpr Role N = Role::None, ID = Role::IDef, FD = Role::FDef,
               IU = Role::IUse, FU = Role::FUse;

// The operand table: one row per Op, in enum order.
constexpr OpInfo kOps[] = {
    // op           name         a   b   c   imm
    {Op::IConst,    "iconst",    ID, N,  N,  N},
    {Op::ISym,      "isym",      ID, N,  N,  N},
    {Op::IMov,      "imov",      ID, IU, N,  N},
    {Op::IAdd,      "iadd",      ID, IU, IU, N},
    {Op::ISub,      "isub",      ID, IU, IU, N},
    {Op::IMul,      "imul",      ID, IU, IU, N},
    {Op::IFloorDiv, "ifloordiv", ID, IU, IU, N},
    {Op::IMod,      "imod",      ID, IU, IU, N},
    {Op::IMin,      "imin",      ID, IU, IU, N},
    {Op::IMax,      "imax",      ID, IU, IU, N},
    {Op::Jmp,       "jmp",       N,  N,  N,  N},
    {Op::JGe,       "jge",       IU, IU, N,  N},
    {Op::FConst,    "fconst",    FD, N,  N,  N},
    {Op::FSym,      "fsym",      FD, N,  N,  N},
    {Op::FFromI,    "ffromi",    FD, IU, N,  N},
    {Op::Load,      "load",      FD, IU, N,  N},
    {Op::Store,     "store",     FU, IU, N,  N},
    {Op::StoreWcr,  "storewcr",  FU, IU, N,  N},
    {Op::FAdd,      "fadd",      FD, FU, FU, N},
    {Op::FSub,      "fsub",      FD, FU, FU, N},
    {Op::FMul,      "fmul",      FD, FU, FU, N},
    {Op::FDiv,      "fdiv",      FD, FU, FU, N},
    {Op::FPow,      "fpow",      FD, FU, FU, N},
    {Op::FMod,      "fmod",      FD, FU, FU, N},
    {Op::FMin,      "fmin",      FD, FU, FU, N},
    {Op::FMax,      "fmax",      FD, FU, FU, N},
    {Op::FLt,       "flt",       FD, FU, FU, N},
    {Op::FLe,       "fle",       FD, FU, FU, N},
    {Op::FGt,       "fgt",       FD, FU, FU, N},
    {Op::FGe,       "fge",       FD, FU, FU, N},
    {Op::FEq,       "feq",       FD, FU, FU, N},
    {Op::FNe,       "fne",       FD, FU, FU, N},
    {Op::FAnd,      "fand",      FD, FU, FU, N},
    {Op::FOr,       "for",       FD, FU, FU, N},
    {Op::FNeg,      "fneg",      FD, FU, N,  N},
    {Op::FAbs,      "fabs",      FD, FU, N,  N},
    {Op::FExp,      "fexp",      FD, FU, N,  N},
    {Op::FLog,      "flog",      FD, FU, N,  N},
    {Op::FSqrt,     "fsqrt",     FD, FU, N,  N},
    {Op::FSin,      "fsin",      FD, FU, N,  N},
    {Op::FCos,      "fcos",      FD, FU, N,  N},
    {Op::FTanh,     "ftanh",     FD, FU, N,  N},
    {Op::FFloor,    "ffloor",    FD, FU, N,  N},
    {Op::FNot,      "fnot",      FD, FU, N,  N},
    {Op::FSelect,   "fselect",   FD, FU, FU, FU},
    {Op::Guard,     "guard",     IU, IU, N,  N},
    {Op::Halt,      "halt",      N,  N,  N,  N},
};

constexpr bool one_row_per_op() {
  if (std::size(kOps) != static_cast<size_t>(Op::Halt) + 1) return false;
  for (size_t i = 0; i < std::size(kOps); ++i)
    if (kOps[i].op != static_cast<Op>(i)) return false;
  return true;
}
static_assert(one_row_per_op(), "the operand table needs one row per Op, "
                                "in enum order");

RegList regs_in_role(const Instr& in, Role as_i, Role as_f) {
  const OpInfo& row = op_info(in.op);
  RegList out;
  auto add = [&](Role role, int64_t field) {
    if (role == as_i) out.regs[out.n++] = {Bank::I, static_cast<int>(field)};
    if (role == as_f) out.regs[out.n++] = {Bank::F, static_cast<int>(field)};
  };
  add(row.a, in.a);
  add(row.b, in.b);
  add(row.c, in.c);
  add(row.imm, in.imm);
  return out;
}

}  // namespace

const OpInfo& op_info(Op op) { return kOps[static_cast<size_t>(op)]; }

RegList defs_of(const Instr& in) {
  return regs_in_role(in, Role::IDef, Role::FDef);
}

RegList uses_of(const Instr& in) {
  return regs_in_role(in, Role::IUse, Role::FUse);
}

std::optional<std::vector<Loop>> find_loops(const std::vector<Instr>& code) {
  std::vector<Loop> loops;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& in = code[pc];
    if (in.op != Op::Jmp) continue;
    if (in.imm < 0 || static_cast<size_t>(in.imm) >= pc) return std::nullopt;
    size_t h = static_cast<size_t>(in.imm);
    const Instr& jge = code[h];
    // Exiting at latch+1 also gives each header a single latch.
    if (jge.op != Op::JGe || jge.imm != static_cast<int64_t>(pc + 1))
      return std::nullopt;
    Loop L;
    L.header = h;
    L.latch = pc;
    L.var = jge.a;
    L.end_reg = jge.b;
    L.latch_begin = pc;
    while (L.latch_begin > h + 1 && code[L.latch_begin - 1].op == Op::IAdd &&
           code[L.latch_begin - 1].a == code[L.latch_begin - 1].b)
      --L.latch_begin;
    loops.push_back(L);
  }
  std::sort(loops.begin(), loops.end(),
            [](const Loop& x, const Loop& y) { return x.header < y.header; });
  // Intervals [header, latch] must be disjoint or nested.  In header order
  // the last enclosing loop is the innermost one.
  for (size_t i = 0; i < loops.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (loops[i].header > loops[j].latch) continue;
      if (loops[i].latch > loops[j].latch) return std::nullopt;
      loops[i].parent = static_cast<int>(j);
    }
  }
  return loops;
}

void vm_run(const Program& prog, const std::vector<ArrayRef>& arrays,
            const std::vector<int64_t>& syms, int64_t lo, int64_t hi,
            VMStats* stats) {
  std::vector<int64_t> ir(static_cast<size_t>(prog.n_iregs), 0);
  std::vector<double> fr(static_cast<size_t>(prog.n_fregs), 0.0);
  if (prog.splittable && prog.n_iregs >= 2) {
    ir[0] = lo;
    ir[1] = hi;
  }
  VMStats local;
  const Instr* code = prog.code.data();
  size_t pc = 0;
  for (;;) {
    const Instr& in = code[pc];
    ++local.instrs;
    switch (in.op) {
      case Op::IConst: ir[in.a] = in.imm; break;
      case Op::ISym: ir[in.a] = syms[static_cast<size_t>(in.imm)]; break;
      case Op::IMov: ir[in.a] = ir[in.b]; break;
      case Op::IAdd: ir[in.a] = ir[in.b] + ir[in.c]; break;
      case Op::ISub: ir[in.a] = ir[in.b] - ir[in.c]; break;
      case Op::IMul: ir[in.a] = ir[in.b] * ir[in.c]; break;
      case Op::IFloorDiv: ir[in.a] = floordiv_i64(ir[in.b], ir[in.c]); break;
      case Op::IMod:
        ir[in.a] = ir[in.b] - floordiv_i64(ir[in.b], ir[in.c]) * ir[in.c];
        break;
      case Op::IMin: ir[in.a] = std::min(ir[in.b], ir[in.c]); break;
      case Op::IMax: ir[in.a] = std::max(ir[in.b], ir[in.c]); break;
      case Op::Jmp: pc = static_cast<size_t>(in.imm); continue;
      case Op::JGe:
        if (ir[in.a] >= ir[in.b]) {
          pc = static_cast<size_t>(in.imm);
          continue;
        }
        break;
      case Op::FConst: fr[in.a] = in.fimm; break;
      case Op::FSym:
        fr[in.a] = static_cast<double>(syms[static_cast<size_t>(in.imm)]);
        break;
      case Op::FFromI: fr[in.a] = static_cast<double>(ir[in.b]); break;
      case Op::Load:
        fr[in.a] = arrays[static_cast<size_t>(in.imm)].base[ir[in.b]];
        ++local.loads;
        break;
      case Op::Store: {
        const ArrayRef& ar = arrays[static_cast<size_t>(in.imm)];
        ar.base[ir[in.b]] = cast_to(ar.dtype, fr[in.a]);
        ++local.stores;
        break;
      }
      case Op::StoreWcr: {
        const ArrayRef& ar = arrays[static_cast<size_t>(in.imm)];
        double* addr = ar.base + ir[in.b];
        double v = fr[in.a];
        if (in.flag) {
          atomic_wcr(addr, v, in.c);
        } else {
          switch (in.c) {
            case 1: *addr += v; break;
            case 2: *addr *= v; break;
            case 3: *addr = std::min(*addr, v); break;
            default: *addr = std::max(*addr, v); break;
          }
        }
        ++local.wcr_stores;
        break;
      }
      case Op::FAdd: fr[in.a] = fr[in.b] + fr[in.c]; ++local.flops; break;
      case Op::FSub: fr[in.a] = fr[in.b] - fr[in.c]; ++local.flops; break;
      case Op::FMul: fr[in.a] = fr[in.b] * fr[in.c]; ++local.flops; break;
      case Op::FDiv: fr[in.a] = fr[in.b] / fr[in.c]; ++local.flops; break;
      case Op::FPow:
        fr[in.a] = std::pow(fr[in.b], fr[in.c]);
        ++local.flops;
        break;
      case Op::FMod:
        fr[in.a] = fmod_py(fr[in.b], fr[in.c]);
        ++local.flops;
        break;
      case Op::FMin: fr[in.a] = std::min(fr[in.b], fr[in.c]); ++local.flops; break;
      case Op::FMax: fr[in.a] = std::max(fr[in.b], fr[in.c]); ++local.flops; break;
      case Op::FLt: fr[in.a] = fr[in.b] < fr[in.c] ? 1.0 : 0.0; break;
      case Op::FLe: fr[in.a] = fr[in.b] <= fr[in.c] ? 1.0 : 0.0; break;
      case Op::FGt: fr[in.a] = fr[in.b] > fr[in.c] ? 1.0 : 0.0; break;
      case Op::FGe: fr[in.a] = fr[in.b] >= fr[in.c] ? 1.0 : 0.0; break;
      case Op::FEq: fr[in.a] = fr[in.b] == fr[in.c] ? 1.0 : 0.0; break;
      case Op::FNe: fr[in.a] = fr[in.b] != fr[in.c] ? 1.0 : 0.0; break;
      case Op::FAnd:
        fr[in.a] = (fr[in.b] != 0 && fr[in.c] != 0) ? 1.0 : 0.0;
        break;
      case Op::FOr:
        fr[in.a] = (fr[in.b] != 0 || fr[in.c] != 0) ? 1.0 : 0.0;
        break;
      case Op::FNeg: fr[in.a] = -fr[in.b]; ++local.flops; break;
      case Op::FAbs: fr[in.a] = std::abs(fr[in.b]); ++local.flops; break;
      case Op::FExp: fr[in.a] = std::exp(fr[in.b]); ++local.flops; break;
      case Op::FLog: fr[in.a] = std::log(fr[in.b]); ++local.flops; break;
      case Op::FSqrt: fr[in.a] = std::sqrt(fr[in.b]); ++local.flops; break;
      case Op::FSin: fr[in.a] = std::sin(fr[in.b]); ++local.flops; break;
      case Op::FCos: fr[in.a] = std::cos(fr[in.b]); ++local.flops; break;
      case Op::FTanh: fr[in.a] = std::tanh(fr[in.b]); ++local.flops; break;
      case Op::FFloor: fr[in.a] = std::floor(fr[in.b]); ++local.flops; break;
      case Op::FNot: fr[in.a] = fr[in.b] == 0 ? 1.0 : 0.0; break;
      case Op::FSelect:
        fr[in.a] = fr[in.b] != 0 ? fr[in.c] : fr[static_cast<size_t>(in.imm)];
        break;
      case Op::Guard:
        if (ir[in.a] < 0 || ir[in.a] >= ir[in.b]) {
          throw err("map guard: flat index ", ir[in.a],
                    " outside [0, ", ir[in.b], ") for array '",
                    prog.arrays[static_cast<size_t>(in.imm)], "'");
        }
        break;
      case Op::Halt:
        if (stats) *stats += local;
        return;
    }
    ++pc;
  }
}

std::string Program::disassemble() const {
  std::ostringstream os;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    os << i << ": " << op_info(in.op).name << " a=" << in.a
       << " b=" << in.b << " c=" << in.c << " imm=" << in.imm;
    if (in.op == Op::FConst) os << " f=" << in.fimm;
    os << "\n";
  }
  return os.str();
}

uint64_t Program::hash() const {
  // FNV-1a over the semantically meaningful fields (never the raw struct
  // bytes -- padding would leak indeterminate values into the key), each
  // field widened to 64 bits and fed in host (little-endian) byte order.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = fnv1a(&v, sizeof(v), h); };
  mix(static_cast<uint64_t>(code.size()));
  for (const Instr& in : code) {
    mix(static_cast<uint64_t>(in.op) | (uint64_t)in.a << 8 |
        (uint64_t)in.b << 24 | (uint64_t)in.c << 40 | (uint64_t)in.flag << 56);
    mix(static_cast<uint64_t>(in.imm));
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(in.fimm));
    __builtin_memcpy(&bits, &in.fimm, sizeof(bits));
    mix(bits);
  }
  mix(static_cast<uint64_t>(n_iregs));
  mix(static_cast<uint64_t>(n_fregs));
  mix(static_cast<uint64_t>(arrays.size()));
  mix(static_cast<uint64_t>(symbols.size()));
  mix(splittable ? 1 : 0);
  // The absint-derived codegen flags change the generated Tier-1 source,
  // so they must key the native cache too.
  mix((use_restrict ? 1 : 0) | (vec_innermost ? 2 : 0));
  return h;
}

}  // namespace dace::rt
