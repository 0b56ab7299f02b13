#include "runtime/bytecode_opt.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/common.hpp"
#include "common/env.hpp"

namespace dace::rt {

namespace {

// Register banks: integer and float registers are separate namespaces.
enum class Bank { I, F };

struct RegRef {
  Bank bank;
  int reg;
  bool operator<(const RegRef& o) const {
    return bank != o.bank ? bank < o.bank : reg < o.reg;
  }
  bool operator==(const RegRef& o) const {
    return bank == o.bank && reg == o.reg;
  }
};

bool is_ibin(Op op) {
  return op == Op::IAdd || op == Op::ISub || op == Op::IMul ||
         op == Op::IFloorDiv || op == Op::IMod || op == Op::IMin ||
         op == Op::IMax;
}

bool is_fbin(Op op) {
  switch (op) {
    case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
    case Op::FPow: case Op::FMod: case Op::FMin: case Op::FMax:
    case Op::FLt: case Op::FLe: case Op::FGt: case Op::FGe:
    case Op::FEq: case Op::FNe: case Op::FAnd: case Op::FOr:
      return true;
    default:
      return false;
  }
}

bool is_fun(Op op) {
  switch (op) {
    case Op::FNeg: case Op::FAbs: case Op::FExp: case Op::FLog:
    case Op::FSqrt: case Op::FSin: case Op::FCos: case Op::FTanh:
    case Op::FFloor: case Op::FNot:
      return true;
    default:
      return false;
  }
}

/// Destination register, if the instruction writes one.
std::optional<RegRef> dest_of(const Instr& in) {
  switch (in.op) {
    case Op::IConst: case Op::ISym: case Op::IMov:
      return RegRef{Bank::I, in.a};
    case Op::FConst: case Op::FSym: case Op::FFromI: case Op::Load:
    case Op::FSelect:
      return RegRef{Bank::F, in.a};
    default:
      if (is_ibin(in.op)) return RegRef{Bank::I, in.a};
      if (is_fbin(in.op) || is_fun(in.op)) return RegRef{Bank::F, in.a};
      return std::nullopt;
  }
}

/// Registers the instruction reads.
std::vector<RegRef> reads_of(const Instr& in) {
  switch (in.op) {
    case Op::IMov: return {{Bank::I, in.b}};
    case Op::JGe: return {{Bank::I, in.a}, {Bank::I, in.b}};
    case Op::FFromI: return {{Bank::I, in.b}};
    case Op::Load: return {{Bank::I, in.b}};
    case Op::Store: return {{Bank::F, in.a}, {Bank::I, in.b}};
    case Op::StoreWcr: return {{Bank::F, in.a}, {Bank::I, in.b}};
    case Op::Guard: return {{Bank::I, in.a}, {Bank::I, in.b}};
    case Op::FSelect:
      return {{Bank::F, in.b}, {Bank::F, in.c}, {Bank::F, (int)in.imm}};
    default:
      if (is_ibin(in.op)) return {{Bank::I, in.b}, {Bank::I, in.c}};
      if (is_fbin(in.op)) return {{Bank::F, in.b}, {Bank::F, in.c}};
      if (is_fun(in.op)) return {{Bank::F, in.b}};
      return {};
  }
}

/// Safe to execute speculatively (hoist before a possibly-zero-trip
/// loop): pure integer arithmetic except the faulting division ops, plus
/// the float constant/symbol/convert loads.  Deliberately excludes float
/// arithmetic and Load so the VMStats flop/load counts stay identical to
/// the unoptimized program.
bool is_hoistable(Op op) {
  switch (op) {
    case Op::IConst: case Op::ISym: case Op::IMov: case Op::IAdd:
    case Op::ISub: case Op::IMul: case Op::IMin: case Op::IMax:
    case Op::FConst: case Op::FSym: case Op::FFromI:
      return true;
    default:
      return false;
  }
}

/// Safe to delete when the destination is never read.  Float flop-counted
/// arithmetic and Load stay (stats parity); everything side-effecting
/// (stores, control flow) stays.
bool is_removable(Op op) {
  switch (op) {
    case Op::IConst: case Op::ISym: case Op::IMov: case Op::IAdd:
    case Op::ISub: case Op::IMul: case Op::IFloorDiv: case Op::IMod:
    case Op::IMin: case Op::IMax: case Op::FConst: case Op::FSym:
    case Op::FFromI: case Op::FLt: case Op::FLe: case Op::FGt:
    case Op::FGe: case Op::FEq: case Op::FNe: case Op::FAnd: case Op::FOr:
    case Op::FNot: case Op::FSelect:
      return true;
    default:
      return false;
  }
}

/// A counted loop compiled by the map compiler:
///   header:  JGe var, end -> exit
///   body ...
///   latch-1: IAdd var, var, step   (in-place increment)
///   latch:   Jmp header
struct Loop {
  size_t header = 0;  // pc of the JGe
  size_t latch = 0;   // pc of the backward Jmp
  int var = -1;       // loop variable (JGe.a)
};

class Optimizer {
 public:
  explicit Optimizer(Program& p) : p_(p), code_(p.code) {}

  OptStats run() {
    // Fixpoint over the pass pipeline; each pass restarts its own scan
    // after a mutation, so a bounded round count suffices.
    for (int round = 0; round < 16; ++round) {
      bool changed = false;
      changed |= fold();
      changed |= licm();
      changed |= strength_reduce();
      changed |= dce();
      if (!changed) break;
    }
    return stats_;
  }

 private:
  Program& p_;
  std::vector<Instr>& code_;
  OptStats stats_;

  // ---- code editing with jump-target remapping ----------------------------

  /// Insert `ins` before `pos`. Targets beyond `pos` shift; a target at
  /// exactly `pos` shifts only when `shift_at_pos` (used for preheader
  /// insertion, where the loop back-edge must keep pointing at the JGe).
  void insert(size_t pos, const std::vector<Instr>& ins, bool shift_at_pos) {
    int64_t k = (int64_t)ins.size();
    for (Instr& in : code_) {
      if (in.op != Op::Jmp && in.op != Op::JGe) continue;
      if (in.imm > (int64_t)pos || (shift_at_pos && in.imm == (int64_t)pos))
        in.imm += k;
    }
    code_.insert(code_.begin() + (long)pos, ins.begin(), ins.end());
  }

  /// Remove the instruction at `pos`. A target at exactly `pos` stays in
  /// place (now addressing the instruction that followed).
  void erase(size_t pos) {
    for (Instr& in : code_) {
      if (in.op != Op::Jmp && in.op != Op::JGe) continue;
      if (in.imm > (int64_t)pos) in.imm -= 1;
    }
    code_.erase(code_.begin() + (long)pos);
  }

  // ---- analysis helpers ----------------------------------------------------

  /// Definition pcs per register.  The splittable chunk-bound registers
  /// i0/i1 get a sentinel external definition: they are preset by the
  /// caller and must never be treated as single-def constants.
  std::map<RegRef, std::vector<size_t>> def_sites() const {
    std::map<RegRef, std::vector<size_t>> defs;
    defs[{Bank::I, 0}].push_back(SIZE_MAX);
    defs[{Bank::I, 1}].push_back(SIZE_MAX);
    for (size_t pc = 0; pc < code_.size(); ++pc) {
      if (auto d = dest_of(code_[pc])) defs[*d].push_back(pc);
    }
    return defs;
  }

  std::map<RegRef, int> read_counts() const {
    std::map<RegRef, int> uses;
    for (const Instr& in : code_) {
      for (const RegRef& r : reads_of(in)) ++uses[r];
    }
    return uses;
  }

  std::vector<Loop> find_loops() const {
    std::vector<Loop> loops;
    for (size_t pc = 0; pc < code_.size(); ++pc) {
      const Instr& in = code_[pc];
      if (in.op != Op::Jmp || in.imm > (int64_t)pc) continue;
      size_t h = (size_t)in.imm;
      if (h >= code_.size() || code_[h].op != Op::JGe) continue;
      loops.push_back(Loop{h, pc, code_[h].a});
    }
    // Innermost (smallest interval) first.
    std::sort(loops.begin(), loops.end(), [](const Loop& a, const Loop& b) {
      return a.latch - a.header < b.latch - b.header;
    });
    return loops;
  }

  /// Body pcs of `L` that are not inside a nested loop (these execute
  /// exactly once per iteration of `L`).
  std::vector<size_t> direct_body(const Loop& L,
                                  const std::vector<Loop>& all) const {
    std::vector<size_t> out;
    for (size_t pc = L.header + 1; pc < L.latch; ++pc) {
      bool nested = false;
      for (const Loop& o : all) {
        if (o.header > L.header && o.latch < L.latch && pc >= o.header &&
            pc <= o.latch) {
          nested = true;
          break;
        }
      }
      if (!nested) out.push_back(pc);
    }
    return out;
  }

  int defs_in(const std::vector<size_t>& pcs, const RegRef& r,
              const std::map<RegRef, std::vector<size_t>>& defs) const {
    auto it = defs.find(r);
    if (it == defs.end()) return 0;
    int n = 0;
    for (size_t d : it->second) {
      if (d == SIZE_MAX) continue;
      if (std::binary_search(pcs.begin(), pcs.end(), d)) ++n;
    }
    return n;
  }

  static std::vector<size_t> range_pcs(size_t lo, size_t hi) {
    std::vector<size_t> out;
    for (size_t pc = lo; pc <= hi; ++pc) out.push_back(pc);
    return out;
  }

  // ---- pass 1: constant folding + identities + copy propagation ------------

  bool fold() {
    bool any = false;
    for (bool changed = true; changed;) {
      changed = false;
      auto defs = def_sites();
      // Known constants: integer registers with exactly one definition,
      // which is an IConst.  Compiled map scopes define every register
      // before its first use on all executed paths, so a single
      // definition's value holds at every read site.
      std::map<int, int64_t> known;
      for (const auto& [r, sites] : defs) {
        if (r.bank != Bank::I || sites.size() != 1) continue;
        if (sites[0] == SIZE_MAX) continue;
        const Instr& in = code_[sites[0]];
        if (in.op == Op::IConst) known[r.reg] = in.imm;
      }
      auto get = [&](uint16_t reg) -> std::optional<int64_t> {
        auto it = known.find(reg);
        if (it == known.end()) return std::nullopt;
        return it->second;
      };
      for (size_t pc = 0; pc < code_.size() && !changed; ++pc) {
        Instr& in = code_[pc];
        if (!is_ibin(in.op)) continue;
        auto d = dest_of(in);
        if (defs[*d].size() != 1) continue;  // recurrences stay untouched
        auto vb = get(in.b), vc = get(in.c);
        if (vb && vc) {
          int64_t b = *vb, c = *vc, r;
          switch (in.op) {
            case Op::IAdd: r = b + c; break;
            case Op::ISub: r = b - c; break;
            case Op::IMul: r = b * c; break;
            case Op::IMin: r = std::min(b, c); break;
            case Op::IMax: r = std::max(b, c); break;
            case Op::IFloorDiv:
            case Op::IMod: {
              if (c == 0) continue;  // keep the runtime fault
              int64_t q = b / c;
              if ((b % c != 0) && ((b < 0) != (c < 0))) --q;
              r = in.op == Op::IFloorDiv ? q : b - q * c;
              break;
            }
            default: continue;
          }
          in = Instr{Op::IConst, in.a, 0, 0, 0, r, 0};
          ++stats_.folded;
          changed = any = true;
        } else if (in.op == Op::IAdd && ((vb && *vb == 0) || (vc && *vc == 0))) {
          in = Instr{Op::IMov, in.a, (vb && *vb == 0) ? in.c : in.b, 0, 0, 0, 0};
          ++stats_.folded;
          changed = any = true;
        } else if (in.op == Op::ISub && vc && *vc == 0) {
          in = Instr{Op::IMov, in.a, in.b, 0, 0, 0, 0};
          ++stats_.folded;
          changed = any = true;
        } else if (in.op == Op::IMul && ((vb && *vb == 1) || (vc && *vc == 1))) {
          in = Instr{Op::IMov, in.a, (vb && *vb == 1) ? in.c : in.b, 0, 0, 0, 0};
          ++stats_.folded;
          changed = any = true;
        } else if (in.op == Op::IMul && ((vb && *vb == 0) || (vc && *vc == 0))) {
          in = Instr{Op::IConst, in.a, 0, 0, 0, 0, 0};
          ++stats_.folded;
          changed = any = true;
        }
      }
      if (changed) continue;
      // Copy propagation: single-def IMov whose source is also single-def
      // can forward its source into every read.
      for (size_t pc = 0; pc < code_.size() && !changed; ++pc) {
        const Instr& in = code_[pc];
        if (in.op != Op::IMov || in.a == in.b) continue;
        RegRef dst{Bank::I, in.a}, src{Bank::I, in.b};
        if (defs[dst].size() != 1 || defs[src].size() != 1) continue;
        for (Instr& u : code_) {
          switch (u.op) {
            case Op::IMov:
              if (&u != &in && u.b == in.a) { u.b = in.b; changed = true; }
              break;
            case Op::JGe:
              if (u.a == in.a) { u.a = in.b; changed = true; }
              if (u.b == in.a) { u.b = in.b; changed = true; }
              break;
            case Op::FFromI: case Op::Load:
              if (u.b == in.a) { u.b = in.b; changed = true; }
              break;
            case Op::Store: case Op::StoreWcr:
              if (u.b == in.a) { u.b = in.b; changed = true; }
              break;
            case Op::Guard:
              if (u.a == in.a) { u.a = in.b; changed = true; }
              if (u.b == in.a) { u.b = in.b; changed = true; }
              break;
            default:
              if (is_ibin(u.op)) {
                if (u.b == in.a) { u.b = in.b; changed = true; }
                if (u.c == in.a) { u.c = in.b; changed = true; }
              }
          }
        }
        if (changed) any = true;  // the IMov itself dies in DCE
      }
    }
    return any;
  }

  // ---- pass 2: loop-invariant code motion ----------------------------------

  bool licm() {
    bool any = false;
    for (bool changed = true; changed;) {
      changed = false;
      auto loops = find_loops();
      auto defs = def_sites();
      for (const Loop& L : loops) {
        auto body = range_pcs(L.header, L.latch);
        for (size_t pc : direct_body(L, loops)) {
          const Instr& in = code_[pc];
          if (!is_hoistable(in.op)) continue;
          auto d = dest_of(in);
          if (!d || (d->bank == Bank::I && d->reg < 2)) continue;
          if (defs_in(body, *d, defs) != 1) continue;
          bool invariant_ops = true;
          for (const RegRef& r : reads_of(in)) {
            if (defs_in(body, r, defs) != 0) {
              invariant_ops = false;
              break;
            }
          }
          if (!invariant_ops) continue;
          Instr moved = in;
          erase(pc);
          insert(L.header, {moved}, /*shift_at_pos=*/true);
          ++stats_.hoisted;
          changed = any = true;
          break;  // structures moved; rescan
        }
        if (changed) break;
      }
    }
    return any;
  }

  // ---- pass 3: strength reduction of affine offset chains ------------------

  // Coefficient of an affine value a + coef*var, as a tiny expression
  // tree over literals and loop-invariant registers.
  struct Coef {
    enum K { Lit, Reg, Add, Sub, Mul } k = Lit;
    int64_t lit = 0;
    int reg = -1;
    int a = -1, b = -1;  // children (pool indices)
  };

  std::vector<Coef> pool_;

  int c_lit(int64_t v) {
    pool_.push_back(Coef{Coef::Lit, v, -1, -1, -1});
    return (int)pool_.size() - 1;
  }
  int c_reg(int r) {
    pool_.push_back(Coef{Coef::Reg, 0, r, -1, -1});
    return (int)pool_.size() - 1;
  }
  int c_bin(Coef::K k, int a, int b) {
    const Coef& ca = pool_[(size_t)a];
    const Coef& cb = pool_[(size_t)b];
    if (ca.k == Coef::Lit && cb.k == Coef::Lit) {
      switch (k) {
        case Coef::Add: return c_lit(ca.lit + cb.lit);
        case Coef::Sub: return c_lit(ca.lit - cb.lit);
        case Coef::Mul: return c_lit(ca.lit * cb.lit);
        default: break;
      }
    }
    if (k == Coef::Mul) {
      if (ca.k == Coef::Lit && ca.lit == 0) return a;
      if (cb.k == Coef::Lit && cb.lit == 0) return b;
      if (ca.k == Coef::Lit && ca.lit == 1) return b;
      if (cb.k == Coef::Lit && cb.lit == 1) return a;
    }
    if (k == Coef::Add || k == Coef::Sub) {
      if (cb.k == Coef::Lit && cb.lit == 0) return a;
      if (k == Coef::Add && ca.k == Coef::Lit && ca.lit == 0) return b;
    }
    pool_.push_back(Coef{k, 0, -1, a, b});
    return (int)pool_.size() - 1;
  }
  bool c_is_lit(int id, int64_t v) const {
    return pool_[(size_t)id].k == Coef::Lit && pool_[(size_t)id].lit == v;
  }

  int fresh_ireg() {
    DACE_CHECK(p_.n_iregs < 60000, "bytecode opt: integer register overflow");
    return p_.n_iregs++;
  }

  /// Materialize the coefficient value into instructions appended to
  /// `out`; returns the register holding it (emitting an IConst for
  /// literals).
  int materialize(int id, std::vector<Instr>& out) {
    const Coef c = pool_[(size_t)id];
    switch (c.k) {
      case Coef::Lit: {
        int r = fresh_ireg();
        out.push_back(Instr{Op::IConst, (uint16_t)r, 0, 0, 0, c.lit, 0});
        return r;
      }
      case Coef::Reg:
        return c.reg;
      default: {
        int a = materialize(c.a, out);
        int b = materialize(c.b, out);
        int r = fresh_ireg();
        Op op = c.k == Coef::Add ? Op::IAdd
                                 : c.k == Coef::Sub ? Op::ISub : Op::IMul;
        out.push_back(Instr{op, (uint16_t)r, (uint16_t)a, (uint16_t)b, 0, 0, 0});
        return r;
      }
    }
  }

  bool strength_reduce() {
    bool any = false;
    for (bool changed = true; changed;) {
      changed = false;
      auto loops = find_loops();
      for (const Loop& L : loops) {
        if (reduce_loop(L, loops)) {
          changed = any = true;
          break;  // indices moved; recompute loop structure
        }
      }
    }
    return any;
  }

  bool reduce_loop(const Loop& L, const std::vector<Loop>& loops) {
    if (L.latch == 0) return false;
    const Instr& inc = code_[L.latch - 1];
    // Require the canonical in-place latch increment IAdd var, var, step.
    if (inc.op != Op::IAdd || inc.a != L.var || inc.b != L.var) return false;
    int step = inc.c;
    auto defs = def_sites();
    auto body = range_pcs(L.header, L.latch);
    if (defs_in(body, {Bank::I, step}, defs) != 0) return false;

    auto invariant = [&](int reg) {
      return defs_in(body, {Bank::I, reg}, defs) == 0;
    };

    // Collect affine chains over the direct body, in program order.
    struct Node {
      size_t pc;
      int dest;
      int coef;           // pool id; syntactically nonzero
      bool external = false;  // read by a surviving (non-chain) instruction
    };
    std::vector<Node> chain;
    std::map<int, int> dest_node;  // reg -> chain index
    auto aff_of = [&](int reg) -> std::optional<int> {
      if (reg == L.var) return c_lit(1);
      if (auto it = dest_node.find(reg); it != dest_node.end())
        return chain[(size_t)it->second].coef;
      if (invariant(reg)) return c_lit(0);
      return std::nullopt;
    };
    auto direct = direct_body(L, loops);
    for (size_t pc : direct) {
      if (pc == L.latch - 1) continue;  // the loop-variable increment
      const Instr& in = code_[pc];
      if (in.op != Op::IAdd && in.op != Op::ISub && in.op != Op::IMul)
        continue;
      if (in.a == L.var || in.a < 2) continue;
      if (defs_in(body, {Bank::I, in.a}, defs) != 1) continue;
      auto cb = aff_of(in.b), cc = aff_of(in.c);
      if (!cb || !cc) continue;
      int coef;
      if (in.op == Op::IAdd) {
        coef = c_bin(Coef::Add, *cb, *cc);
      } else if (in.op == Op::ISub) {
        coef = c_bin(Coef::Sub, *cb, *cc);
      } else {
        // Products stay affine only when one side is invariant.
        if (c_is_lit(*cb, 0)) {
          coef = c_bin(Coef::Mul, c_reg(in.b), *cc);
        } else if (c_is_lit(*cc, 0)) {
          coef = c_bin(Coef::Mul, *cb, c_reg(in.c));
        } else {
          continue;
        }
      }
      if (c_is_lit(coef, 0)) continue;  // invariant value; LICM's job
      dest_node[in.a] = (int)chain.size();
      chain.push_back(Node{pc, in.a, coef});
    }
    if (chain.empty()) return false;

    // Reject chain members whose value escapes the loop (the final
    // increment would overshoot the last in-loop value by one step), and
    // cascade the rejection through dependent members.
    std::vector<bool> rejected(chain.size(), false);
    std::set<size_t> chain_pcs;
    for (const Node& n : chain) chain_pcs.insert(n.pc);
    for (bool cascade = true; cascade;) {
      cascade = false;
      for (size_t ci = 0; ci < chain.size(); ++ci) {
        if (rejected[ci]) continue;
        for (size_t pc = 0; pc < code_.size(); ++pc) {
          bool in_loop = pc >= L.header && pc <= L.latch;
          bool reader = false;
          for (const RegRef& r : reads_of(code_[pc])) {
            if (r.bank == Bank::I && r.reg == chain[ci].dest) reader = true;
          }
          if (!reader) continue;
          // Chain members only read earlier-defined chain values, so any
          // in-loop read at a pc before this member's definition (the
          // header JGe included) would observe the previous iteration's
          // value in the original program -- not transformable.
          bool member_read = chain_pcs.count(pc) > 0;
          if (!in_loop || (pc < chain[ci].pc && !member_read)) {
            rejected[ci] = true;
            cascade = true;
            break;
          }
        }
        if (rejected[ci]) continue;
        // A member reading a rejected member is no longer affine.
        const Instr& in = code_[chain[ci].pc];
        for (uint16_t src : {in.b, in.c}) {
          auto it = dest_node.find(src);
          if (it != dest_node.end() && rejected[(size_t)it->second]) {
            rejected[ci] = true;
            cascade = true;
          }
        }
      }
    }
    std::vector<Node> kept;
    std::set<size_t> kept_pcs;
    for (size_t ci = 0; ci < chain.size(); ++ci) {
      if (!rejected[ci]) {
        kept.push_back(chain[ci]);
        kept_pcs.insert(chain[ci].pc);
      }
    }
    if (kept.empty()) return false;

    // A kept member is external when any read comes from outside the
    // kept set (loads/stores, nested loops, surviving instructions); only
    // externals need a latch increment.
    for (Node& n : kept) {
      for (size_t pc = 0; pc < code_.size(); ++pc) {
        if (kept_pcs.count(pc)) continue;
        for (const RegRef& r : reads_of(code_[pc])) {
          if (r.bank == Bank::I && r.reg == n.dest) n.external = true;
        }
      }
    }

    // Preheader: per-external delta registers (coef * step), then clones
    // of the whole chain seeding the iteration-0 values.
    std::vector<Instr> pre;
    std::vector<std::pair<int, int>> increments;  // (dest, delta reg)
    for (const Node& n : kept) {
      if (!n.external) continue;
      int delta = c_is_lit(n.coef, 1)
                      ? step
                      : materialize(c_bin(Coef::Mul, n.coef, c_reg(step)), pre);
      increments.emplace_back(n.dest, delta);
    }
    for (const Node& n : kept) pre.push_back(code_[n.pc]);

    std::vector<Instr> latch_incs;
    for (auto [dest, delta] : increments) {
      latch_incs.push_back(Instr{Op::IAdd, (uint16_t)dest, (uint16_t)dest,
                                 (uint16_t)delta, 0, 0, 0});
    }

    // Apply: preheader first (shifts everything in the loop), then the
    // latch increments, then delete the chain bodies back-to-front.
    size_t k1 = pre.size();
    insert(L.header, pre, /*shift_at_pos=*/true);
    insert(L.latch + k1, latch_incs, /*shift_at_pos=*/false);
    std::vector<size_t> doomed(kept_pcs.begin(), kept_pcs.end());
    std::sort(doomed.rbegin(), doomed.rend());
    for (size_t pc : doomed) erase(pc + k1);
    stats_.strength_reduced += (int)doomed.size();
    return true;
  }

  // ---- pass 4: dead register elimination -----------------------------------

  bool dce() {
    bool any = false;
    for (bool changed = true; changed;) {
      changed = false;
      auto uses = read_counts();
      for (size_t pc = code_.size(); pc-- > 0;) {
        const Instr& in = code_[pc];
        if (!is_removable(in.op)) continue;
        auto d = dest_of(in);
        if (!d) continue;
        auto it = uses.find(*d);
        if (it != uses.end() && it->second > 0) continue;
        erase(pc);
        ++stats_.eliminated;
        changed = any = true;
      }
    }
    return any;
  }
};

}  // namespace

OptStats optimize_program(Program& prog) {
  Optimizer opt(prog);
  return opt.run();
}

bool bytecode_opt_enabled() { return env::flag("DACEPP_BC_OPT", true); }

}  // namespace dace::rt
