#include "codegen/kernel_plan.hpp"

#include <algorithm>
#include <sstream>

namespace dace::cg {

namespace {

using rt::Bank;
using rt::Instr;
using rt::Op;
using rt::Reg;

class Planner {
 public:
  explicit Planner(const rt::Program& prog) : prog_(prog) {}

  KernelPlan run() {
    if (!reconstruct()) return {};
    plan_.valid = true;
    decide_sinks_and_unroll();
    decide_jam();
    return std::move(plan_);
  }

 private:
  const rt::Program& prog_;
  KernelPlan plan_;

  /// True when `r` has a def at some pc in [lo, hi).
  bool defined_in(Reg r, size_t lo, size_t hi) const {
    for (size_t pc = lo; pc < hi; ++pc)
      if (rt::defs_of(prog_.code[pc]).contains(r)) return true;
    return false;
  }

  bool read_in(Reg r, size_t lo, size_t hi) const {
    for (size_t pc = lo; pc < hi; ++pc)
      if (rt::uses_of(prog_.code[pc]).contains(r)) return true;
    return false;
  }

  /// Take the loop nest from rt::find_loops and add the checks the
  /// emitter needs: exactly one step of the loop variable per latch, and
  /// no JGe outside a loop header.
  bool reconstruct() {
    const auto& code = prog_.code;
    auto nest = rt::find_loops(code);
    if (!nest) return false;
    std::vector<bool> is_header(code.size(), false);
    for (const rt::Loop& found : *nest) {
      int var_incs = 0;
      for (size_t q = found.latch_begin; q < found.latch; ++q)
        if (code[q].a == found.var) ++var_incs;
      if (var_incs != 1) return false;  // no (or ambiguous) canonical step
      is_header[found.header] = true;
      PlanLoop L;
      static_cast<rt::Loop&>(L) = found;
      plan_.loops.push_back(L);
    }
    for (size_t pc = 0; pc < code.size(); ++pc)
      if (code[pc].op == Op::JGe && !is_header[pc]) return false;

    for (size_t i = 0; i < plan_.loops.size(); ++i)
      if (plan_.loops[i].parent >= 0)
        plan_.loops[plan_.loops[i].parent].children.push_back((int)i);

    for (PlanLoop& L : plan_.loops) {
      for (size_t pc = L.header + 1; pc < L.latch && !L.has_guard; ++pc)
        L.has_guard = code[pc].op == Op::Guard;
      L.const_step = find_const_step(L);
    }
    return true;
  }

  /// Constant step of the loop variable: its latch increment's source
  /// must have exactly one static def, an IConst executed outside every
  /// loop (the preamble), with a positive value.
  int64_t find_const_step(const PlanLoop& L) {
    int step_reg = -1;
    for (size_t pc = L.latch_begin; pc < L.latch; ++pc)
      if (prog_.code[pc].a == L.var) step_reg = prog_.code[pc].c;
    if (step_reg < 0) return 0;
    int64_t val = 0;
    int defs = 0;
    for (size_t pc = 0; pc < prog_.code.size(); ++pc) {
      if (!rt::defs_of(prog_.code[pc]).contains({Bank::I, step_reg})) continue;
      ++defs;
      if (prog_.code[pc].op != Op::IConst) return 0;
      bool in_loop = false;
      for (const PlanLoop& O : plan_.loops)
        in_loop |= pc > O.header && pc < O.latch;
      if (in_loop) return 0;
      val = prog_.code[pc].imm;
    }
    return (defs == 1 && val > 0) ? val : 0;
  }

  void decide_sinks_and_unroll() {
    for (PlanLoop& L : plan_.loops) {
      if (!L.innermost()) continue;
      decide_sinks(L);
      // Innermost unrolling by the f64 vector width, scalar epilogue for
      // the remainder.  Sequential body replication preserves the exact
      // VM order, so guards stay sound; requirements are a known
      // positive constant step, an invariant bound, and a loop variable
      // only written by its latch increment.  Loops the dependence
      // analysis already proved vectorizable (and without sunk
      // accumulators) stay plain: the host vectorizer cannot re-roll a
      // replicated body, so unrolling there would trade SIMD for scalar
      // ILP -- the ivdep'd plain loop is the better main loop.
      size_t body_len = L.latch_begin - L.header - 1;
      bool vectorizable =
          prog_.vec_innermost && !L.has_guard && L.sinks.empty();
      if (!vectorizable && L.const_step > 0 && body_len <= 48 &&
          !defined_in({Bank::I, L.var}, L.header + 1, L.latch_begin) &&
          !defined_in({Bank::I, L.end_reg}, L.header + 1, L.latch + 1)) {
        L.unroll = 4;
      }
    }
  }

  /// An innermost StoreWcr sinks to a register accumulator when its
  /// address is invariant in the loop and no other memory op anywhere in
  /// the program touches the same array slot (a Load elsewhere could
  /// observe the not-yet-combined partial value).  A Guard in the loop
  /// blocks sinking: the VM applies WCR updates for iterations preceding
  /// a trap, and the sunk combine would lose them.
  void decide_sinks(PlanLoop& L) {
    if (L.has_guard) return;
    const auto& code = prog_.code;
    for (size_t pc = L.header + 1; pc < L.latch_begin; ++pc) {
      const Instr& in = code[pc];
      if (in.op != Op::StoreWcr || in.c < 1 || in.c > 4) continue;
      if (defined_in({Bank::I, in.b}, L.header + 1, L.latch + 1)) continue;
      bool slot_clean = true;
      for (size_t q = 0; q < code.size() && slot_clean; ++q) {
        if (q == pc) continue;
        const Instr& o = code[q];
        if ((o.op == Op::Load || o.op == Op::Store ||
             o.op == Op::StoreWcr) &&
            o.imm == in.imm)
          slot_clean = false;
      }
      if (slot_clean) L.sinks.push_back(pc);
    }
  }

  void decide_jam() {
    for (size_t li = 0; li < plan_.loops.size(); ++li) {
      PlanLoop& J = plan_.loops[li];
      if (J.children.size() != 1) continue;
      PlanLoop& K = plan_.loops[(size_t)J.children[0]];
      if (!K.innermost() || K.sinks.empty()) continue;
      if (J.const_step <= 0 || J.has_guard) continue;
      if (J.latch - J.header > 120) continue;  // bound the code bloat

      // The jam interleaves four J iterations lane by lane.  Per-lane
      // register renaming makes that sound provided the lanes cannot
      // communicate: the J latch must be simple inductions, the inner
      // loop's trip count must be identical across lanes, and no
      // register may carry a (non-induction) value between J iterations
      // or out of the loop.
      std::vector<int> latch_targets;
      bool ok = true;
      for (size_t pc = J.latch_begin; pc < J.latch && ok; ++pc) {
        const Instr& in = prog_.code[pc];
        ok = !defined_in({Bank::I, in.c}, J.header + 1, J.latch + 1) &&
             std::find(latch_targets.begin(), latch_targets.end(),
                       (int)in.a) == latch_targets.end();
        latch_targets.push_back(in.a);
      }
      if (!ok) continue;

      // Inner trip count invariant across lanes: K's bound, its initial
      // value and its own step may not depend on anything written inside
      // J's body.
      auto body_def = [&](int ireg) {
        return defined_in({Bank::I, ireg}, J.header + 1, J.latch + 1);
      };
      if (body_def(K.end_reg)) continue;
      int init_pc = -1;
      for (size_t pc = J.header + 1; pc < K.header; ++pc)
        if (rt::defs_of(prog_.code[pc]).contains({Bank::I, K.var}))
          init_pc = (int)pc;
      if (init_pc < 0) continue;
      const Instr& init = prog_.code[(size_t)init_pc];
      if (init.op == Op::IMov) {
        if (body_def(init.b)) continue;
      } else if (init.op != Op::IConst) {
        continue;
      }
      int kvar_step = -1;
      for (size_t pc = K.latch_begin; pc < K.latch; ++pc)
        if (prog_.code[pc].a == K.var) kvar_step = prog_.code[pc].c;
      if (kvar_step < 0 || body_def(kvar_step)) continue;

      // Lane privacy: every register written in J's direct body must be
      // neither live-in (read before its first write -> J-loop-carried)
      // nor live-out (read after the latch -> the epilogue cannot
      // reproduce a jammed final value).  Induction registers are exempt
      // -- lanes derive them as base + lane*delta and the combined latch
      // advance keeps them canonical.
      std::vector<Reg> body_defs;
      for (size_t pc = J.header + 1; pc < J.latch_begin && ok; ++pc) {
        for (const Reg& d : rt::defs_of(prog_.code[pc])) {
          if (d.bank == Bank::I &&
              std::find(latch_targets.begin(), latch_targets.end(),
                        d.index) != latch_targets.end()) {
            ok = false;  // induction reg also written in the body
            break;
          }
          if (std::find(body_defs.begin(), body_defs.end(), d) ==
              body_defs.end())
            body_defs.push_back(d);
        }
      }
      if (!ok) continue;
      for (const Reg& r : body_defs) {
        size_t first_def = J.latch;
        for (size_t pc = J.header + 1; pc < J.latch_begin; ++pc) {
          if (rt::defs_of(prog_.code[pc]).contains(r)) {
            first_def = pc;
            break;
          }
        }
        // Read-before-first-write scans include the defining instruction
        // itself (x = x + ... is a carried dependence).
        if (read_in(r, J.header + 1, first_def + 1) ||
            read_in(r, J.latch + 1, prog_.code.size())) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      J.jam = 4;
      for (const Reg& r : body_defs)
        J.renames.push_back({r.bank == Bank::I ? 'i' : 'f', r.index});
      K.unroll = 1;  // the lanes already provide the inner-loop ILP
    }
  }
};

}  // namespace

KernelPlan::Summary KernelPlan::summary() const {
  Summary s;
  for (const PlanLoop& l : loops) {
    s.jam = std::max(s.jam, l.jam);
    s.unroll = std::max(s.unroll, l.unroll);
    s.sinks += l.sinks.size();
  }
  return s;
}

std::string KernelPlan::describe() const {
  Summary s = summary();
  std::ostringstream os;
  os << "loops=" << loops.size() << " jam=" << s.jam
     << " unroll=" << s.unroll << " sink=" << s.sinks;
  return os.str();
}

KernelPlan plan_kernel(const rt::Program& prog) {
  return Planner(prog).run();
}

}  // namespace dace::cg
