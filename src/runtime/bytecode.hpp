// Stack-free register bytecode for map scopes.
//
// The SDFG executor compiles each top-level map scope (tasklets, inner
// scalar transients, nested sequential maps, symbolic memlet indices) into
// a small register program executed by a switch-dispatch VM.  Loops are
// real instructions, so a whole fused stencil body is one program invoked
// once per state execution.  The outermost loop's bounds live in reserved
// integer registers so CPU-parallel schedules can split the domain across
// worker threads (OpenMP-style static worksharing).
//
// Integer registers hold indices/symbols; floating registers hold values
// (all arithmetic in double; stores cast to the container dtype).
//
// Which registers each opcode reads and writes is stated once, in the
// operand table (op_info, defs_of, uses_of), and the canonical loop shape
// once, in find_loops.  The Tier-0 optimizer, the Tier-1 planner and the
// disassembler all read them.  A new opcode needs a table row (a missing
// one fails to compile), a vm_run case and a Tier-1 InstrPrinter case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/types.hpp"

namespace dace::rt {

// Halt stays last: it sizes the operand table.
enum class Op : uint8_t {
  // integer
  IConst,   // i[a] = imm
  ISym,     // i[a] = symbol_slot[imm]
  IMov,     // i[a] = i[b]
  IAdd, ISub, IMul, IFloorDiv, IMod, IMin, IMax,  // i[a] = i[b] . i[c]
  // control flow
  Jmp,      // goto imm
  JGe,      // if i[a] >= i[b] goto imm
  // float
  FConst,   // f[a] = fimm
  FSym,     // f[a] = (double)symbol_slot[imm]
  FFromI,   // f[a] = (double)i[b]
  Load,     // f[a] = array[imm][i[b]]
  Store,    // array[imm][i[b]] = cast(f[a])
  StoreWcr, // array[imm][i[b]] .wcr= f[a]; c = wcr kind; flag = atomic
  FAdd, FSub, FMul, FDiv, FPow, FMod, FMin, FMax,        // f[a] = f[b] . f[c]
  FLt, FLe, FGt, FGe, FEq, FNe, FAnd, FOr,
  FNeg, FAbs, FExp, FLog, FSqrt, FSin, FCos, FTanh, FFloor, FNot,  // f[a]=.f[b]
  FSelect,  // f[a] = f[b] != 0 ? f[c] : f[imm]
  Guard,    // trap unless 0 <= i[a] < i[b]; imm = array slot (diagnostics)
  Halt,
};

struct Instr {
  Op op = Op::Halt;
  uint16_t a = 0, b = 0, c = 0;
  uint8_t flag = 0;
  int64_t imm = 0;
  double fimm = 0;
};

// ---------------------------------------------------------------------------
// Operand table
// ---------------------------------------------------------------------------

/// Integer and float registers are separate namespaces.
enum class Bank : uint8_t { I, F };

struct Reg {
  Bank bank = Bank::I;
  int index = 0;
  auto operator<=>(const Reg&) const = default;
};

/// What one field of an instruction (a, b, c or imm) means for its opcode.
enum class Role : uint8_t {
  None,  // not a register: literal, slot, jump target or WCR kind
  IDef,  // writes i[field]
  FDef,  // writes f[field]
  IUse,  // reads i[field]
  FUse,  // reads f[field]
};

/// One row of the operand table.
struct OpInfo {
  Op op;
  const char* name;  // disassembly mnemonic
  Role a, b, c, imm;
};

const OpInfo& op_info(Op op);

/// The registers of one instruction in one direction, in field order
/// (a, b, c, imm).  Fixed capacity, so reading them never allocates.
struct RegList {
  Reg regs[4];
  int n = 0;

  const Reg* begin() const { return regs; }
  const Reg* end() const { return regs + n; }
  bool empty() const { return n == 0; }
  bool contains(Reg r) const {
    for (const Reg& x : *this)
      if (x == r) return true;
    return false;
  }
};

/// Registers `in` writes and reads, per its operand-table row.
RegList defs_of(const Instr& in);
RegList uses_of(const Instr& in);

// ---------------------------------------------------------------------------
// Loop finder
// ---------------------------------------------------------------------------

/// One loop of the nest the map compiler emits:
///
///     IMov  v, begin
///   h: JGe  v, end -> l+1
///     ... body ...
///     IAdd  v, v, step        <- trailing run of in-place increments
///     IAdd  off, off, delta      (strength reduction appends offsets)
///   l: Jmp  h
struct Loop {
  size_t header = 0;       // pc of the JGe exit test
  size_t latch = 0;        // pc of the backward Jmp
  size_t latch_begin = 0;  // first pc of the trailing IAdd r, r, c run
  int var = -1;            // loop variable register (JGe.a)
  int end_reg = -1;        // exclusive bound register (JGe.b)
  int parent = -1;         // innermost enclosing loop's index, -1 = top
};

/// The loops of `code` sorted by header pc, or nothing when the jump graph
/// is not such a nest: a Jmp that is not a backward latch to a JGe exiting
/// at latch+1, or loops that overlap without nesting.  A JGe with no latch
/// and the count of loop-variable steps in the increment run are left to
/// the caller.
std::optional<std::vector<Loop>> find_loops(const std::vector<Instr>& code);

/// Runtime binding of one array slot.
struct ArrayRef {
  double* base = nullptr;
  ir::DType dtype = ir::DType::f64;
};

/// Execution statistics used by the device cost models.
struct VMStats {
  uint64_t flops = 0;       // arithmetic float instructions
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t wcr_stores = 0;
  uint64_t instrs = 0;      // dispatched VM instructions

  VMStats& operator+=(const VMStats& o) {
    flops += o.flops;
    loads += o.loads;
    stores += o.stores;
    wcr_stores += o.wcr_stores;
    instrs += o.instrs;
    return *this;
  }
};

struct Program {
  std::vector<Instr> code;
  int n_iregs = 0;
  int n_fregs = 0;
  std::vector<std::string> arrays;   // slot -> container name
  std::vector<std::string> symbols;  // slot -> symbol name
  // When splittable, i[0]/i[1] are the outer loop's begin/end, set by the
  // caller per chunk; the compiled code reads rather than computes them.
  bool splittable = false;
  // Set by the map compiler from interval-analysis facts (absint):
  // use_restrict asserts the array slots bind non-overlapping buffers in
  // Tier-1 code (the executor verifies at dispatch time and falls back to
  // the VM on overlap); vec_innermost marks the innermost loop free of
  // loop-carried dependences, letting codegen emit a structured
  // vectorizable loop.
  bool use_restrict = false;
  bool vec_innermost = false;

  int array_slot(const std::string& name) {
    for (size_t i = 0; i < arrays.size(); ++i) {
      if (arrays[i] == name) return (int)i;
    }
    arrays.push_back(name);
    return (int)arrays.size() - 1;
  }
  int symbol_slot(const std::string& name) {
    for (size_t i = 0; i < symbols.size(); ++i) {
      if (symbols[i] == name) return (int)i;
    }
    symbols.push_back(name);
    return (int)symbols.size() - 1;
  }
  std::string disassemble() const;

  /// Stable fingerprint of the instruction stream and register/slot
  /// layout.  Two programs with equal hashes execute identically for the
  /// same runtime bindings; the native tier keys its code cache on this
  /// (combined with the bound array dtypes).
  uint64_t hash() const;
};

/// Execute `prog`. `arrays`/`syms` are indexed by the program's slots.
/// For splittable programs the caller presets i0/i1 via lo/hi.
void vm_run(const Program& prog, const std::vector<ArrayRef>& arrays,
            const std::vector<int64_t>& syms, int64_t lo, int64_t hi,
            VMStats* stats);

}  // namespace dace::rt
