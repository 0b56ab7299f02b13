// Eager AST interpreter: the "NumPy over CPython" baseline.
//
// Executes a DaCeLang function directly, NumPy-style: every operation
// dispatches eagerly to the tensor_ops library, allocates a fresh
// temporary, and control flow runs in the interpreter.  This reproduces
// the performance profile the paper benchmarks against in Fig. 7 (fast
// native per-op loops, no fusion, one temporary per op, per-op dispatch).
//
// An optional observer receives one callback per operation with its data
// volumes; the simulated-GPU CuPy baseline (gpu/cupy_like.hpp) uses it to
// charge kernel-launch and memory-traffic costs per eager op.
#pragma once

#include <functional>

#include "frontend/ast.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor.hpp"

namespace dace::rt {

/// Per-operation notification for device cost models.
struct EagerObserver {
  virtual ~EagerObserver() = default;
  /// An eager operation executed: `kind` is "ew" (elementwise), "matmul",
  /// "reduce", "copy" or "alloc".
  virtual void on_op(const std::string& kind, int64_t out_elems,
                     int64_t in_elems, int64_t flops) = 0;
};

class EagerInterpreter {
 public:
  explicit EagerInterpreter(const fe::Function& f,
                            EagerObserver* observer = nullptr);

  /// Execute with argument tensors (shared views; outputs written in
  /// place) and values for the size symbols.
  void run(Bindings& args, const sym::SymbolMap& symbols);

  /// Number of eager operations dispatched in the last run.
  int64_t op_count() const { return op_count_; }

 private:
  friend class EagerImpl;
  const fe::Function& func_;
  EagerObserver* observer_;
  int64_t op_count_ = 0;
};

}  // namespace dace::rt
