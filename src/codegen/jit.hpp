// JIT-through-the-system-compiler (the AOT pipeline of Section 3.3,
// exercised at runtime): write generated C++ to a temporary file, build a
// shared object with the host compiler, dlopen it, and return the entry
// point.  Two front doors share the machinery:
//   - compile():           whole-SDFG programs (aot_codegen example, the
//                          generated-code tests, the Fig. 6 benchmark)
//   - compile_map_native(): single map-scope bytecode programs, used by
//                          the executor's Tier-1 promotion (runtime/
//                          tiering.cpp)
// Callers must handle absence of a compiler (valid() is false).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/sdfg.hpp"
#include "runtime/bytecode.hpp"

namespace dace::cg {

/// Entry point signature of generated whole-SDFG programs.
using CompiledFn = void (*)(double** args, long long* syms);

/// Entry point signature of generated map-scope programs.  `arrays` and
/// `syms` are indexed by the bytecode Program's slots; for splittable
/// programs lo/hi carry the outer chunk bounds (the i0/i1 protocol of
/// vm_run), so ThreadPool worksharing drives native code and the VM
/// identically.  A failing Guard writes its array slot + 1 into `*err`
/// and returns early; the executor converts that into the same error the
/// VM throws.
using MapNativeFn = void (*)(double* const* arrays, const int64_t* syms,
                             int64_t lo, int64_t hi, int64_t* err);

namespace detail {
/// Shared build pipeline: probe the persistent artifact cache
/// (codegen/artifact_cache.*), and on a miss write `source`, compile a
/// shared object in cache-managed scratch space, commit it, dlopen, and
/// dlsym `symbol`. On any failure the handle is null.  A broken or
/// disabled cache degrades to a plain build -- never to a failure.  The
/// build runs `<compiler> <src> -o <so> -fPIC -shared -std=c++17 <opt>`,
/// so libraries named in `opt` link after the source.
struct LoadedObject {
  void* handle = nullptr;
  void* sym = nullptr;
  double compile_seconds = 0;
  bool cache_hit = false;  // loaded from the persistent artifact cache
};
LoadedObject build_and_load(const std::string& source,
                            const std::string& name,
                            const std::string& symbol,
                            const std::string& compiler,
                            const std::string& opt = "-O2",
                            uint64_t program_hash = 0,
                            const std::string& dtypes = "");

/// Owns a LoadedObject's handle: dlcloses it on destruction.  Move-only.
class ObjectHandle {
 public:
  ObjectHandle() = default;
  explicit ObjectHandle(const LoadedObject& obj)
      : handle_(obj.handle), sym_(obj.sym),
        compile_seconds_(obj.compile_seconds) {}
  ~ObjectHandle();
  ObjectHandle(ObjectHandle&& o) noexcept;
  ObjectHandle& operator=(ObjectHandle&& o) noexcept;

 protected:
  void* handle_ = nullptr;
  void* sym_ = nullptr;
  double compile_seconds_ = 0;
};
}  // namespace detail

/// Host-compiler invocations since process start (cache hits do not
/// count).  sdfg-serve's dedup tests assert on deltas of this.
uint64_t jit_compile_count();

/// A loaded shared object and its entry point of type `Fn`.
template <class Fn>
class Compiled : detail::ObjectHandle {
 public:
  using ObjectHandle::ObjectHandle;

  bool valid() const { return sym_ != nullptr; }
  Fn fn() const { return reinterpret_cast<Fn>(sym_); }
  /// Wall-clock seconds the host compiler took.
  double compile_seconds() const { return compile_seconds_; }
};

using CompiledProgram = Compiled<CompiledFn>;

/// Natively compiled map-scope program (Tier 1 of the tiered executor).
using CompiledMapNative = Compiled<MapNativeFn>;

/// Generate CPU code for `sdfg`, compile it with `compiler` (default:
/// c++), and load the entry point. Returns an invalid handle when no
/// compiler is available.
CompiledProgram compile(const ir::SDFG& sdfg,
                        const std::string& compiler = "c++");

/// Lower a Tier-0 bytecode program to standalone C++ along its kernel
/// plan (structured loops; codegen/kernel_plan.hpp).  Returns "" when the
/// planner cannot structure the program.  `dtypes[slot]` is the container
/// dtype of each array slot, baked into the generated store casts.
/// Implemented in program_codegen.cpp.
std::string generate_map_source(const rt::Program& prog,
                                const std::vector<ir::DType>& dtypes,
                                const std::string& fn_name);

/// Build generate_map_source output with the host compiler and load it.
/// A program with no source yields an invalid handle without running the
/// compiler.
CompiledMapNative compile_map_native(const rt::Program& prog,
                                     const std::vector<ir::DType>& dtypes,
                                     const std::string& fn_name,
                                     const std::string& compiler = "c++");

}  // namespace dace::cg
