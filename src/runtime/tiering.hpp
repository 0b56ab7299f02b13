// Tier-1 promotion machinery for the tiered map executor.
//
// The Executor counts iterations per compiled map program; once a program
// crosses the promotion threshold it requests a native entry point here.
// The request builds on the calling thread, so the launch that crosses the
// threshold waits for its build and then runs native code.  Entry points
// are cached process-wide, keyed by the program's instruction-stream hash,
// the bound array dtypes and the compiler, so re-runs and structurally
// identical scopes share one compilation; a thread that asks for a key
// another thread is building waits for that build.
//
// Missing or broken host compilers degrade silently: the request returns
// nullptr and the executor keeps the program on Tier 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/jit.hpp"
#include "runtime/bytecode.hpp"

namespace dace::rt {

/// Tier-1 policy, read from the environment once per Executor:
///   DACEPP_JIT=0            disable the native tier entirely
///   DACEPP_JIT_THRESHOLD=N  promote after N cumulative map iterations
///   DACEPP_JIT_CC=path      host compiler override (also used by tests to
///                           simulate a missing compiler)
struct TierConfig {
  bool enabled = true;
  int64_t threshold = 2000000;
  std::string compiler = "c++";

  static TierConfig from_env();
};

/// Native entry point of `prog` bound to `dtypes`.  The first request for
/// a build key runs the host compiler on the calling thread; concurrent
/// requests for the same key wait for it, later ones hit the cache.
/// Returns nullptr when the build failed, or when a build of `prog` with
/// this compiler already failed in this process.
cg::MapNativeFn request_native(const Program& prog,
                               const std::vector<ir::DType>& dtypes,
                               const TierConfig& cfg);

}  // namespace dace::rt
