#include "runtime/tiering.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "codegen/artifact_cache.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"

namespace dace::rt {

namespace {

/// Cache key: program fingerprint, the dtypes baked into the store casts,
/// and the compiler (so a failed build under one toolchain never shadows a
/// working one).
using CacheKey =
    std::tuple<uint64_t, std::vector<ir::DType>, std::string>;

struct Cache {
  std::mutex mu;
  std::map<CacheKey, std::shared_ptr<NativeProgram>> entries;
  // Negative cache on (program hash, compiler): once a build of a program
  // fails, no dtype specialization of it probes the compiler again -- a
  // broken toolchain is detected once and the program pinned to Tier 0,
  // instead of a retry storm of doomed builds.
  std::set<std::pair<uint64_t, std::string>> failed;
};

Cache& cache() {
  // Leaked: detached compile threads may still publish into it at exit.
  static Cache* c = new Cache();
  return *c;
}

void compile_into(std::shared_ptr<NativeProgram> native, Program prog,
                  std::vector<ir::DType> dtypes, std::string compiler) {
  char name[32];
  snprintf(name, sizeof(name), "dacepp_map_%016llx",
           (unsigned long long)prog.hash());
  obs::Span span("jit", "compile");
  cg::CompiledMapNative built =
      cg::compile_map_native(prog, dtypes, name, compiler);
  if (span.active()) {
    std::ostringstream a;
    a << "{\"program\":\"" << name
      << "\",\"ok\":" << (built.valid() ? "true" : "false") << "}";
    span.set_args(a.str());
  }
  METRIC_INC("dacepp_jit_compiles_total");
  if (built.valid()) {
    native->fn = built.fn();
    native->compile_seconds = built.compile_seconds();
    // The dlopen handle must outlive any thread that may still call fn;
    // native code is immortal by design (cache entries are never evicted).
    new cg::CompiledMapNative(std::move(built));
    native->state.store(NativeProgram::kReady, std::memory_order_release);
  } else {
    {
      Cache& c = cache();
      std::lock_guard<std::mutex> lock(c.mu);
      c.failed.insert({prog.hash(), compiler});
    }
    // Persist the verdict so the next process skips the doomed probe too
    // (TTL-bounded; a repaired toolchain is re-probed after expiry).
    cg::cache::ArtifactCache::instance().negative_store(
        prog.hash(), compiler, "tier1 build failed");
    native->state.store(NativeProgram::kFailed, std::memory_order_release);
    METRIC_INC("dacepp_jit_failures_total");
  }
}

}  // namespace

TierConfig TierConfig::from_env() {
  TierConfig cfg;
  cfg.enabled = env::flag("DACEPP_JIT", cfg.enabled);
  cfg.threshold = env::integer("DACEPP_JIT_THRESHOLD", cfg.threshold, 0);
  cfg.sync = env::flag("DACEPP_JIT_SYNC", cfg.sync);
  if (std::string cc = env::text("DACEPP_JIT_CC"); !cc.empty())
    cfg.compiler = cc;
  return cfg;
}

std::shared_ptr<NativeProgram> request_native(
    const Program& prog, const std::vector<ir::DType>& dtypes,
    const TierConfig& cfg) {
  CacheKey key{prog.hash(), dtypes, cfg.compiler};
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.entries.find(key);
    if (it != c.entries.end()) {
      OBS_INSTANT("jit", "cache-hit");
      METRIC_INC("dacepp_jit_cache_hits_total");
      return it->second;
    }
    if (c.failed.count({prog.hash(), cfg.compiler})) {
      // Negative-cache hit: a build of this program already failed under
      // this compiler.  Hand back an immediately-failed handle without
      // spawning another doomed build.
      auto dead = std::make_shared<NativeProgram>();
      dead->state.store(NativeProgram::kFailed, std::memory_order_release);
      c.entries.emplace(key, dead);
      OBS_INSTANT("jit", "negative-cache-hit");
      METRIC_INC("dacepp_jit_negative_hits_total");
      return dead;
    }
  }
  // In-memory miss: consult the persistent negative cache before paying
  // for a build -- a compiler known bad on this machine (within the TTL)
  // fails the request without forking the toolchain.
  if (cg::cache::ArtifactCache::instance().negative_lookup(prog.hash(),
                                                           cfg.compiler)) {
    std::lock_guard<std::mutex> lock(c.mu);
    c.failed.insert({prog.hash(), cfg.compiler});
    auto dead = std::make_shared<NativeProgram>();
    dead->state.store(NativeProgram::kFailed, std::memory_order_release);
    auto [it, inserted] = c.entries.emplace(key, dead);
    OBS_INSTANT("jit", "negative-cache-hit");
    METRIC_INC("dacepp_jit_negative_hits_total");
    return it->second;  // a racing compile may have won the slot; honor it
  }
  auto native = std::make_shared<NativeProgram>();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto [it, inserted] = c.entries.emplace(key, native);
    if (!inserted) return it->second;  // lost the race; use the winner
  }
  if (cfg.sync) {
    compile_into(native, prog, dtypes, cfg.compiler);
  } else {
    std::thread(compile_into, native, prog, dtypes, cfg.compiler).detach();
  }
  return native;
}

}  // namespace dace::rt
