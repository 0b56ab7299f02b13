#include "runtime/tiering.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>

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

/// One build key's result.  `once` runs the build; the loaded object is
/// owned here and never closed (cache entries are never evicted).
struct Entry {
  std::once_flag once;
  cg::CompiledMapNative native;  // invalid when the build failed or was skipped
};

struct Cache {
  std::mutex mu;
  std::map<CacheKey, Entry> entries;  // node-based: entries never move
  // Negative cache on (program hash, compiler), for the life of the
  // process: once a build of a program fails, no dtype specialization of
  // it probes the compiler again -- a broken toolchain is detected once
  // and the program pinned to Tier 0, instead of a retry storm of doomed
  // builds.
  std::set<std::pair<uint64_t, std::string>> failed;
};

Cache& cache() {
  // Leaked: entries own native code that threads still running at exit
  // (sdfg-serve's abandoned job threads) may be calling.
  static Cache* c = new Cache();
  return *c;
}

void build(Entry& entry, const Program& prog,
           const std::vector<ir::DType>& dtypes, const std::string& compiler) {
  Cache& c = cache();
  std::pair<uint64_t, std::string> pk{prog.hash(), compiler};
  bool known_bad;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    known_bad = c.failed.count(pk) > 0;
  }
  if (known_bad) {
    OBS_INSTANT("jit", "negative-cache-hit");
    METRIC_INC("dacepp_jit_negative_hits_total");
    return;
  }

  char name[32];
  snprintf(name, sizeof(name), "dacepp_map_%016llx",
           (unsigned long long)prog.hash());
  obs::Span span("jit", "compile");
  entry.native = cg::compile_map_native(prog, dtypes, name, compiler);
  bool ok = entry.native.valid();
  if (span.active()) {
    std::ostringstream a;
    a << "{\"program\":\"" << name << "\",\"ok\":" << (ok ? "true" : "false")
      << "}";
    span.set_args(a.str());
  }
  METRIC_INC("dacepp_jit_compiles_total");
  if (ok) return;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    c.failed.insert(pk);
  }
  METRIC_INC("dacepp_jit_failures_total");
}

}  // namespace

TierConfig TierConfig::from_env() {
  TierConfig cfg;
  cfg.enabled = env::flag("DACEPP_JIT", cfg.enabled);
  cfg.threshold = env::integer("DACEPP_JIT_THRESHOLD", cfg.threshold, 0);
  if (std::string cc = env::text("DACEPP_JIT_CC"); !cc.empty())
    cfg.compiler = cc;
  return cfg;
}

cg::MapNativeFn request_native(const Program& prog,
                               const std::vector<ir::DType>& dtypes,
                               const TierConfig& cfg) {
  Cache& c = cache();
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto [it, inserted] =
        c.entries.try_emplace(CacheKey{prog.hash(), dtypes, cfg.compiler});
    entry = &it->second;
    if (!inserted) {
      OBS_INSTANT("jit", "cache-hit");
      METRIC_INC("dacepp_jit_cache_hits_total");
    }
  }
  std::call_once(entry->once,
                 [&] { build(*entry, prog, dtypes, cfg.compiler); });
  return entry->native.valid() ? entry->native.fn() : nullptr;
}

}  // namespace dace::rt
