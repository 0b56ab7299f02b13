// Persistent, content-addressed JIT artifact cache (ROADMAP item 2: the
// on-disk half of the sdfg-serve architecture).
//
// Every shared object the JIT pipeline builds (codegen/jit.cpp) is keyed
// by the *content* that produced it -- generated source text, Program
// fingerprint, compiler identity and flag set, all folded into one
// 64-bit address -- and committed to an on-disk store that survives
// process restarts.  A warm process dlopens a verified artifact instead
// of re-running the host compiler, turning multi-hundred-millisecond
// Tier-1 promotions into sub-millisecond loads.
//
// Crash-safety protocol (docs/CACHE.md):
//   - artifacts are written to a per-process temp name, fsync'd, then
//     atomically rename(2)-committed; readers never observe a partial
//     object file
//   - each artifact carries a sidecar metadata record with a versioned
//     header, its byte size and an FNV-1a content checksum; loads verify
//     all three and *reject-and-delete* on any mismatch, so a torn
//     write, bit rot, or a format change degrades to a cache miss, never
//     to loading garbage
//   - cross-process writers serialize on a per-key flock(2) lock file;
//     locks die with their owner, so a crashed writer never wedges the
//     key (stale lock files are plain debris)
//   - ENOSPC/EIO and every other filesystem failure is contained: the
//     caller falls back to the freshly built in-memory object, so a
//     broken cache only ever costs speed, never correctness
//
// The negative cache (a known-bad compiler, tiering.cpp) persists here
// too, with a TTL, so a broken toolchain is probed once per machine
// rather than once per process.
//
// The fault-injection shim at the bottom mirrors distributed/faults.*:
// a seeded, deterministic schedule of filesystem faults (torn writes,
// rename failure, post-commit corruption, ENOSPC, crash-before-publish)
// driven through the `ctest -L chaos` cache sweep.  Determinism makes
// every chaos finding reproducible from its seed alone.
//
// Env knobs (numba-dpex-style config surface, docs/CACHE.md):
//   DACE_CACHE=0                 disable entirely (escape hatch)
//   DACE_CACHE_DIR=path          cache root (default $XDG_CACHE_HOME/dacepp,
//                                $HOME/.cache/dacepp, /tmp/dacepp-cache-UID)
//   DACE_CACHE_SIZE_MB=N         LRU size bound (default 512; fractional ok)
//   DACE_CACHE_NEG_TTL_S=N       negative-entry lifetime (default 86400)
//   DACE_CACHE_LOCK_TIMEOUT_MS=N writer-lock wait bound (default 5000)
//   DACE_CACHE_FAULTS=spec       fault plan, e.g. "seed=3,torn=0.5"
//   DACE_CACHE_FAULT_SEED=N      seed override (chaos sweeps)
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace dace::cg::cache {

// ---------------------------------------------------------------------------
// Fault injection (the chaos shim; style of distributed/faults.*)
// ---------------------------------------------------------------------------

enum class FsFault {
  None = 0,
  TornWrite,   // a file write persists only a prefix (simulated crash mid-write)
  RenameFail,  // the commit rename fails with EIO
  Corrupt,     // a committed artifact's bytes are flipped (bit rot)
  NoSpace,     // a file write fails with ENOSPC
  CrashCommit, // writer "dies" after publishing the object but before its
               // metadata: leaves debris + a stale lock file behind
};

const char* fs_fault_name(FsFault k);

/// Seeded deterministic filesystem fault schedule.  decide() is a pure
/// function of (seed, op index): the same plan over the same operation
/// sequence injects the same faults.
struct FsFaultPlan {
  uint64_t seed = 0;
  double torn_prob = 0;
  double rename_prob = 0;
  double corrupt_prob = 0;
  double enospc_prob = 0;
  double crash_prob = 0;

  bool active() const;
  FsFault decide(uint64_t op_index) const;

  /// Canonical "key=value,..." spec (inverse of parse); "" when inactive.
  std::string to_string() const;
  /// Parse "seed=3,torn=0.5,rename=0.1,corrupt=1,enospc=0.2,crash=0.1".
  static FsFaultPlan parse(const std::string& spec);
  /// DACE_CACHE_FAULTS (spec) with DACE_CACHE_FAULT_SEED overriding seed.
  static FsFaultPlan from_env();
};

/// Install a plan process-wide (tests; from_env() is installed at cache
/// construction).  Passing a default-constructed plan disarms the shim.
void set_fault_plan(const FsFaultPlan& plan);
const FsFaultPlan& fault_plan();
/// Faults injected since process start (monotonic; test assertions).
uint64_t faults_injected();

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

struct CacheConfig {
  bool enabled = true;
  std::string dir;                         // resolved cache root
  int64_t size_limit_bytes = 512ll << 20;  // LRU budget for objects/
  int64_t negative_ttl_s = 86400;          // negative-entry lifetime
  int lock_timeout_ms = 5000;              // writer-lock wait bound

  static CacheConfig from_env();
};

/// Process-local cache activity counters (obs:: mirrors these as trace
/// instants under cat "cache" for sdfg-prof).
struct CacheStats {
  uint64_t hits = 0;            // verified artifact loads
  uint64_t misses = 0;          // key not present
  uint64_t commits = 0;         // artifacts published
  uint64_t corrupt_rejected = 0;  // checksum/header mismatches deleted
  uint64_t evictions = 0;       // LRU entries removed
  uint64_t neg_hits = 0;        // persistent negative-cache hits
  uint64_t neg_stores = 0;      // negative entries written
  uint64_t fallbacks = 0;       // cache errors degraded to in-memory path
};

/// One on-disk entry, as reported by list()/the sdfg-cache CLI.
struct EntryInfo {
  std::string key;        // 16-hex content address
  uint64_t program_hash = 0;
  std::string compiler;
  std::string flags;
  std::string dtypes;     // comma-joined dtype names ("" for whole-SDFG)
  int64_t size = 0;       // artifact bytes
  int64_t created = 0;    // unix seconds at commit
  int64_t last_used = 0;  // unix seconds at last verified load (LRU clock)
  bool valid = true;      // verify result (list(verify=true) / CLI verify)
  std::string detail;     // reason when !valid
};

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

class ArtifactCache {
 public:
  explicit ArtifactCache(CacheConfig cfg);

  /// Env-configured process singleton (leaked; detached JIT threads may
  /// publish during shutdown).
  static ArtifactCache& instance();
  /// Rebuild the singleton from the current environment (tests flip
  /// DACE_CACHE_* between cases).  The old instance leaks by design.
  static void reset_for_testing();

  bool enabled() const { return cfg_.enabled && !dir_failed_; }
  const CacheConfig& config() const { return cfg_; }
  const std::string& dir() const { return cfg_.dir; }
  CacheStats stats() const;

  /// Everything that distinguishes one build product from another.
  /// dtypes/kernel-plan/absint decisions are already baked into `source`
  /// (and program_hash); they ride along as self-describing metadata.
  struct KeyInfo {
    uint64_t program_hash = 0;
    std::string compiler;
    std::string flags;
    std::string dtypes;
  };

  /// Content address: 16-hex digest of (format version, source text,
  /// program hash, compiler, flags).
  static std::string key_for(const std::string& source, const KeyInfo& ki);

  /// Probe for a committed artifact.  Returns the path of a *verified*
  /// shared object (header + size + checksum checked this call), or ""
  /// on miss.  Corrupt entries are deleted and reported as misses.
  std::string lookup(const std::string& key);

  /// Publish `built_so` (a finished object file) under `key` using the
  /// write-temp + fsync + rename-commit protocol, holding the key lock.
  /// Returns the committed artifact path, the already-committed path if
  /// another writer won the race, or "" when the cache could not take
  /// the artifact (lock timeout, ENOSPC, injected fault); the caller
  /// keeps using `built_so`.
  std::string commit(const std::string& key, const std::string& built_so,
                     const KeyInfo& ki);

  /// Drop one entry (artifact + metadata).  True if anything was removed.
  bool invalidate(const std::string& key);

  // -- persistent negative cache -------------------------------------------
  /// True if (program_hash, compiler) failed to build within the TTL.
  bool negative_lookup(uint64_t program_hash, const std::string& compiler);
  /// Record a failed build; `detail` is kept for sdfg-cache ls --json.
  void negative_store(uint64_t program_hash, const std::string& compiler,
                      const std::string& detail);

  // -- build scratch space ---------------------------------------------------
  /// Fresh scratch dir under <dir>/build (falls back to /tmp when the
  /// cache is disabled).  Every dir is tracked and removed at process
  /// exit; callers should release_build_dir() as soon as the artifact is
  /// loaded so crash debris is the exception, not the rule.
  std::string make_build_dir();
  /// Remove one scratch dir now (no-op if already gone).
  void release_build_dir(const std::string& path);
  /// Remove scratch dirs left by processes that no longer exist.
  /// Returns the number of dirs collected (sdfg-cache purge / cache init).
  int collect_stale_build_dirs();

  // -- maintenance (sdfg-cache CLI) ----------------------------------------
  std::vector<EntryInfo> list(bool verify = false);
  /// Negative entries: (key-hex, compiler, age seconds, expired).
  struct NegativeInfo {
    std::string key;
    std::string compiler;
    std::string detail;
    int64_t age_s = 0;
    bool expired = false;
  };
  std::vector<NegativeInfo> list_negative();
  int64_t total_bytes();
  /// Evict least-recently-used artifacts until the store fits in
  /// `target_bytes` (<0: the configured budget).  Returns bytes freed.
  int64_t evict(int64_t target_bytes = -1);
  /// Remove all artifacts, negative entries and build debris.
  void purge();

  /// Parsed sidecar metadata record (implementation + CLI use).
  struct Meta;

 private:
  bool read_meta(const std::string& path, Meta* out, std::string* why) const;
  bool verify_entry(const std::string& key, std::string* why) const;
  std::string object_path(const std::string& key) const;
  std::string meta_path(const std::string& key) const;
  std::string lock_path(const std::string& key) const;
  std::string negative_path(uint64_t program_hash,
                            const std::string& compiler) const;
  void count(uint64_t CacheStats::*field) const;

  CacheConfig cfg_;
  bool dir_failed_ = false;  // cache root could not be created: disabled
  mutable std::mutex mu_;    // guards stats_
  mutable CacheStats stats_;
};

/// FNV-1a 64 (common/common.hpp), kept reachable as cg::cache::fnv1a.
using dace::fnv1a;

}  // namespace dace::cg::cache
