// Persistent JIT artifact cache tests (codegen/artifact_cache.*).
//
// Three layers:
//   Cache*       -- protocol unit tests against a private store: key
//                   derivation, commit/lookup round-trip, corrupt-reject,
//                   LRU eviction, negative TTL, scratch lifecycle,
//                   writer-lock fallback
//   CacheRace*   -- concurrency: two threads and two forked processes
//                   racing on one key must produce exactly one committed
//                   artifact that both sides load; a crashed writer's
//                   stale lock file must not wedge the key
//   CacheChaos*  -- the robustness core: seeded filesystem faults (torn
//                   write, rename failure, bit rot, ENOSPC, crash between
//                   object and metadata publish) injected under a real
//                   tiered jacobi_2d run; every fault must degrade to a
//                   correct result, never to a wrong answer or a crash.
//                   `ctest -L chaos` sweeps this suite across seeds via
//                   DACE_CACHE_FAULT_SEED.
#include <gtest/gtest.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.hpp"
#include "codegen/jit.hpp"
#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "runtime/tiering.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

namespace fs = std::filesystem;
using cg::cache::ArtifactCache;
using cg::cache::CacheConfig;
using cg::cache::FsFaultPlan;
using kernels::Kernel;
using rt::Bindings;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/dacepp-cache-test-XXXXXX";
  EXPECT_NE(mkdtemp(tmpl), nullptr);
  return tmpl;
}

std::string write_blob(const fs::path& p, const std::string& bytes) {
  std::ofstream f(p, std::ios::binary);
  f << bytes;
  return p.string();
}

/// A private store with small, deterministic limits.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = make_temp_dir();
    cfg_.enabled = true;
    cfg_.dir = root_ + "/store";
    cfg_.size_limit_bytes = 1 << 20;
    cfg_.negative_ttl_s = 3600;
    cfg_.lock_timeout_ms = 500;
    cache_ = std::make_unique<ArtifactCache>(cfg_);
  }
  void TearDown() override {
    cache_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  ArtifactCache::KeyInfo key_info(uint64_t hash = 0xabc) {
    ArtifactCache::KeyInfo ki;
    ki.program_hash = hash;
    ki.compiler = "c++";
    ki.flags = "-O2";
    ki.dtypes = "float64";
    return ki;
  }

  /// Commit a synthetic artifact; returns its key.
  std::string commit_blob(const std::string& source, uint64_t hash,
                          const std::string& bytes) {
    auto ki = key_info(hash);
    std::string key = ArtifactCache::key_for(source, ki);
    std::string so = write_blob(root_ + "/blob-" + key + ".so", bytes);
    EXPECT_FALSE(cache_->commit(key, so, ki).empty());
    return key;
  }

  std::string root_;
  CacheConfig cfg_;
  std::unique_ptr<ArtifactCache> cache_;
};

// ---------------------------------------------------------------------------
// Protocol unit tests
// ---------------------------------------------------------------------------

TEST_F(CacheTest, KeyDependsOnEveryInput) {
  auto ki = key_info();
  std::string base = ArtifactCache::key_for("src", ki);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(ArtifactCache::key_for("src", ki), base);  // deterministic

  EXPECT_NE(ArtifactCache::key_for("src2", ki), base);
  auto k2 = ki;
  k2.compiler = "clang++";
  EXPECT_NE(ArtifactCache::key_for("src", k2), base);
  k2 = ki;
  k2.flags = "-O3";
  EXPECT_NE(ArtifactCache::key_for("src", k2), base);
  k2 = ki;
  k2.dtypes = "float32";
  EXPECT_NE(ArtifactCache::key_for("src", k2), base);
  k2 = ki;
  k2.program_hash ^= 1;
  EXPECT_NE(ArtifactCache::key_for("src", k2), base);
}

TEST_F(CacheTest, CommitLookupRoundTrip) {
  auto ki = key_info();
  std::string key = ArtifactCache::key_for("src", ki);
  EXPECT_TRUE(cache_->lookup(key).empty());
  EXPECT_EQ(cache_->stats().misses, 1u);

  std::string so = write_blob(root_ + "/a.so", std::string(2048, 'x'));
  std::string committed = cache_->commit(key, so, ki);
  ASSERT_FALSE(committed.empty());
  EXPECT_NE(committed, so);  // lives in the store, not the scratch file

  EXPECT_EQ(cache_->lookup(key), committed);
  EXPECT_EQ(cache_->stats().hits, 1u);
  auto entries = cache_->list(true);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_EQ(entries[0].key, key);
  EXPECT_EQ(entries[0].size, 2048);
  EXPECT_EQ(entries[0].compiler, "c++");
  // Committing the same key again is idempotent.
  EXPECT_EQ(cache_->commit(key, so, ki), committed);
  EXPECT_EQ(cache_->list().size(), 1u);
}

TEST_F(CacheTest, CorruptArtifactRejectedAndDeleted) {
  std::string key = commit_blob("src", 0x1, std::string(2048, 'x'));
  std::string path = cache_->lookup(key);
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(77);
    f.put('!');
  }
  // The read-side defense: checksum mismatch -> delete-on-sight -> miss.
  EXPECT_TRUE(cache_->lookup(key).empty());
  EXPECT_GE(cache_->stats().corrupt_rejected, 1u);
  EXPECT_TRUE(cache_->list().empty());
}

TEST_F(CacheTest, TruncatedObjectRejected) {
  std::string key = commit_blob("src", 0x2, std::string(4096, 'y'));
  std::string path = cache_->lookup(key);
  fs::resize_file(path, 100);  // simulate a torn write that survived
  EXPECT_TRUE(cache_->lookup(key).empty());
  EXPECT_TRUE(cache_->list().empty());
}

TEST_F(CacheTest, MetaVersionMismatchRejected) {
  std::string key = commit_blob("src", 0x3, "artifact-bytes");
  // Rewrite the sidecar with a bumped format version: a future (or
  // corrupted) cache generation must read as a miss, not as garbage.
  std::string meta = cfg_.dir + "/objects/" + key + ".meta";
  ASSERT_TRUE(fs::exists(meta));
  write_blob(meta, "daceppcache 99\nkey " + key + "\n");
  EXPECT_TRUE(cache_->lookup(key).empty());
  EXPECT_TRUE(cache_->list().empty());
}

TEST_F(CacheTest, OrphanObjectWithoutMetaIsAMiss) {
  auto ki = key_info(0x4);
  std::string key = ArtifactCache::key_for("src", ki);
  // An object published without its sidecar (crash between the two
  // renames) must never be trusted.
  write_blob(cfg_.dir + "/objects/" + key + ".so", "half-published");
  EXPECT_TRUE(cache_->lookup(key).empty());
}

TEST_F(CacheTest, LruEvictionKeepsRecentlyUsed) {
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(commit_blob("src" + std::to_string(i), 0x100 + i,
                               std::string(4096, char('a' + i))));
  }
  // Touch entry 0 so it becomes most-recently-used.
  ASSERT_FALSE(cache_->lookup(keys[0]).empty());
  int64_t freed = cache_->evict(2 * 4096 + 512);
  EXPECT_GT(freed, 0);
  EXPECT_LE(cache_->total_bytes(), 2 * 4096 + 512);
  EXPECT_FALSE(cache_->lookup(keys[0]).empty()) << "MRU entry was evicted";
  EXPECT_GE(cache_->stats().evictions, 2u);
}

TEST_F(CacheTest, StaleOrphanMetaIsSwept) {
  // A kill between an eviction's object unlink and meta unlink leaves a
  // meta with no object.  lookup never probes that key again, so only
  // the debris sweep inside evict() can reclaim it -- once it is older
  // than the one-hour crash-debris horizon.
  std::string key = commit_blob("src", 0x9, std::string(4096, 'm'));
  fs::remove(cfg_.dir + "/objects/" + key + ".so");
  std::string meta = cfg_.dir + "/objects/" + key + ".meta";
  fs::last_write_time(meta,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));

  cache_->evict(cfg_.size_limit_bytes);
  EXPECT_FALSE(fs::exists(meta)) << "stale orphan meta survived the sweep";

  // A fresh orphan (a live writer could still be mid-flight) is kept.
  std::string key2 = commit_blob("src2", 0xa, std::string(4096, 'n'));
  fs::remove(cfg_.dir + "/objects/" + key2 + ".so");
  cache_->evict(cfg_.size_limit_bytes);
  EXPECT_TRUE(fs::exists(cfg_.dir + "/objects/" + key2 + ".meta"));
}

TEST_F(CacheTest, CommitEnforcesSizeBudget) {
  cfg_.size_limit_bytes = 3 * 4096;
  cache_ = std::make_unique<ArtifactCache>(cfg_);
  for (int i = 0; i < 6; ++i) {
    commit_blob("src" + std::to_string(i), 0x200 + i, std::string(4096, 'z'));
  }
  EXPECT_LE(cache_->total_bytes(), 3 * 4096);
}

TEST_F(CacheTest, NegativeCacheStoresAndExpires) {
  EXPECT_FALSE(cache_->negative_lookup(0xdead, "cc"));
  cache_->negative_store(0xdead, "cc", "exit 1");
  EXPECT_TRUE(cache_->negative_lookup(0xdead, "cc"));
  EXPECT_FALSE(cache_->negative_lookup(0xdead, "other-cc"));
  EXPECT_FALSE(cache_->negative_lookup(0xbeef, "cc"));
  ASSERT_EQ(cache_->list_negative().size(), 1u);
  EXPECT_EQ(cache_->list_negative()[0].compiler, "cc");

  // TTL < 0 makes every entry instantly stale: the next probe must
  // expire it (and remove the file, so the one after misses cheaply).
  cfg_.negative_ttl_s = -1;
  cache_ = std::make_unique<ArtifactCache>(cfg_);
  EXPECT_FALSE(cache_->negative_lookup(0xdead, "cc"));
  EXPECT_TRUE(cache_->list_negative().empty());
}

TEST_F(CacheTest, BuildScratchLifecycle) {
  std::string bd = cache_->make_build_dir();
  ASSERT_FALSE(bd.empty());
  EXPECT_TRUE(fs::exists(bd));
  EXPECT_EQ(bd.rfind(cfg_.dir, 0), 0u) << "scratch must live inside the store";
  write_blob(fs::path(bd) / "x.cpp", "int x;");
  cache_->release_build_dir(bd);
  EXPECT_FALSE(fs::exists(bd));

  // Debris from a dead process (pid 999999 does not exist) is stale and
  // collectable; our own live dirs are not.
  std::string mine = cache_->make_build_dir();
  fs::create_directories(cfg_.dir + "/build/999999.0");
  EXPECT_EQ(cache_->collect_stale_build_dirs(), 1);
  EXPECT_TRUE(fs::exists(mine));
  cache_->release_build_dir(mine);
}

TEST_F(CacheTest, PurgeLeavesWorkingStore) {
  commit_blob("src", 0x5, "bytes");
  cache_->negative_store(0x6, "cc", "x");
  fs::create_directories(cfg_.dir + "/build/999999.1");
  cache_->purge();
  EXPECT_TRUE(cache_->list().empty());
  EXPECT_TRUE(cache_->list_negative().empty());
  EXPECT_EQ(cache_->total_bytes(), 0);
  // And the store still accepts commits afterwards.
  EXPECT_FALSE(commit_blob("src2", 0x7, "bytes2").empty());
}

TEST_F(CacheTest, HeldWriterLockTimesOutGracefully) {
  auto ki = key_info(0x8);
  std::string key = ArtifactCache::key_for("src", ki);
  std::string lock = cfg_.dir + "/objects/" + key + ".lock";
  fs::create_directories(cfg_.dir + "/objects");
  int fd = open(lock.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(flock(fd, LOCK_EX), 0);
  // Another writer holds the key: commit must give up within the bound
  // and return "" -- the caller keeps its scratch object, nothing hangs.
  std::string so = write_blob(root_ + "/h.so", "bytes");
  EXPECT_TRUE(cache_->commit(key, so, ki).empty());
  EXPECT_GE(cache_->stats().fallbacks, 1u);
  flock(fd, LOCK_UN);
  close(fd);
  // Lock released: the same commit now succeeds.
  EXPECT_FALSE(cache_->commit(key, so, ki).empty());
}

TEST_F(CacheTest, DisabledCacheIsInert) {
  cfg_.enabled = false;
  cache_ = std::make_unique<ArtifactCache>(cfg_);
  EXPECT_FALSE(cache_->enabled());
  auto ki = key_info(0x9);
  std::string key = ArtifactCache::key_for("src", ki);
  std::string so = write_blob(root_ + "/d.so", "bytes");
  EXPECT_TRUE(cache_->commit(key, so, ki).empty());
  EXPECT_TRUE(cache_->lookup(key).empty());
  cache_->negative_store(0x9, "cc", "x");
  EXPECT_FALSE(cache_->negative_lookup(0x9, "cc"));
  // Scratch dirs still work (the JIT always needs somewhere to build).
  std::string bd = cache_->make_build_dir();
  ASSERT_FALSE(bd.empty());
  cache_->release_build_dir(bd);
}

TEST(CacheFaultPlan, ParseRoundTripAndDeterminism) {
  FsFaultPlan p = FsFaultPlan::parse("seed=7,torn=0.5,rename=0.25,crash=1");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.torn_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.rename_prob, 0.25);
  EXPECT_DOUBLE_EQ(p.crash_prob, 1.0);
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(FsFaultPlan{}.active());
  for (const char* bad : {"torn", "bogus=1", "torn=x", "torn=1e999",
                          "torn=0.5x", "crash=-0.5", "seed=abc"})
    EXPECT_THROW(FsFaultPlan::parse(bad), Error) << bad;
  // decide() is a pure function of (seed, op index).
  FsFaultPlan q = FsFaultPlan::parse(p.to_string());
  for (uint64_t i = 0; i < 200; ++i) EXPECT_EQ(p.decide(i), q.decide(i));
  // A different seed reshuffles the schedule.
  q.seed = 8;
  bool any_diff = false;
  for (uint64_t i = 0; i < 200 && !any_diff; ++i) {
    any_diff = p.decide(i) != q.decide(i);
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST_F(CacheTest, TwoThreadsRaceToOneArtifact) {
  auto ki = key_info(0x10);
  std::string key = ArtifactCache::key_for("src", ki);
  std::string bytes(8192, 'r');
  std::string soA = write_blob(root_ + "/ta.so", bytes);
  std::string soB = write_blob(root_ + "/tb.so", bytes);
  std::string gotA, gotB;
  std::thread a([&] { gotA = cache_->commit(key, soA, ki); });
  std::thread b([&] { gotB = cache_->commit(key, soB, ki); });
  a.join();
  b.join();
  ASSERT_FALSE(gotA.empty());
  ASSERT_FALSE(gotB.empty());
  EXPECT_EQ(gotA, gotB);  // both land on the single committed artifact
  EXPECT_EQ(cache_->list(true).size(), 1u);
  EXPECT_TRUE(cache_->list(true)[0].valid);
  EXPECT_EQ(cache_->lookup(key), gotA);
}

TEST_F(CacheTest, TwoProcessesRaceToOneArtifact) {
  auto ki = key_info(0x11);
  std::string key = ArtifactCache::key_for("src", ki);
  std::string bytes(8192, 'p');
  auto child = [&](const char* tag) {
    pid_t pid = fork();
    if (pid != 0) return pid;
    // Child: a fresh cache handle on the shared store, its own scratch
    // object, one commit + verified load.  Exit 0 only on full success.
    ArtifactCache c(cfg_);
    std::string so = write_blob(root_ + "/" + tag + ".so", bytes);
    std::string committed = c.commit(key, so, ki);
    bool ok = !committed.empty() && c.lookup(key) == committed;
    _exit(ok ? 0 : 1);
  };
  pid_t p1 = child("c1");
  pid_t p2 = child("c2");
  int st1 = -1, st2 = -1;
  ASSERT_EQ(waitpid(p1, &st1, 0), p1);
  ASSERT_EQ(waitpid(p2, &st2, 0), p2);
  EXPECT_EQ(st1, 0) << "child 1 failed to commit+load";
  EXPECT_EQ(st2, 0) << "child 2 failed to commit+load";
  EXPECT_EQ(cache_->list(true).size(), 1u);
  EXPECT_TRUE(cache_->list(true)[0].valid);
}

TEST_F(CacheTest, NegativeEntryPersistsAcrossProcesses) {
  pid_t pid = fork();
  if (pid == 0) {
    ArtifactCache c(cfg_);
    c.negative_store(0x12, "broken-cc", "probe failed");
    _exit(c.negative_lookup(0x12, "broken-cc") ? 0 : 1);
  }
  int st = -1;
  ASSERT_EQ(waitpid(pid, &st, 0), pid);
  ASSERT_EQ(st, 0);
  // A different process (us) sees the verdict without re-probing.
  EXPECT_TRUE(cache_->negative_lookup(0x12, "broken-cc"));
}

TEST_F(CacheTest, StaleLockFromCrashedWriterIsRecovered) {
  auto ki = key_info(0x13);
  std::string key = ArtifactCache::key_for("src", ki);
  // A writer that died mid-commit leaves its lock file (flock dies with
  // the process) and possibly a half-published object.  Simulate both.
  fs::create_directories(cfg_.dir + "/objects");
  write_blob(cfg_.dir + "/objects/" + key + ".lock", "");
  write_blob(cfg_.dir + "/objects/" + key + ".so", "orphan");
  // The next writer must take the lock immediately and publish cleanly.
  std::string so = write_blob(root_ + "/s.so", std::string(1024, 's'));
  std::string committed = cache_->commit(key, so, ki);
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(cache_->lookup(key), committed);
  auto entries = cache_->list(true);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_EQ(entries[0].size, 1024);
}

// ---------------------------------------------------------------------------
// End-to-end through the JIT
// ---------------------------------------------------------------------------

/// Singleton-backed fixture: points the process-wide cache at a private
/// store, and restores the ambient configuration afterwards.
class CacheJitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = make_temp_dir();
    guards_.push_back(std::make_unique<env::Override>("DACE_CACHE", "1"));
    guards_.push_back(std::make_unique<env::Override>(
        "DACE_CACHE_DIR", (root_ + "/store").c_str()));
    ArtifactCache::reset_for_testing();
  }
  void TearDown() override {
    cg::cache::set_fault_plan(FsFaultPlan{});
    guards_.clear();
    ArtifactCache::reset_for_testing();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string root_;
  std::vector<std::unique_ptr<env::Override>> guards_;
};

TEST_F(CacheJitTest, BuildAndLoadCommitsThenHits) {
  const std::string src =
      "extern \"C\" double dacepp_cache_fn(double x) { return x * 3.0; }\n";
  auto cold = cg::detail::build_and_load(src, "t", "dacepp_cache_fn", "c++");
  if (!cold.sym) GTEST_SKIP() << "no host compiler available";
  EXPECT_FALSE(cold.cache_hit);
  auto& cache = ArtifactCache::instance();
  EXPECT_EQ(cache.stats().commits, 1u);
  EXPECT_EQ(cache.list(true).size(), 1u);

  auto warm = cg::detail::build_and_load(src, "t", "dacepp_cache_fn", "c++");
  ASSERT_NE(warm.sym, nullptr);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GT(warm.compile_seconds, 0.0);  // load latency, not compiler time
  EXPECT_EQ(cache.stats().commits, 1u);  // no second publish
  using Fn = double (*)(double);
  EXPECT_EQ(reinterpret_cast<Fn>(warm.sym)(2.0), 6.0);
  // No scratch debris: the store's build/ area is empty again.
  int files = 0;
  for (auto it = fs::recursive_directory_iterator(root_ + "/store/build");
       it != fs::recursive_directory_iterator(); ++it) {
    ++files;
  }
  EXPECT_EQ(files, 0);
}

TEST_F(CacheJitTest, DisabledCacheStillBuilds) {
  guards_.push_back(std::make_unique<env::Override>("DACE_CACHE", "0"));
  ArtifactCache::reset_for_testing();
  const std::string src =
      "extern \"C\" double dacepp_cache_off(double x) { return x + 1.0; }\n";
  auto obj = cg::detail::build_and_load(src, "t", "dacepp_cache_off", "c++");
  if (!obj.sym) GTEST_SKIP() << "no host compiler available";
  EXPECT_FALSE(obj.cache_hit);
  // The store (created while the cache was briefly enabled in SetUp)
  // must not have gained any artifact.
  int entries = 0;
  if (fs::exists(root_ + "/store/objects")) {
    for (auto it = fs::directory_iterator(root_ + "/store/objects");
         it != fs::directory_iterator(); ++it) {
      ++entries;
    }
  }
  EXPECT_EQ(entries, 0) << "disabled cache must not commit artifacts";
}

// ---------------------------------------------------------------------------
// Chaos: injected filesystem faults under a real tiered run
// ---------------------------------------------------------------------------

/// Every fault spec runs jacobi_2d through synchronous Tier-1 promotion
/// with the shim armed.  The acceptance bar (ISSUE 8): zero wrong
/// answers, zero crashes -- every fault degrades to the scratch build or
/// a rebuild.  DACE_CACHE_FAULT_SEED (set by the ctest chaos sweep)
/// reshuffles each schedule.
class CacheChaos : public CacheJitTest,
                   public ::testing::WithParamInterface<const char*> {};

TEST_P(CacheChaos, InjectedFaultDegradesToCorrectRun) {
  uint64_t seed = env::integer("DACE_CACHE_FAULT_SEED", 1, 0);
  FsFaultPlan plan = FsFaultPlan::parse(GetParam());
  plan.seed = seed;
  cg::cache::set_fault_plan(plan);
  uint64_t faults_before = cg::cache::faults_injected();

  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override sync("DACEPP_JIT_SYNC", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  Bindings b = k.init(sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);
  for (const auto& out : k.outputs) {
    EXPECT_TRUE(rt::allclose(b.at(out), ref.at(out), 1e-9, 1e-11))
        << "output '" << out << "' diverges under fault plan '" << GetParam()
        << "' seed " << seed;
  }

  // Drive the build pipeline directly on a fresh key as well: when every
  // chaos param runs in one gtest process, the in-memory tier cache
  // already holds jacobi_2d after the first param and the executor run
  // above never reaches the JIT.  A unique source per (param, seed)
  // guarantees cache traffic under the armed shim.
  std::string fn = "chaos_probe";
  for (char c : std::string(GetParam()) + std::to_string(seed)) {
    if (isalnum(static_cast<unsigned char>(c))) fn += c;
  }
  std::string src = "extern \"C\" double " + fn + "(double x) { return x; }\n";
  auto obj = cg::detail::build_and_load(src, fn, fn, "c++");
  EXPECT_NE(obj.sym, nullptr)
      << "injected cache fault broke the build pipeline itself";

  // With probability-1 plans the shim provably fired; mixed plans may
  // legitimately draw no fault on a short schedule.
  if (std::string(GetParam()).find("=1") != std::string::npos) {
    EXPECT_GT(cg::cache::faults_injected(), faults_before)
        << "fault shim never engaged -- the chaos run tested nothing";
  }

  // Heal the filesystem: a fresh run must still be correct (and may now
  // commit/load cleanly).
  cg::cache::set_fault_plan(FsFaultPlan{});
  Bindings b2 = k.init(sizes);
  rt::Executor ex2(*sdfg);
  ex2.run(b2, sizes);
  for (const auto& out : k.outputs) {
    EXPECT_TRUE(rt::allclose(b2.at(out), ref.at(out), 1e-9, 1e-11));
  }

  // Whatever the fault left behind, maintenance must cope: verification
  // never crashes, purge leaves an empty store.
  auto& cache = ArtifactCache::instance();
  cache.list(true);
  cache.collect_stale_build_dirs();
  cache.purge();
  EXPECT_TRUE(cache.list().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Faults, CacheChaos,
    ::testing::Values("torn=1", "rename=1", "corrupt=1", "enospc=1", "crash=1",
                      "torn=0.4,rename=0.3,corrupt=0.3,enospc=0.3,crash=0.2"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dace
