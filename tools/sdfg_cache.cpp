// sdfg-cache: inspect and maintain the persistent JIT artifact cache
// (src/codegen/artifact_cache.*).
//
// Usage:
//   sdfg-cache [--dir PATH] [--json] ls        list artifacts
//   sdfg-cache [--dir PATH] [--json] stat      one-line store summary
//   sdfg-cache [--dir PATH] [--json] verify    checksum-verify every entry
//   sdfg-cache [--dir PATH] evict [MB]         LRU-evict to MB (default: budget)
//   sdfg-cache [--dir PATH] purge              drop artifacts and debris
//   sdfg-cache --selftest
//
// The tool operates on the same store the JIT uses: $DACE_CACHE_DIR (or
// the XDG default), overridable per-invocation with --dir.  `verify`
// re-reads every artifact and checks the versioned header, size and
// FNV-1a checksum -- the same predicate the JIT applies on load -- and
// exits 1 when any entry fails (the entries are left in place; the JIT
// deletes bad entries on sight, this tool only reports).  `purge` also
// collects build-scratch debris left behind by crashed processes, which
// is the recovery path for satellite crash-safety: debris is always
// collectable, never load-bearing.
//
// --selftest exercises the full protocol in a private temp directory
// (commit/lookup round-trip, corrupt-reject, LRU eviction order, purge)
// without touching the user's cache.
//
// Exit codes: 0 = ok, 1 = verify findings / selftest failure,
// 64 = usage error (including a malformed DACE_CACHE* setting).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/artifact_cache.hpp"
#include "common/metrics.hpp"

namespace fs = std::filesystem;
using dace::cg::cache::ArtifactCache;
using dace::cg::cache::CacheConfig;
using dace::cg::cache::EntryInfo;

namespace {

int usage() {
  std::cerr << "usage: sdfg-cache [--dir PATH] [--json] "
               "ls|stat|verify|evict [MB]|purge\n"
               "       sdfg-cache --selftest\n";
  return 64;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string human_bytes(int64_t n) {
  char buf[32];
  if (n >= (1 << 20)) {
    snprintf(buf, sizeof(buf), "%.1fM", double(n) / (1 << 20));
  } else if (n >= (1 << 10)) {
    snprintf(buf, sizeof(buf), "%.1fK", double(n) / (1 << 10));
  } else {
    snprintf(buf, sizeof(buf), "%lldB", (long long)n);
  }
  return buf;
}

void render_entry_json(std::ostream& os, const EntryInfo& e) {
  char ph[24];
  snprintf(ph, sizeof(ph), "%016llx", (unsigned long long)e.program_hash);
  os << "{\"key\":\"" << e.key << "\",\"program\":\"" << ph
     << "\",\"compiler\":\"" << json_escape(e.compiler) << "\",\"flags\":\""
     << json_escape(e.flags) << "\",\"dtypes\":\"" << json_escape(e.dtypes)
     << "\",\"size\":" << e.size << ",\"created\":" << e.created
     << ",\"last_used\":" << e.last_used
     << ",\"valid\":" << (e.valid ? "true" : "false");
  if (!e.valid) os << ",\"detail\":\"" << json_escape(e.detail) << "\"";
  os << "}";
}

int cmd_ls(ArtifactCache& cache, bool json, bool verify) {
  std::vector<EntryInfo> entries = cache.list(verify);
  int invalid = 0;
  for (const auto& e : entries) invalid += e.valid ? 0 : 1;
  if (json) {
    std::ostringstream os;
    os << "{\"dir\":\"" << json_escape(cache.dir()) << "\",\"entries\":[";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i) os << ",";
      render_entry_json(os, entries[i]);
    }
    os << "],\"total_bytes\":" << cache.total_bytes()
       << ",\"invalid\":" << invalid << "}";
    std::cout << os.str() << "\n";
  } else {
    std::cout << "cache dir: " << cache.dir() << "\n";
    if (entries.empty()) {
      std::cout << "(no artifacts)\n";
    } else {
      printf("%-16s  %8s  %-8s  %-30s  %s\n", "KEY", "SIZE", "COMPILER",
             "FLAGS", verify ? "VERIFY" : "DTYPES");
      for (const auto& e : entries) {
        printf("%-16s  %8s  %-8s  %-30s  %s\n", e.key.c_str(),
               human_bytes(e.size).c_str(), e.compiler.c_str(),
               e.flags.c_str(),
               verify ? (e.valid ? "ok" : ("BAD: " + e.detail).c_str())
                      : e.dtypes.c_str());
      }
    }
    std::cout << entries.size() << " artifact(s), "
              << human_bytes(cache.total_bytes()).c_str() << " total";
    if (verify && invalid) std::cout << ", " << invalid << " INVALID";
    std::cout << "\n";
  }
  return (verify && invalid) ? 1 : 0;
}

int cmd_stat(ArtifactCache& cache, bool json) {
  auto entries = cache.list(false);
  if (json) {
    std::cout << "{\"dir\":\"" << json_escape(cache.dir())
              << "\",\"enabled\":" << (cache.enabled() ? "true" : "false")
              << ",\"entries\":" << entries.size()
              << ",\"total_bytes\":" << cache.total_bytes()
              << ",\"limit_bytes\":" << cache.config().size_limit_bytes
              << ",\"lock_timeout_ms\":" << cache.config().lock_timeout_ms
              // Live registry counters (common/metrics.hpp), keyed by the
              // names the serve Metrics verb exposes, so scripts can
              // correlate without a trace file.
              << ",\"metrics\":{\"hits\":"
              << dace::metrics::counter("dacepp_cache_hits_total").value()
              << ",\"misses\":"
              << dace::metrics::counter("dacepp_cache_misses_total").value()
              << ",\"evictions\":"
              << dace::metrics::counter("dacepp_cache_evictions_total")
                     .value()
              << "}}\n";
  } else {
    std::cout << "dir:       " << cache.dir() << "\n"
              << "enabled:   " << (cache.enabled() ? "yes" : "no") << "\n"
              << "artifacts: " << entries.size() << " ("
              << human_bytes(cache.total_bytes()) << " of "
              << human_bytes(cache.config().size_limit_bytes) << " budget)\n";
  }
  return 0;
}

int cmd_evict(ArtifactCache& cache, const char* mb_arg) {
  int64_t target = -1;
  if (mb_arg) target = (int64_t)(std::atof(mb_arg) * (1 << 20));
  int64_t freed = cache.evict(target);
  std::cout << "evicted " << human_bytes(freed) << "; store now "
            << human_bytes(cache.total_bytes()) << "\n";
  return 0;
}

int cmd_purge(ArtifactCache& cache) {
  int stale = cache.collect_stale_build_dirs();
  cache.purge();
  std::cout << "purged (collected " << stale << " stale build dir(s))\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Selftest
// ---------------------------------------------------------------------------

#define ST_CHECK(cond)                                                        \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::cerr << "selftest FAILED at " << __LINE__ << ": " #cond "\n";      \
      return 1;                                                               \
    }                                                                         \
  } while (0)

std::string write_blob(const fs::path& p, const std::string& bytes) {
  std::ofstream f(p, std::ios::binary);
  f << bytes;
  return p.string();
}

int selftest() {
  char tmpl[] = "/tmp/sdfg-cache-selftest-XXXXXX";
  if (!mkdtemp(tmpl)) {
    std::cerr << "selftest: mkdtemp failed\n";
    return 1;
  }
  fs::path root(tmpl);
  CacheConfig cfg;
  cfg.enabled = true;
  cfg.dir = (root / "cache").string();
  cfg.size_limit_bytes = 1 << 20;
  cfg.lock_timeout_ms = 1000;
  ArtifactCache cache(cfg);
  ST_CHECK(cache.enabled());

  // Commit / lookup round-trip.
  ArtifactCache::KeyInfo ki;
  ki.program_hash = 0x1234;
  ki.compiler = "c++";
  ki.flags = "-O2";
  ki.dtypes = "float64";
  std::string key = ArtifactCache::key_for("int f(){return 1;}", ki);
  ST_CHECK(key.size() == 16);
  ST_CHECK(cache.lookup(key).empty());  // cold miss
  std::string so = write_blob(root / "a.so", std::string(4096, 'x'));
  std::string committed = cache.commit(key, so, ki);
  ST_CHECK(!committed.empty());
  ST_CHECK(cache.lookup(key) == committed);
  ST_CHECK(cache.list().size() == 1);
  ST_CHECK(cache.list(true)[0].valid);

  // Same source, different flags -> different key.
  ArtifactCache::KeyInfo ki2 = ki;
  ki2.flags = "-O3";
  ST_CHECK(ArtifactCache::key_for("int f(){return 1;}", ki2) != key);

  // Corrupt-reject: flip a committed byte; the next lookup must delete
  // the entry and miss.
  {
    std::fstream f(committed, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('!');
  }
  auto& corrupt = dace::metrics::counter("dacepp_cache_corrupt_total");
  uint64_t corrupt_before = corrupt.value();
  ST_CHECK(cache.lookup(key).empty());
  ST_CHECK(cache.list().empty());
  ST_CHECK(corrupt.value() > corrupt_before);

  // LRU eviction: three 4K artifacts, budget for ~two; the touched one
  // must survive.
  std::vector<std::string> keys;
  for (int i = 0; i < 3; ++i) {
    ArtifactCache::KeyInfo k = ki;
    k.program_hash = 0x9000 + i;
    std::string kk = ArtifactCache::key_for("src" + std::to_string(i), k);
    std::string blob =
        write_blob(root / ("b" + std::to_string(i) + ".so"),
                   std::string(4096, char('a' + i)));
    ST_CHECK(!cache.commit(kk, blob, k).empty());
    keys.push_back(kk);
  }
  ST_CHECK(cache.lookup(keys[0]).empty() == false);  // touch 0: now MRU
  int64_t freed = cache.evict(2 * 4096 + 1024);
  ST_CHECK(freed > 0);
  ST_CHECK(!cache.lookup(keys[0]).empty());  // recently used: kept
  ST_CHECK(cache.total_bytes() <= 2 * 4096 + 1024);

  // Build scratch: created under the cache, removable, gone after release.
  std::string bd = cache.make_build_dir();
  ST_CHECK(fs::exists(bd));
  cache.release_build_dir(bd);
  ST_CHECK(!fs::exists(bd));

  // Purge leaves an empty, still-functional store.
  cache.purge();
  ST_CHECK(cache.list().empty());
  ST_CHECK(cache.total_bytes() == 0);
  ST_CHECK(!cache.commit(key, write_blob(root / "c.so", "zz"), ki).empty());

  fs::remove_all(root);
  std::cout << "sdfg-cache selftest: all checks passed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string dir_override;
  std::string cmd;
  const char* cmd_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (a == "--json") {
      json = true;
    } else if (a == "--dir") {
      if (++i >= argc) return usage();
      dir_override = argv[i];
    } else if (a.rfind("--dir=", 0) == 0) {
      dir_override = a.substr(6);
    } else if (cmd.empty()) {
      cmd = a;
    } else if (!cmd_arg) {
      cmd_arg = argv[i];
    } else {
      return usage();
    }
  }
  if (cmd.empty()) return usage();

  std::optional<ArtifactCache> cache;
  try {
    CacheConfig cfg = CacheConfig::from_env();
    cfg.enabled = true;  // the CLI inspects the store even when the JIT opts out
    if (!dir_override.empty()) cfg.dir = dir_override;
    cache.emplace(cfg);
  } catch (const dace::Error& e) {  // a malformed DACE_CACHE* setting
    std::cerr << "sdfg-cache: " << e.what() << "\n";
    return 64;
  }
  if (!cache->enabled()) {
    std::cerr << "sdfg-cache: cannot open cache dir " << cache->config().dir
              << "\n";
    return 1;
  }

  if (cmd == "ls") return cmd_ls(*cache, json, false);
  if (cmd == "stat") return cmd_stat(*cache, json);
  if (cmd == "verify") return cmd_ls(*cache, json, true);
  if (cmd == "evict") return cmd_evict(*cache, cmd_arg);
  if (cmd == "purge") return cmd_purge(*cache);
  return usage();
}
