#include "codegen/artifact_cache.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"

namespace fs = std::filesystem;

namespace dace::cg::cache {

namespace {

/// On-disk format generation: folded into every key and written into
/// every metadata header, so a layout change invalidates old entries
/// instead of misreading them.
constexpr int kFormatVersion = 1;
constexpr const char* kMetaMagic = "daceppcache";
constexpr const char* kNegMagic = "daceppneg";

std::string hex64(uint64_t v) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

bool parse_hex64(const std::string& s, uint64_t* out) {
  if (s.size() != 16) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s.c_str(), &end, 16);
  return errno == 0 && end == s.c_str() + 16;
}

int64_t unix_now() {
  return (int64_t)std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// -- fault shim state --------------------------------------------------------

std::mutex g_fault_mu;
FsFaultPlan g_fault_plan;
std::atomic<uint64_t> g_fault_op{0};
std::atomic<uint64_t> g_faults_injected{0};

/// Draw the next fault decision and record an injection if one fired.
FsFault next_fault() {
  FsFaultPlan plan;
  {
    std::lock_guard<std::mutex> lk(g_fault_mu);
    plan = g_fault_plan;
  }
  FsFault f = plan.decide(g_fault_op.fetch_add(1, std::memory_order_relaxed));
  if (f != FsFault::None) {
    g_faults_injected.fetch_add(1, std::memory_order_relaxed);
    METRIC_INC("dacepp_cache_faults_injected_total");
    OBS_INSTANT("cache", "fault",
                std::string("{\"kind\":\"") + fs_fault_name(f) + "\"}");
  }
  return f;
}

// -- low-level file ops (every write-path call consults the shim) ------------

void fsync_parent_dir(const std::string& path) {
  std::string dir = fs::path(path).parent_path().string();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Write + fsync `data` to `path`.  Injected TornWrite persists only a
/// prefix while *reporting success* (the crash-after-publish case the
/// read-side checksum exists for); injected NoSpace fails like ENOSPC.
bool fi_write_file(const std::string& path, const std::string& data,
                   std::string* why) {
  FsFault f = next_fault();
  if (f == FsFault::NoSpace) {
    *why = "write failed: No space left on device (injected)";
    return false;
  }
  size_t n = data.size();
  if (f == FsFault::TornWrite) n = n / 2;  // silent partial persist
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *why = std::string("open failed: ") + std::strerror(errno);
    return false;
  }
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data.data() + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      *why = std::string("write failed: ") + std::strerror(errno);
      ::close(fd);
      ::unlink(path.c_str());
      return false;
    }
    off += (size_t)w;
  }
  ::fsync(fd);
  ::close(fd);
  return true;
}

bool fi_rename(const std::string& from, const std::string& to,
               std::string* why) {
  if (next_fault() == FsFault::RenameFail) {
    *why = "rename failed: Input/output error (injected)";
    return false;
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    *why = std::string("rename failed: ") + std::strerror(errno);
    return false;
  }
  fsync_parent_dir(to);
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  ssize_t r;
  while ((r = ::read(fd, buf, sizeof(buf))) > 0) out->append(buf, (size_t)r);
  ::close(fd);
  return r == 0;
}

/// flock(2)-based per-key writer lock.  Locks die with their owner, so a
/// crashed writer leaves only a harmless lock *file* behind.
class KeyLock {
 public:
  bool acquire(const std::string& path, int timeout_ms) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) return false;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      if (errno != EWOULDBLOCK && errno != EINTR) {
        ::close(fd_);
        fd_ = -1;
        return false;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::close(fd_);
        fd_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }
  ~KeyLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }

 private:
  int fd_ = -1;
};

// -- build scratch registry (shared across reset_for_testing instances) ------

std::mutex g_scratch_mu;
std::vector<std::string>& scratch_dirs() {
  static std::vector<std::string>* v = new std::vector<std::string>();
  return *v;
}

void cleanup_scratch_at_exit() {
  std::lock_guard<std::mutex> lk(g_scratch_mu);
  std::error_code ec;
  for (const std::string& d : scratch_dirs()) fs::remove_all(d, ec);
  scratch_dirs().clear();
}

void register_scratch(const std::string& dir) {
  std::lock_guard<std::mutex> lk(g_scratch_mu);
  static bool registered = [] {
    std::atexit(cleanup_scratch_at_exit);
    return true;
  }();
  (void)registered;
  scratch_dirs().push_back(dir);
}

void unregister_scratch(const std::string& dir) {
  std::lock_guard<std::mutex> lk(g_scratch_mu);
  auto& v = scratch_dirs();
  v.erase(std::remove(v.begin(), v.end(), dir), v.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

const char* fs_fault_name(FsFault k) {
  switch (k) {
    case FsFault::None: return "none";
    case FsFault::TornWrite: return "torn";
    case FsFault::RenameFail: return "rename";
    case FsFault::Corrupt: return "corrupt";
    case FsFault::NoSpace: return "enospc";
    case FsFault::CrashCommit: return "crash";
  }
  return "?";
}

namespace {

constexpr env::SpecField<FsFaultPlan> kFields[] = {
    {"seed", env::SpecKind::Seed, &FsFaultPlan::seed},
    {"torn", env::SpecKind::Probability, &FsFaultPlan::torn_prob},
    {"rename", env::SpecKind::Probability, &FsFaultPlan::rename_prob},
    {"corrupt", env::SpecKind::Probability, &FsFaultPlan::corrupt_prob},
    {"enospc", env::SpecKind::Probability, &FsFaultPlan::enospc_prob},
    {"crash", env::SpecKind::Probability, &FsFaultPlan::crash_prob},
};
constexpr env::Spec<FsFaultPlan> kSpec("cache fault plan", kFields);

}  // namespace

bool FsFaultPlan::active() const { return kSpec.active(*this); }

FsFault FsFaultPlan::decide(uint64_t op_index) const {
  if (!active()) return FsFault::None;
  // kFields lists the probabilities in FsFault's order.
  return (FsFault)kSpec.pick(
      *this, fault_draw(seed, {op_index, 0xcafef00dd15ea5e5ULL}));
}

std::string FsFaultPlan::to_string() const { return kSpec.to_string(*this); }

FsFaultPlan FsFaultPlan::parse(const std::string& spec) {
  return kSpec.parse(spec);
}

FsFaultPlan FsFaultPlan::from_env() {
  return kSpec.from_env("DACE_CACHE_FAULTS", "DACE_CACHE_FAULT_SEED");
}

void set_fault_plan(const FsFaultPlan& plan) {
  std::lock_guard<std::mutex> lk(g_fault_mu);
  g_fault_plan = plan;
}

uint64_t faults_injected() {
  return g_faults_injected.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

CacheConfig CacheConfig::from_env() {
  CacheConfig cfg;
  cfg.enabled = env::flag("DACE_CACHE", true);
  if (std::string d = env::text("DACE_CACHE_DIR"); !d.empty()) {
    cfg.dir = d;
  } else if (std::string x = env::text("XDG_CACHE_HOME"); !x.empty()) {
    cfg.dir = x + "/dacepp";
  } else if (std::string h = env::text("HOME"); !h.empty()) {
    cfg.dir = h + "/.cache/dacepp";
  } else {
    cfg.dir = "/tmp/dacepp-cache-" + std::to_string((long)getuid());
  }
  // Bounded so the byte count fits an int64_t.
  double mb = env::number("DACE_CACHE_SIZE_MB",
                          cfg.size_limit_bytes / 1048576.0, 0,
                          (double)(INT64_MAX >> 20));
  cfg.size_limit_bytes = (int64_t)(mb * 1048576.0);
  return cfg;
}

// ---------------------------------------------------------------------------
// Metadata records
// ---------------------------------------------------------------------------

struct ArtifactCache::Meta {
  std::string key;
  uint64_t program_hash = 0;
  std::string compiler;
  std::string flags;
  std::string dtypes;
  int64_t size = 0;
  uint64_t checksum = 0;
  int64_t created = 0;
};

namespace {

std::string render_meta(const ArtifactCache::Meta& m);

/// One "tag value..." line; the value may contain spaces (flags do).
bool take_line(std::istringstream& is, const char* tag, std::string* val) {
  std::string line;
  if (!std::getline(is, line)) return false;
  size_t sp = line.find(' ');
  if (sp == std::string::npos || line.substr(0, sp) != tag) return false;
  *val = line.substr(sp + 1);
  return true;
}

}  // namespace

bool ArtifactCache::read_meta(const std::string& path, Meta* out,
                              std::string* why) const {
  std::string text;
  if (!read_file(path, &text)) {
    *why = "metadata unreadable";
    return false;
  }
  std::istringstream is(text);
  std::string v;
  if (!take_line(is, kMetaMagic, &v) ||
      v != std::to_string(kFormatVersion)) {
    *why = "bad header/version";
    return false;
  }
  if (!take_line(is, "key", &out->key)) { *why = "missing key"; return false; }
  uint64_t ph = 0;
  if (!take_line(is, "program", &v) || !parse_hex64(v, &ph)) {
    *why = "bad program hash";
    return false;
  }
  out->program_hash = ph;
  if (!take_line(is, "compiler", &out->compiler) ||
      !take_line(is, "flags", &out->flags) ||
      !take_line(is, "dtypes", &out->dtypes)) {
    *why = "missing build identity";
    return false;
  }
  if (!take_line(is, "size", &v)) { *why = "missing size"; return false; }
  out->size = std::atoll(v.c_str());
  if (!take_line(is, "checksum", &v) || !parse_hex64(v, &out->checksum)) {
    *why = "bad checksum field";
    return false;
  }
  if (!take_line(is, "created", &v)) { *why = "missing created"; return false; }
  out->created = std::atoll(v.c_str());
  return true;
}

namespace {

std::string render_meta(const ArtifactCache::Meta& m) {
  std::ostringstream os;
  os << kMetaMagic << ' ' << kFormatVersion << '\n'
     << "key " << m.key << '\n'
     << "program " << hex64(m.program_hash) << '\n'
     << "compiler " << m.compiler << '\n'
     << "flags " << m.flags << '\n'
     << "dtypes " << m.dtypes << '\n'
     << "size " << m.size << '\n'
     << "checksum " << hex64(m.checksum) << '\n'
     << "created " << m.created << '\n';
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactCache
// ---------------------------------------------------------------------------

ArtifactCache::ArtifactCache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.enabled) return;
  std::error_code ec;
  fs::create_directories(cfg_.dir + "/objects", ec);
  if (!ec) fs::create_directories(cfg_.dir + "/negative", ec);
  if (!ec) fs::create_directories(cfg_.dir + "/build", ec);
  if (ec) {
    // An unusable cache root disables the cache; execution falls back to
    // the in-memory JIT path (never fatal).
    dir_failed_ = true;
    OBS_INSTANT("cache", "init-error",
                "{\"dir\":\"" + cfg_.dir + "\"}");
    return;
  }
  if (FsFaultPlan p = FsFaultPlan::from_env(); p.active() || p.seed != 0)
    set_fault_plan(p);
  collect_stale_build_dirs();
}

namespace {
std::mutex g_inst_mu;
std::atomic<ArtifactCache*> g_inst{nullptr};
}  // namespace

ArtifactCache& ArtifactCache::instance() {
  ArtifactCache* p = g_inst.load(std::memory_order_acquire);
  if (!p) {
    std::lock_guard<std::mutex> lk(g_inst_mu);
    p = g_inst.load(std::memory_order_relaxed);
    if (!p) {
      // Leaked: detached Tier-1 compile threads may commit at exit.
      p = new ArtifactCache(CacheConfig::from_env());
      g_inst.store(p, std::memory_order_release);
    }
  }
  return *p;
}

void ArtifactCache::reset_for_testing() {
  std::lock_guard<std::mutex> lk(g_inst_mu);
  // The old instance leaks by design: in-flight builds may still touch it.
  g_inst.store(new ArtifactCache(CacheConfig::from_env()),
               std::memory_order_release);
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ArtifactCache::count(uint64_t CacheStats::*field) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++(stats_.*field);
  }
  // Mirror into the process-wide metrics registry (common/metrics.hpp):
  // this is the single choke point every CacheStats bump flows through,
  // so `sdfg-cache stat --json` and the serve Metrics verb see live
  // cache health without a trace file.
  if (field == &CacheStats::hits) {
    METRIC_INC("dacepp_cache_hits_total");
  } else if (field == &CacheStats::misses) {
    METRIC_INC("dacepp_cache_misses_total");
  } else if (field == &CacheStats::commits) {
    METRIC_INC("dacepp_cache_commits_total");
  } else if (field == &CacheStats::corrupt_rejected) {
    METRIC_INC("dacepp_cache_corrupt_total");
  } else if (field == &CacheStats::evictions) {
    METRIC_INC("dacepp_cache_evictions_total");
  } else if (field == &CacheStats::neg_hits) {
    METRIC_INC("dacepp_cache_negative_hits_total");
  } else if (field == &CacheStats::neg_stores) {
    METRIC_INC("dacepp_cache_negative_stores_total");
  } else if (field == &CacheStats::fallbacks) {
    METRIC_INC("dacepp_cache_fallbacks_total");
  }
}

std::string ArtifactCache::key_for(const std::string& source,
                                   const KeyInfo& ki) {
  uint64_t h = fnv1a(kMetaMagic, std::strlen(kMetaMagic));
  h = fnv1a(&kFormatVersion, sizeof(kFormatVersion), h);
  h = fnv1a(source.data(), source.size(), h);
  h = fnv1a(&ki.program_hash, sizeof(ki.program_hash), h);
  h = fnv1a(ki.compiler.data(), ki.compiler.size(), h);
  h = fnv1a(ki.flags.data(), ki.flags.size(), h);
  h = fnv1a(ki.dtypes.data(), ki.dtypes.size(), h);
  return hex64(mix64(h));
}

std::string ArtifactCache::object_path(const std::string& key) const {
  return cfg_.dir + "/objects/" + key + ".so";
}
std::string ArtifactCache::meta_path(const std::string& key) const {
  return cfg_.dir + "/objects/" + key + ".meta";
}
std::string ArtifactCache::lock_path(const std::string& key) const {
  return cfg_.dir + "/objects/" + key + ".lock";
}
std::string ArtifactCache::negative_path(uint64_t program_hash,
                                         const std::string& compiler) const {
  uint64_t h = fnv1a(&program_hash, sizeof(program_hash));
  h = fnv1a(compiler.data(), compiler.size(), h);
  return cfg_.dir + "/negative/" + hex64(mix64(h)) + ".neg";
}

bool ArtifactCache::verify_entry(const std::string& key,
                                 std::string* why) const {
  Meta m;
  if (!read_meta(meta_path(key), &m, why)) return false;
  if (m.key != key) {
    *why = "key mismatch";
    return false;
  }
  std::string bytes;
  if (!read_file(object_path(key), &bytes)) {
    *why = "artifact unreadable";
    return false;
  }
  if ((int64_t)bytes.size() != m.size) {
    *why = "size mismatch (torn write?)";
    return false;
  }
  if (fnv1a(bytes.data(), bytes.size()) != m.checksum) {
    *why = "checksum mismatch";
    return false;
  }
  return true;
}

std::string ArtifactCache::lookup(const std::string& key) {
  if (!enabled() || key.empty()) return "";
  OBS_SPAN("cache", "lookup");
  std::error_code ec;
  if (!fs::exists(meta_path(key), ec)) {
    count(&CacheStats::misses);
    OBS_INSTANT("cache", "miss", "{\"key\":\"" + key + "\"}");
    return "";
  }
  std::string why;
  if (!verify_entry(key, &why)) {
    // Self-defense: a committed entry that no longer checks out is
    // deleted on sight, so one bad sector can't poison every run.
    fs::remove(object_path(key), ec);
    fs::remove(meta_path(key), ec);
    count(&CacheStats::corrupt_rejected);
    OBS_INSTANT("cache", "corrupt-reject",
                "{\"key\":\"" + key + "\",\"why\":\"" + why + "\"}");
    return "";
  }
  // Touch the metadata mtime: it is the LRU clock.
  ::utimensat(AT_FDCWD, meta_path(key).c_str(), nullptr, 0);
  count(&CacheStats::hits);
  OBS_INSTANT("cache", "hit", "{\"key\":\"" + key + "\"}");
  return object_path(key);
}

std::string ArtifactCache::commit(const std::string& key,
                                  const std::string& built_so,
                                  const KeyInfo& ki) {
  if (!enabled() || key.empty()) return "";
  OBS_SPAN("cache", "commit");
  std::string data;
  if (!read_file(built_so, &data) || data.empty()) return "";

  KeyLock lock;
  if (!lock.acquire(lock_path(key), cfg_.lock_timeout_ms)) {
    count(&CacheStats::fallbacks);
    OBS_INSTANT("cache", "lock-timeout", "{\"key\":\"" + key + "\"}");
    return "";
  }
  // Another writer may have published while we were building.
  {
    std::string why;
    std::error_code ec;
    if (fs::exists(meta_path(key), ec) && verify_entry(key, &why))
      return object_path(key);
  }

  std::string tmp =
      object_path(key) + ".tmp." + std::to_string((long)getpid());
  std::string why;
  std::error_code ec;
  if (!fi_write_file(tmp, data, &why)) {
    fs::remove(tmp, ec);
    count(&CacheStats::fallbacks);
    OBS_INSTANT("cache", "write-error",
                "{\"key\":\"" + key + "\",\"why\":\"" + why + "\"}");
    return "";
  }
  if (!fi_rename(tmp, object_path(key), &why)) {
    fs::remove(tmp, ec);
    count(&CacheStats::fallbacks);
    OBS_INSTANT("cache", "write-error",
                "{\"key\":\"" + key + "\",\"why\":\"" + why + "\"}");
    return "";
  }

  // The object is published but not yet valid: readers ignore it until
  // the metadata record commits.  A crash in this window leaves debris
  // that purge/evict collect.
  FsFault publish = next_fault();
  if (publish == FsFault::CrashCommit) {
    count(&CacheStats::fallbacks);
    return "";
  }

  Meta m;
  m.key = key;
  m.program_hash = ki.program_hash;
  m.compiler = ki.compiler;
  m.flags = ki.flags;
  m.dtypes = ki.dtypes;
  m.size = (int64_t)data.size();
  m.checksum = fnv1a(data.data(), data.size());
  m.created = unix_now();
  std::string mtmp = meta_path(key) + ".tmp." + std::to_string((long)getpid());
  if (!fi_write_file(mtmp, render_meta(m), &why) ||
      !fi_rename(mtmp, meta_path(key), &why)) {
    fs::remove(mtmp, ec);
    fs::remove(object_path(key), ec);
    count(&CacheStats::fallbacks);
    OBS_INSTANT("cache", "write-error",
                "{\"key\":\"" + key + "\",\"why\":\"" + why + "\"}");
    return "";
  }
  count(&CacheStats::commits);
  OBS_INSTANT("cache", "commit",
              "{\"key\":\"" + key + "\",\"bytes\":" +
                  std::to_string(data.size()) + "}");

  if (publish == FsFault::Corrupt) {
    // Simulated bit rot: flip one byte of the committed artifact.  The
    // current process keeps its scratch object; the next lookup must
    // checksum-reject and rebuild.
    int fd = ::open(object_path(key).c_str(), O_RDWR);
    if (fd >= 0) {
      char b = 0;
      if (::pread(fd, &b, 1, 42 % (off_t)data.size()) == 1) {
        b ^= 0x5a;
        ::pwrite(fd, &b, 1, 42 % (off_t)data.size());
      }
      ::close(fd);
    }
    return "";
  }

  if (cfg_.size_limit_bytes > 0) evict(cfg_.size_limit_bytes);
  return object_path(key);
}

bool ArtifactCache::invalidate(const std::string& key) {
  if (key.empty() || cfg_.dir.empty()) return false;
  std::error_code ec;
  bool any = fs::remove(object_path(key), ec);
  any = fs::remove(meta_path(key), ec) || any;
  fs::remove(lock_path(key), ec);
  return any;
}

// ---------------------------------------------------------------------------
// Negative cache
// ---------------------------------------------------------------------------

bool ArtifactCache::negative_lookup(uint64_t program_hash,
                                    const std::string& compiler) {
  if (!enabled()) return false;
  std::string text;
  std::string path = negative_path(program_hash, compiler);
  if (!read_file(path, &text)) return false;
  std::istringstream is(text);
  std::string v;
  std::error_code ec;
  uint64_t ph = 0;
  int64_t created = 0;
  bool ok = take_line(is, kNegMagic, &v) &&
            v == std::to_string(kFormatVersion) &&
            take_line(is, "program", &v) && parse_hex64(v, &ph) &&
            ph == program_hash && take_line(is, "compiler", &v) &&
            v == compiler && take_line(is, "created", &v) &&
            (created = std::atoll(v.c_str())) > 0;
  if (!ok) {
    fs::remove(path, ec);
    return false;
  }
  if (unix_now() - created > cfg_.negative_ttl_s) {
    // Expired: the toolchain gets another probe.
    fs::remove(path, ec);
    return false;
  }
  count(&CacheStats::neg_hits);
  OBS_INSTANT("cache", "negative-hit",
              "{\"program\":\"" + hex64(program_hash) + "\"}");
  return true;
}

void ArtifactCache::negative_store(uint64_t program_hash,
                                   const std::string& compiler,
                                   const std::string& detail) {
  if (!enabled()) return;
  std::ostringstream os;
  os << kNegMagic << ' ' << kFormatVersion << '\n'
     << "program " << hex64(program_hash) << '\n'
     << "compiler " << compiler << '\n'
     << "created " << unix_now() << '\n'
     << "detail " << (detail.empty() ? "-" : detail) << '\n';
  std::string path = negative_path(program_hash, compiler);
  std::string tmp = path + ".tmp." + std::to_string((long)getpid());
  std::string why;
  std::error_code ec;
  if (!fi_write_file(tmp, os.str(), &why) || !fi_rename(tmp, path, &why)) {
    fs::remove(tmp, ec);  // best-effort: losing a negative entry is harmless
    return;
  }
  count(&CacheStats::neg_stores);
  OBS_INSTANT("cache", "negative-store",
              "{\"program\":\"" + hex64(program_hash) + "\"}");
}

// ---------------------------------------------------------------------------
// Build scratch space
// ---------------------------------------------------------------------------

std::string ArtifactCache::make_build_dir() {
  static std::atomic<int> counter{0};
  std::string base;
  std::error_code ec;
  if (enabled()) {
    base = cfg_.dir + "/build";
  } else {
    base = fs::temp_directory_path(ec).string() + "/dacepp-scratch";
  }
  fs::create_directories(base, ec);
  std::string dir = base + "/" + std::to_string((long)getpid()) + "." +
                    std::to_string(counter.fetch_add(1));
  fs::create_directories(dir, ec);
  if (ec) return "";
  register_scratch(dir);
  return dir;
}

void ArtifactCache::release_build_dir(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::remove_all(path, ec);
  unregister_scratch(path);
}

int ArtifactCache::collect_stale_build_dirs() {
  if (!enabled()) return 0;
  int collected = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cfg_.dir + "/build", ec)) {
    std::string name = e.path().filename().string();
    size_t dot = name.find('.');
    if (dot == std::string::npos) continue;
    long pid = std::atol(name.substr(0, dot).c_str());
    if (pid <= 0 || pid == (long)getpid()) continue;
    if (::kill((pid_t)pid, 0) != 0 && errno == ESRCH) {
      fs::remove_all(e.path(), ec);
      ++collected;
    }
  }
  return collected;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

std::vector<EntryInfo> ArtifactCache::list(bool verify) {
  std::vector<EntryInfo> out;
  if (cfg_.dir.empty()) return out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cfg_.dir + "/objects", ec)) {
    if (e.path().extension() != ".meta") continue;
    std::string key = e.path().stem().string();
    EntryInfo info;
    info.key = key;
    Meta m;
    std::string why;
    if (read_meta(e.path().string(), &m, &why)) {
      info.program_hash = m.program_hash;
      info.compiler = m.compiler;
      info.flags = m.flags;
      info.dtypes = m.dtypes;
      info.size = m.size;
      info.created = m.created;
      auto st = fs::last_write_time(e.path(), ec);
      info.last_used = (int64_t)std::chrono::duration_cast<
                           std::chrono::seconds>(st.time_since_epoch())
                           .count();
      if (verify && !verify_entry(key, &why)) {
        info.valid = false;
        info.detail = why;
      }
    } else {
      info.valid = false;
      info.detail = why;
    }
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return a.last_used != b.last_used ? a.last_used > b.last_used
                                                : a.key < b.key;
            });
  return out;
}

std::vector<ArtifactCache::NegativeInfo> ArtifactCache::list_negative() {
  std::vector<NegativeInfo> out;
  if (cfg_.dir.empty()) return out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cfg_.dir + "/negative", ec)) {
    if (e.path().extension() != ".neg") continue;
    std::string text;
    if (!read_file(e.path().string(), &text)) continue;
    std::istringstream is(text);
    NegativeInfo ni;
    ni.key = e.path().stem().string();
    std::string v;
    if (!take_line(is, kNegMagic, &v)) continue;
    take_line(is, "program", &v);
    take_line(is, "compiler", &ni.compiler);
    if (take_line(is, "created", &v)) {
      ni.age_s = unix_now() - std::atoll(v.c_str());
      ni.expired = ni.age_s > cfg_.negative_ttl_s;
    }
    take_line(is, "detail", &ni.detail);
    out.push_back(std::move(ni));
  }
  return out;
}

int64_t ArtifactCache::total_bytes() {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cfg_.dir + "/objects", ec)) {
    if (e.is_regular_file(ec)) total += (int64_t)e.file_size(ec);
  }
  return total;
}

int64_t ArtifactCache::evict(int64_t target_bytes) {
  if (cfg_.dir.empty()) return 0;
  if (target_bytes < 0) target_bytes = cfg_.size_limit_bytes;
  std::error_code ec;

  // Pass 1: collect entries by LRU clock, and sweep crash debris (tmp
  // files and meta-less objects) older than an hour -- a live writer's
  // in-flight commit is never that old.
  struct Candidate {
    int64_t last_used;
    std::string key;
    int64_t bytes;
  };
  std::vector<Candidate> entries;
  int64_t total = 0;
  // Ages must be computed within the file clock: its epoch differs from
  // the unix epoch (libstdc++ uses 2174), so mixing in unix_now() would
  // make every file look ancient and sweep live writers' debris.
  int64_t fnow_ns =
      (int64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
          fs::file_time_type::clock::now().time_since_epoch())
          .count();
  for (const auto& e : fs::directory_iterator(cfg_.dir + "/objects", ec)) {
    std::string name = e.path().filename().string();
    if (!e.is_regular_file(ec)) continue;
    int64_t sz = (int64_t)e.file_size(ec);
    // Nanosecond mtimes: second granularity would tie every entry
    // committed in one burst and make the LRU order arbitrary.
    auto mt_ns =
        (int64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
            fs::last_write_time(e.path(), ec).time_since_epoch())
            .count();
    int64_t age_s = (fnow_ns - mt_ns) / 1000000000;
    bool is_tmp = name.find(".tmp.") != std::string::npos;
    bool is_orphan_so = !is_tmp && e.path().extension() == ".so" &&
                        !fs::exists(e.path().string().substr(
                                        0, e.path().string().size() - 3) +
                                        ".meta",
                                    ec);
    // Object-less metas can't come from a crashed commit (object lands
    // first) but can from a kill mid-eviction; without the sweep they
    // would linger forever, since lookup never probes their key again.
    bool is_orphan_meta =
        !is_tmp && e.path().extension() == ".meta" &&
        !fs::exists(object_path(e.path().stem().string()), ec);
    if ((is_tmp || is_orphan_so || is_orphan_meta) && age_s > 3600) {
      fs::remove(e.path(), ec);
      continue;
    }
    total += sz;
    if (e.path().extension() == ".meta") {
      Candidate c;
      c.last_used = mt_ns;
      c.key = e.path().stem().string();
      c.bytes = sz;
      std::string so = object_path(c.key);
      if (fs::exists(so, ec)) c.bytes += (int64_t)fs::file_size(so, ec);
      entries.push_back(std::move(c));
    }
  }
  if (total <= target_bytes) return 0;

  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.last_used != b.last_used ? a.last_used < b.last_used
                                                : a.key < b.key;
            });
  int64_t freed = 0;
  for (const Candidate& c : entries) {
    if (total - freed <= target_bytes) break;
    // Skip keys another process is writing right now.
    KeyLock lock;
    if (!lock.acquire(lock_path(c.key), 0)) continue;
    fs::remove(meta_path(c.key), ec);
    fs::remove(object_path(c.key), ec);
    fs::remove(lock_path(c.key), ec);
    freed += c.bytes;
    count(&CacheStats::evictions);
    OBS_INSTANT("cache", "evict",
                "{\"key\":\"" + c.key + "\",\"bytes\":" +
                    std::to_string(c.bytes) + "}");
  }
  return freed;
}

void ArtifactCache::purge() {
  if (cfg_.dir.empty()) return;
  std::error_code ec;
  for (const char* sub : {"/objects", "/negative", "/build"}) {
    fs::remove_all(cfg_.dir + sub, ec);
    fs::create_directories(cfg_.dir + sub, ec);
  }
}

}  // namespace dace::cg::cache
