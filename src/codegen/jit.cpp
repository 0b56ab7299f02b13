#include "codegen/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/artifact_cache.hpp"
#include "codegen/codegen.hpp"

namespace dace::cg {

namespace {
std::atomic<uint64_t> g_jit_compiles{0};
}  // namespace

uint64_t jit_compile_count() {
  return g_jit_compiles.load(std::memory_order_relaxed);
}

namespace detail {

namespace {

// dlopen `so` and resolve `symbol` into `out`.  True when both succeed.
bool load_object(const std::string& so, const std::string& symbol,
                 LoadedObject* out) {
  out->handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!out->handle) return false;
  out->sym = dlsym(out->handle, symbol.c_str());
  if (!out->sym) {
    dlclose(out->handle);
    out->handle = nullptr;
    return false;
  }
  return true;
}

// Single-quote `s` for /bin/sh: the scratch dir lives under
// DACE_CACHE_DIR or TMPDIR, which may hold spaces or shell metacharacters.
std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'')
      q += "'\\''";
    else
      q += c;
  }
  return q + "'";
}

}  // namespace

LoadedObject build_and_load(const std::string& source,
                            const std::string& name,
                            const std::string& symbol,
                            const std::string& compiler,
                            const std::string& opt,
                            uint64_t program_hash,
                            const std::string& dtypes) {
  LoadedObject out;
  auto& cache = cache::ArtifactCache::instance();
  cache::ArtifactCache::KeyInfo ki;
  ki.program_hash = program_hash;
  ki.compiler = compiler;
  ki.flags = opt;
  ki.dtypes = dtypes;
  std::string key;
  if (cache.enabled()) {
    key = cache::ArtifactCache::key_for(source, ki);
    std::string hit = cache.lookup(key);
    if (!hit.empty()) {
      if (load_object(hit, symbol, &out)) {
        out.cache_hit = true;
        return out;
      }
      // Verified bytes that still fail to dlopen/dlsym (e.g. built by an
      // incompatible toolchain, or a renamed entry symbol): drop the
      // entry and rebuild from source.
      cache.invalidate(key);
    }
  }

  // Miss: build in cache-managed scratch space.  make_build_dir() falls
  // back to /tmp when the cache is disabled, and every scratch dir is
  // registered for removal at process exit -- nothing leaks either way.
  std::string dir = cache.make_build_dir();
  if (dir.empty()) return out;
  std::string base = dir + "/" + name;
  std::string cpp = base + ".cpp";
  std::string so = base + ".so";
  {
    std::ofstream f(cpp);
    f << source;
  }
  // `compiler` is a command (DACEPP_JIT_CC may carry arguments), so it
  // stays unquoted.  `opt` follows the source so that libraries it names
  // are linked after the object that needs them.
  std::string cmd = compiler + " " + shell_quote(cpp) + " -o " +
                    shell_quote(so) + " -fPIC -shared -std=c++17 " + opt +
                    " 2>" + shell_quote(base + ".log");
  g_jit_compiles.fetch_add(1, std::memory_order_relaxed);
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    cache.release_build_dir(dir);
    return out;
  }

  if (cache.enabled()) {
    // Publish for future processes; failure (ENOSPC, lock timeout,
    // injected fault) only means the cache stays cold.  This process
    // always dlopens the scratch object it just built: the committed
    // copy is *not* trusted here -- a torn write can leave a truncated
    // artifact whose commit looked successful, and mapping it would
    // SIGBUS.  Readers that start from the store (lookup) verify the
    // checksum first; we already hold verified bytes.
    cache.commit(key, so, ki);
  }
  load_object(so, symbol, &out);
  // Linux keeps the mapping alive after unlink, so the scratch dir can
  // go as soon as dlopen returned.
  cache.release_build_dir(dir);
  return out;
}

ObjectHandle::~ObjectHandle() {
  if (handle_) dlclose(handle_);
}

ObjectHandle::ObjectHandle(ObjectHandle&& o) noexcept
    : handle_(o.handle_), sym_(o.sym_) {
  o.handle_ = nullptr;
  o.sym_ = nullptr;
}

ObjectHandle& ObjectHandle::operator=(ObjectHandle&& o) noexcept {
  if (this != &o) {
    if (handle_) dlclose(handle_);
    handle_ = o.handle_;
    sym_ = o.sym_;
    o.handle_ = nullptr;
    o.sym_ = nullptr;
  }
  return *this;
}

}  // namespace detail

CompiledProgram compile(const ir::SDFG& sdfg, const std::string& compiler) {
  std::string src = generate(sdfg, Flavor::CPU);
  // Whole-SDFG programs have no bytecode Program; fingerprint the
  // generated source so cache metadata still identifies the build.
  return CompiledProgram(
      detail::build_and_load(src, sdfg.name(), sdfg.name(), compiler, "-O2",
                             cache::fnv1a(src.data(), src.size())));
}

CompiledMapNative compile_map_native(const rt::Program& prog,
                                     const std::vector<ir::DType>& dtypes,
                                     const std::string& fn_name,
                                     const std::string& compiler) {
  std::string src = generate_map_source(prog, dtypes, fn_name);
  if (src.empty()) return {};
  // Planned kernels carry structured loops, __restrict__ and ivdep
  // annotations the vectorizer can act on -- compile them at -O3 with
  // the host ISA (the same level as hand-written reference kernels).
  // -ffp-contract=off forbids FMA contraction so native results stay
  // bit-identical to the VM's separate multiply/add.  The source uses
  // nothing of libstdc++ or libgcc, so the link names libm and libc only;
  // they must come after the source, or --as-needed drops libm and leaves
  // its symbols unversioned.  A compiler that rejects the flags just pins
  // the program to Tier 0 (failure is never fatal).
  std::string dtype_list;
  for (size_t i = 0; i < dtypes.size(); ++i) {
    if (i) dtype_list += ',';
    dtype_list += ir::dtype_name(dtypes[i]);
  }
  return CompiledMapNative(detail::build_and_load(
      src, fn_name, fn_name, compiler,
      "-O3 -march=native -ffp-contract=off -nodefaultlibs -lm -lc",
      prog.hash(), dtype_list));
}

}  // namespace dace::cg
