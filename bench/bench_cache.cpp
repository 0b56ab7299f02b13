// bench_cache: cold- vs warm-cache JIT latency (the artifact cache's
// reason to exist).  Every rep builds the Tier-1 source of the suite's
// matmul map through cg::compile_map_native, as a promotion does.  Three
// medians land in the JSON report at $BENCH_JSON:
//
//   cache.jit_uncached  DACE_CACHE=0 path: full host-compiler run, the
//                       pre-cache status quo
//   cache.jit_cold      cache enabled, key never seen: compiler run +
//                       fsync/rename commit (what a promotion pays)
//   cache.jit_warm      key committed: verified dlopen, no compiler
//
// The acceptance bar is cache.jit_warm << cache.jit_cold.  Warm reps
// re-verify the artifact checksum and re-dlopen each time, so the number
// includes the full read-side defense, not just a refcount bump.
//
// All work happens in a private temp cache dir; the user's store is
// never touched.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codegen/artifact_cache.hpp"
#include "codegen/jit.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace fs = std::filesystem;
using dace::cg::cache::ArtifactCache;

namespace {

int g_uniq = 0;

// Reps per median.  A build is a host-compiler run, so its time spreads
// widely: at 5 reps, six idle runs read cold medians from 101 to 143 ms.
// At 15, back-to-back runs' build medians agree within bench-diff's 15%.
constexpr int kBuildReps = 15;
constexpr int kWarmReps = 50;

// The optimized bytecode of matmul's map, the program the executor
// promotes (unroll-and-jam and a sunk accumulator).
dace::rt::Program matmul_program() {
  using namespace dace;
  auto sdfg = fe::compile_to_sdfg(kernels::kernel("matmul").source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  for (int s : sdfg->state_ids()) {
    const ir::State& st = sdfg->state(s);
    for (int id : st.node_ids()) {
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1) {
        rt::Program p = rt::compile_map_scope(*sdfg, st, id);
        rt::optimize_program(p);
        return p;
      }
    }
  }
  fprintf(stderr, "bench_cache: matmul has no top-level map\n");
  exit(1);
}

// A fresh function name per call when `uniq` changes the source text, so
// every cold rep pays the full compiler price on a fresh key.
void build_once(const dace::rt::Program& prog, bool uniq) {
  std::vector<dace::ir::DType> dtypes(prog.arrays.size(),
                                      dace::ir::DType::f64);
  std::string name = "dacepp_bench_" + std::to_string(uniq ? ++g_uniq : 0);
  if (!dace::cg::compile_map_native(prog, dtypes, name).valid()) {
    fprintf(stderr, "bench_cache: build failed (no host compiler?)\n");
    exit(1);
  }
}

void row(const char* name, const bench::Timing& t) {
  printf("%-22s %12s  [%s, %s]  reps=%d\n", name,
         bench::fmt_time(t.median_s).c_str(), bench::fmt_time(t.ci_low).c_str(),
         bench::fmt_time(t.ci_high).c_str(), t.reps);
}

}  // namespace

int main() {
  char tmpl[] = "/tmp/bench-cache-XXXXXX";
  if (!mkdtemp(tmpl)) return 1;
  std::string dir = tmpl;

  const dace::rt::Program prog = matmul_program();

  // Uncached baseline: the pre-cache pipeline (scratch build every time).
  setenv("DACE_CACHE", "0", 1);
  setenv("DACE_CACHE_DIR", dir.c_str(), 1);
  ArtifactCache::reset_for_testing();
  auto uncached = bench::time_median(
      "cache.jit_uncached", [&] { build_once(prog, /*uniq=*/true); },
      kBuildReps);

  // Cold: enabled cache, fresh key per rep -> compile + commit.
  setenv("DACE_CACHE", "1", 1);
  ArtifactCache::reset_for_testing();
  auto cold = bench::time_median(
      "cache.jit_cold", [&] { build_once(prog, /*uniq=*/true); }, kBuildReps);

  // Warm: fixed key, committed on the priming call.
  build_once(prog, /*uniq=*/false);
  auto warm = bench::time_median(
      "cache.jit_warm", [&] { build_once(prog, /*uniq=*/false); }, kWarmReps);

  printf("JIT build latency (artifact cache, dir=%s)\n", dir.c_str());
  row("uncached (DACE_CACHE=0)", uncached);
  row("cold (compile+commit)", cold);
  row("warm (verified dlopen)", warm);
  double speedup = warm.median_s > 0 ? cold.median_s / warm.median_s : 0;
  printf("warm speedup over cold: %.1fx\n", speedup);
  bench::JsonReport::global().record("cache.warm_speedup", speedup);

  fs::remove_all(dir);
  // The acceptance criterion: a warm start must beat a cold start.
  return warm.median_s < cold.median_s ? 0 : 1;
}
