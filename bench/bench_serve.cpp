// bench_serve: request latency of the sdfg-serve daemon (src/serve/*).
// Five medians land in the report at $BENCH_JSON (writes merge, so this
// coexists with bench_fig7's keys):
//
//   serve.ping          frame round-trip over the unix socket: protocol
//                       + scheduling floor, no compile or execution
//   serve.request_cold  full compile-and-run of a fresh program (parse,
//                       lower, auto-opt, VM run, output checksums)
//   serve.request_warm  the same request repeated on one connection --
//                       today this re-runs the pipeline, so warm ~ cold
//                       is expected and the delta tracks any future
//                       daemon-side SDFG caching
//   serve.hammer_8      8 concurrent identical requests; in-flight dedup
//                       collapses them to one compile, so the batch
//                       should cost ~1 request, not 8
//   serve.hammer_32     the dedup acceptance shape (32 clients)
//
// The daemon runs in-process on a private socket; jobs stay on the VM
// tier (no host compiler involved), so the numbers isolate serve-layer
// overhead from JIT cost (bench_cache covers the latter).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace dace::serve;

namespace {

int g_uniq = 0;

RunRequest make_request(bool uniq) {
  int tag = uniq ? ++g_uniq : 0;
  RunRequest r;
  r.source = "@dace.program\ndef bench_axpy(A: dace.float64[N], "
             "B: dace.float64[N]):\n    for i in dace.map[0:N]:\n"
             "        B[i] = " + std::to_string(tag) + ".5 * A[i] + B[i]\n";
  r.symbols["N"] = 256;
  return r;
}

void row(const char* name, const bench::Timing& t) {
  printf("%-22s %12s  [%s, %s]  reps=%d\n", name,
         bench::fmt_time(t.median_s).c_str(), bench::fmt_time(t.ci_low).c_str(),
         bench::fmt_time(t.ci_high).c_str(), t.reps);
}

void hammer(const std::string& sock, int n) {
  RunRequest req = make_request(/*uniq=*/false);
  std::vector<std::thread> threads;
  threads.reserve((size_t)n);
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions o;
      o.socket_path = sock;
      Client cli(o);
      RunRequest r = req;
      r.id = "h" + std::to_string(t);
      Reply rep = cli.run(r);
      if (!rep.ok) {
        fprintf(stderr, "bench_serve: hammer job failed: %s\n",
                rep.message.c_str());
        exit(1);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

int main() {
  std::string sock =
      "/tmp/dacepp-bench-serve-" + std::to_string((long)getpid()) + ".sock";
  ServeConfig cfg;
  cfg.socket_path = sock;
  cfg.workers = 4;
  cfg.queue_max = 64;
  Server srv(cfg);
  std::string why;
  if (!srv.start(&why)) {
    fprintf(stderr, "bench_serve: daemon failed to start: %s\n", why.c_str());
    return 1;
  }

  ClientOptions copts;
  copts.socket_path = sock;
  Client cli(copts);
  if (!cli.ping().ok) {
    fprintf(stderr, "bench_serve: daemon not answering\n");
    return 1;
  }

  auto ping = bench::time_median("serve.ping", [&] {
    if (!cli.ping().ok) exit(1);
  }, 20);

  auto cold = bench::time_median("serve.request_cold", [&] {
    Reply r = cli.run(make_request(/*uniq=*/true));
    if (!r.ok) {
      fprintf(stderr, "bench_serve: cold job failed: %s\n", r.message.c_str());
      exit(1);
    }
  }, 10);

  RunRequest warm_req = make_request(/*uniq=*/false);
  (void)cli.run(warm_req);  // prime
  auto warm = bench::time_median("serve.request_warm", [&] {
    Reply r = cli.run(warm_req);
    if (!r.ok) exit(1);
  }, 10);

  auto h8 = bench::time_median("serve.hammer_8", [&] { hammer(sock, 8); }, 5);
  auto h32 =
      bench::time_median("serve.hammer_32", [&] { hammer(sock, 32); }, 5);

  printf("serve request latency (socket=%s)\n", sock.c_str());
  row("ping", ping);
  row("cold request", cold);
  row("warm request", warm);
  row("hammer 8 (dedup)", h8);
  row("hammer 32 (dedup)", h32);
  ServeStats st = srv.stats();
  printf("daemon stats: accepted=%llu deduped=%llu completed=%llu shed=%llu\n",
         (unsigned long long)st.accepted, (unsigned long long)st.deduped,
         (unsigned long long)st.completed, (unsigned long long)st.shed);

  bool clean = srv.drain();
  if (!clean) {
    fprintf(stderr, "bench_serve: drain left orphans\n");
    return 1;
  }
  // Acceptance: a ping must be far cheaper than a compile-and-run, and
  // the deduped 32-way batch must not cost 32 cold requests.
  if (ping.median_s >= cold.median_s) return 1;
  if (h32.median_s >= 32 * cold.median_s) return 1;
  return 0;
}
