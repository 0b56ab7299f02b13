// sdfg-serve daemon tests (src/serve/*).
//
// Four layers:
//   ServeProto*  -- frame protocol units: encode/decode round-trip, every
//                   E600..E605 decode failure, run-request body format,
//                   request keys, fault-plan determinism
//   FairQueue*   -- weighted fair queueing units: FIFO within a flow,
//                   weight-proportional interleave, admission bound,
//                   burst isolation
//   Serve*       -- daemon lifecycle against private sockets: ping/stats,
//                   differential run correctness, compile-error isolation
//                   + persisted negative cache, overload shedding,
//                   in-flight dedup (the 32-clients-one-compile
//                   acceptance), deadlines, wedged-job abandonment,
//                   malformed-frame isolation, drain, stop with a
//                   reader or a worker stuck on a non-reading client,
//                   restart recovery, symlink refusal
//   ServeChaos*  -- the robustness core: a seeded connection-level fault
//                   plan (mid-frame disconnect, slow-loris, corrupt
//                   frames, executor crashes, wedged jobs, deadline
//                   storms) driven against a live daemon; every plan must
//                   leave the daemon alive and every surviving job's
//                   outputs bit-identical to an unfaulted run.
//                   `ctest -L chaos` sweeps this suite across seeds via
//                   DACE_SERVE_FAULT_SEED.
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.hpp"
#include "codegen/jit.hpp"
#include "common/common.hpp"
#include "common/diag.hpp"
#include "frontend/lowering.hpp"
#include "runtime/executor.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

namespace fs = std::filesystem;
using namespace dace::serve;

/// Scoped environment override; restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_, old_;
  bool had_old_ = false;
};

std::string make_temp_dir() {
  char tmpl[] = "/tmp/dacepp-serve-test-XXXXXX";
  EXPECT_NE(mkdtemp(tmpl), nullptr);
  return tmpl;
}

/// Fresh socket path per test (unix socket paths are capped at ~107
/// bytes, so these live directly under /tmp).
std::string test_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/dacepp-st-" + std::to_string((long)getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ServeConfig test_config(const std::string& sock) {
  ServeConfig cfg;
  cfg.socket_path = sock;
  cfg.workers = 2;
  cfg.queue_max = 32;
  cfg.deadline_ms = 20000;
  return cfg;
}

Client make_client(const std::string& sock, int retries = 3) {
  ClientOptions o;
  o.socket_path = sock;
  o.retries = retries;
  return Client(o);
}

/// An axpy-shaped kernel; `coeff` varies the program (and its request
/// key) between tests and clients.
std::string axpy_src(const std::string& name, const std::string& coeff) {
  return "@dace.program\ndef " + name + "(A: dace.float64[N], B: dace.float64["
         "N]):\n    for i in dace.map[0:N]:\n        B[i] = " + coeff +
         " * A[i] + B[i]\n";
}

/// Local reference for the differential tests: same deterministic
/// argument synthesis as Server::run_job (the two must stay in sync),
/// same per-argument FNV-1a output checksums.
std::string local_outputs(const std::string& source, const std::string& fn,
                          const std::map<std::string, int64_t>& symbols) {
  diag::DiagSink sink;
  auto sdfg = fe::compile_to_sdfg(source, sink, fn);
  if (!sdfg) return "";
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  sym::SymbolMap syms;
  for (const auto& [k, v] : symbols) syms[k] = v;
  rt::Bindings args;
  for (const auto& an : sdfg->arg_names()) {
    const auto& desc = sdfg->arrays().at(an);
    uint64_t h = cg::cache::fnv1a(an.data(), an.size());
    if (desc.is_scalar()) {
      args.emplace(an, rt::Tensor::scalar((double)(h % 97) / 7.0, desc.dtype));
    } else {
      std::vector<int64_t> shape;
      for (const auto& e : desc.shape) shape.push_back(e.eval(syms));
      rt::Tensor t(desc.dtype, shape);
      double* d = t.data();
      for (int64_t i = 0; i < t.size(); ++i)
        d[i] = (double)((h + (uint64_t)i * 2654435761ull) % 1024) / 64.0;
      args.emplace(an, std::move(t));
    }
  }
  rt::Executor ex(*sdfg);
  ex.run(args, syms);
  std::string out = "{";
  bool first = true;
  for (const auto& an : sdfg->arg_names()) {
    const rt::Tensor& t = args.at(an);
    uint64_t sum =
        cg::cache::fnv1a(t.data(), (size_t)t.size() * sizeof(double));
    char buf[17];
    snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)sum);
    out += std::string(first ? "" : ",") + "\"" + an + "\":\"" + buf + "\"";
    first = false;
  }
  return out + "}";
}

/// Raw unix-socket connect for protocol-abuse tests.
int connect_raw(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_un sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
  EXPECT_EQ(::connect(fd, (struct sockaddr*)&sa, sizeof(sa)), 0);
  return fd;
}

// ---------------------------------------------------------------------------
// ServeProto: frame protocol units
// ---------------------------------------------------------------------------

TEST(ServeProto, FrameRoundTrip) {
  std::string bytes = encode_frame(Verb::Run, "payload bytes");
  EXPECT_EQ(bytes.size(), kHeaderBytes + 13);
  Decoded d = decode_frame(bytes, 1 << 20);
  ASSERT_EQ(d.status, Decoded::Ok);
  EXPECT_EQ(d.frame.verb, Verb::Run);
  EXPECT_EQ(d.frame.payload, "payload bytes");
  EXPECT_EQ(decode_frame("", 1 << 20).status, Decoded::Eof);
}

TEST(ServeProto, DecodeFailuresAreStructured) {
  std::string good = encode_frame(Verb::Ping, "x");
  auto expect_code = [&](std::string bytes, const char* code) {
    Decoded d = decode_frame(bytes, 64);
    EXPECT_EQ(d.status, Decoded::Error);
    EXPECT_EQ(d.code, code) << d.message;
    EXPECT_FALSE(d.message.empty());
  };
  std::string t = good;
  t[0] = 'Z';
  expect_code(t, "E600");
  t = good;
  t[4] = (char)0x09;
  expect_code(t, "E601");
  t = good;
  t[8] = (char)0xff;  // payload length 255 > 64 cap
  expect_code(t, "E602");
  expect_code(good.substr(0, 7), "E603");
  expect_code(good.substr(0, good.size() - 1), "E603");
  t = good;
  t[kHeaderBytes] ^= 0x01;
  expect_code(t, "E604");
  expect_code(encode_frame((Verb)4242, ""), "E605");
}

TEST(ServeProto, RunRequestRoundTrip) {
  RunRequest r;
  r.source = axpy_src("f", "2.0");
  r.function = "f";
  r.symbols = {{"N", 64}, {"M", 3}};
  r.deadline_ms = 750;
  r.weight = 4;
  r.id = "req-9";
  RunRequest back;
  std::string why;
  ASSERT_TRUE(parse_run_request(format_run_request(r), &back, &why)) << why;
  EXPECT_EQ(back.source, r.source);
  EXPECT_EQ(back.function, "f");
  EXPECT_EQ(back.symbols, r.symbols);
  EXPECT_EQ(back.deadline_ms, 750);
  EXPECT_EQ(back.weight, 4);
  EXPECT_EQ(back.id, "req-9");
}

TEST(ServeProto, MalformedBodiesAreRejected) {
  RunRequest out;
  std::string why;
  EXPECT_FALSE(parse_run_request("no separator", &out, &why));
  EXPECT_FALSE(parse_run_request("not-a-header\n--\nsrc", &out, &why));
  EXPECT_FALSE(parse_run_request("weight=heavy\n--\nsrc", &out, &why));
  EXPECT_FALSE(parse_run_request("sym.=3\n--\nsrc", &out, &why));
  EXPECT_FALSE(parse_run_request("--\n", &out, &why));
  EXPECT_FALSE(why.empty());
}

TEST(ServeProto, RequestKeyCoversResultInputs) {
  RunRequest a;
  a.source = axpy_src("f", "2.0");
  a.symbols = {{"N", 64}};
  RunRequest b = a;
  EXPECT_EQ(request_key(a), request_key(b));
  b.id = "different-id";  // correlation id does not change the result
  b.weight = 9;           // neither does scheduling weight
  b.deadline_ms = 1;      // nor the deadline
  EXPECT_EQ(request_key(a), request_key(b));
  b = a;
  b.symbols["N"] = 65;
  EXPECT_NE(request_key(a), request_key(b));
  b = a;
  b.source += "# trailing comment\n";
  EXPECT_NE(request_key(a), request_key(b));
  b = a;
  b.function = "g";
  EXPECT_NE(request_key(a), request_key(b));
}

TEST(ServeProto, FaultPlanIsDeterministicAndParsesItsOwnSpec) {
  ServeFaultPlan p = ServeFaultPlan::parse(
      "seed=7,disconnect=0.2,slow=0.1,corrupt=0.2,crash=0.1,wedge=0.05,"
      "storm=0.1");
  EXPECT_TRUE(p.active());
  EXPECT_EQ(p.seed, 7u);
  ServeFaultPlan q = ServeFaultPlan::parse(p.to_string());
  int faults = 0;
  for (uint64_t op = 0; op < 512; ++op) {
    EXPECT_EQ(p.decide(op), q.decide(op));
    if (p.decide(op) != ServeFault::None) ++faults;
  }
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, 512);
  ServeFaultPlan other = p;
  other.seed = 8;
  int diff = 0;
  for (uint64_t op = 0; op < 512; ++op)
    if (p.decide(op) != other.decide(op)) ++diff;
  EXPECT_GT(diff, 0);
  EXPECT_FALSE(ServeFaultPlan().active());
  EXPECT_EQ(ServeFaultPlan().decide(3), ServeFault::None);
  // A typo must not silently run a sweep that injects nothing.
  EXPECT_THROW(ServeFaultPlan::parse("disconnect"), Error);
  EXPECT_THROW(ServeFaultPlan::parse("disconect=0.2"), Error);
  EXPECT_THROW(ServeFaultPlan::parse("disconnect=x"), Error);
  EXPECT_THROW(ServeFaultPlan::parse("seed=x"), Error);
}

// ---------------------------------------------------------------------------
// FairQueue units
// ---------------------------------------------------------------------------

TEST(FairQueue, FifoWithinOneFlow) {
  FairQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i, /*flow=*/1, /*weight=*/1));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.pop(), i);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FairQueue, AdmissionBound) {
  FairQueue<int> q(2);
  EXPECT_TRUE(q.push(1, 1, 1));
  EXPECT_TRUE(q.push(2, 2, 1));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3, 3, 1));
  q.pop();
  EXPECT_TRUE(q.push(3, 3, 1));
}

TEST(FairQueue, WeightProportionalShare) {
  // Flow B (weight 2) should be served ~twice as often as flow A
  // (weight 1) while both are backlogged.
  FairQueue<char> q(64);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push('A', 1, 1));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push('B', 2, 2));
  int b_in_first_9 = 0;
  for (int i = 0; i < 9; ++i)
    if (*q.pop() == 'B') ++b_in_first_9;
  EXPECT_GE(b_in_first_9, 5);
  EXPECT_LE(b_in_first_9, 7);
}

TEST(FairQueue, LightFlowIsNotStarvedByABurst) {
  // A bursts 6 items; B's single item, arriving after two A dequeues,
  // must not wait behind the whole remaining burst.
  FairQueue<char> q(64);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.push('A', 1, 1));
  EXPECT_EQ(*q.pop(), 'A');
  EXPECT_EQ(*q.pop(), 'A');
  ASSERT_TRUE(q.push('B', 2, 1));
  int pops_until_b = 0;
  for (;;) {
    ++pops_until_b;
    if (*q.pop() == 'B') break;
  }
  EXPECT_LE(pops_until_b, 2) << "B waited behind the A burst";
}

// ---------------------------------------------------------------------------
// Serve: daemon lifecycle
// ---------------------------------------------------------------------------

TEST(Serve, PingAndStats) {
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock);
  EXPECT_TRUE(cli.ping().ok);
  Reply st = cli.stats();
  ASSERT_TRUE(st.ok);
  EXPECT_EQ(json_find_int(st.payload, "accepted", -1), 0);
  EXPECT_EQ(json_find_int(st.payload, "completed", -1), 0);
  EXPECT_GE(json_find_int(st.payload, "connections", -1), 1);
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, ClosedConnectionsReleaseTheirReaderThreads) {
  // Every ping is its own connection.  A reader thread that finishes but
  // is never joined keeps its stack mapped, so a daemon that leaked them
  // would gain two /proc/self/maps entries (stack + guard) per client.
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock);
  ASSERT_TRUE(cli.ping().ok);
  auto mappings = [] {
    std::ifstream maps("/proc/self/maps");
    std::string line;
    int n = 0;
    while (std::getline(maps, line)) ++n;
    return n;
  };
  const int before = mappings();
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(cli.ping().ok) << i;
  EXPECT_LT(mappings() - before, 128);
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, RunMatchesLocalExecutor) {
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock);

  RunRequest req;
  req.source = axpy_src("axpy", "2.0");
  req.symbols["N"] = 256;
  req.id = "diff-1";
  Reply r = cli.run(req);
  ASSERT_TRUE(r.ok) << r.code << ": " << r.message;
  EXPECT_EQ(json_find_string(r.payload, "id"), "diff-1");
  EXPECT_EQ(json_find_string(r.payload, "status"), "ok");

  std::string expected = local_outputs(req.source, "", {{"N", 256}});
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(extract_outputs(r.payload), expected);

  // Determinism: the same request yields bit-identical outputs.
  Reply r2 = cli.run(req);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(extract_outputs(r2.payload), extract_outputs(r.payload));
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, CompileErrorIsIsolatedAndLandsInNegativeCache) {
  std::string cache_dir = make_temp_dir();
  EnvGuard g1("DACE_CACHE", "1");
  EnvGuard g2("DACE_CACHE_DIR", cache_dir.c_str());
  cg::cache::ArtifactCache::reset_for_testing();

  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock);

  RunRequest bad;
  bad.source = "@dace.program\ndef broken(A: dace.float64[N]):\n    A[i\n";
  bad.id = "bad-1";
  Reply r = cli.run(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "E611");

  // The failure persisted into the PR-8 negative cache...
  uint64_t neg_before = cg::cache::ArtifactCache::instance().stats().neg_hits;
  Reply r2 = cli.run(bad);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, "E611");
  EXPECT_NE(r2.message.find("negative cache"), std::string::npos);
  EXPECT_GT(cg::cache::ArtifactCache::instance().stats().neg_hits,
            neg_before);

  // ...and the daemon is fine.
  EXPECT_TRUE(cli.ping().ok);
  RunRequest good;
  good.source = axpy_src("still_fine", "1.5");
  good.symbols["N"] = 32;
  EXPECT_TRUE(cli.run(good).ok);
  EXPECT_TRUE(srv.drain());
  cg::cache::ArtifactCache::reset_for_testing();
  fs::remove_all(cache_dir);
}

TEST(Serve, OverloadShedsWithRetryAfter) {
  std::string sock = test_socket();
  ServeConfig cfg = test_config(sock);
  cfg.workers = 1;
  cfg.queue_max = 1;
  Server srv(cfg);
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  // 8 near-simultaneous *distinct* jobs (distinct coefficients: no
  // dedup) against one worker and a one-slot queue: most must shed.
  const int kJobs = 8;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::atomic<int64_t> retry_hint{-1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kJobs; ++t) {
    threads.emplace_back([&, t] {
      Client cli = make_client(sock, /*retries=*/0);
      RunRequest req;
      req.source = axpy_src("shed", std::to_string(t) + ".25");
      req.symbols["N"] = 4000000;
      Reply r = cli.run(req);
      if (r.ok) {
        ok.fetch_add(1);
      } else if (r.code == "E607") {
        shed.fetch_add(1);
        retry_hint.store(json_find_int(r.payload, "retry_after_ms", -1));
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1) << "ok=" << ok << " other=" << other;
  EXPECT_GT(retry_hint.load(), 0) << "E607 must carry retry_after_ms";
  EXPECT_EQ(ok + shed + other, kJobs);
  EXPECT_EQ(srv.stats().shed, (uint64_t)shed.load());
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, ThirtyTwoClientsOneCompile) {
  // The dedup acceptance: 32 concurrent identical jobs produce exactly
  // one compile (31 dedup hits) and one committed cache artifact.
  std::string cache_dir = make_temp_dir();
  EnvGuard g1("DACE_CACHE", "1");
  EnvGuard g2("DACE_CACHE_DIR", cache_dir.c_str());
  EnvGuard g3("DACEPP_JIT_SYNC", "1");
  EnvGuard g4("DACEPP_JIT_THRESHOLD", "1");
  cg::cache::ArtifactCache::reset_for_testing();

  std::string sock = test_socket();
  ServeConfig cfg = test_config(sock);
  cfg.workers = 4;
  cfg.queue_max = 64;
  Server srv(cfg);
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  uint64_t jit_before = cg::jit_compile_count();
  RunRequest req;
  req.source = axpy_src("dedup32", "3.0");
  req.symbols["N"] = 4096;

  const int kClients = 32;
  std::vector<std::string> outputs(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions o;
      o.socket_path = sock;
      o.retries = 0;
      o.io_timeout_ms = 60000;
      Client cli(o);
      RunRequest r = req;
      r.id = "c" + std::to_string(t);
      Reply rep = cli.run(r);
      if (rep.ok) outputs[(size_t)t] = extract_outputs(rep.payload);
      else errors[(size_t)t] = rep.code + ": " + rep.message;
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kClients; ++t) {
    ASSERT_FALSE(outputs[(size_t)t].empty()) << "client " << t << " failed: "
                                             << errors[(size_t)t];
    EXPECT_EQ(outputs[(size_t)t], outputs[0]);
  }
  ServeStats st = srv.stats();
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(st.deduped, (uint64_t)(kClients - 1));
  EXPECT_EQ(st.completed, 1u);
  // Exactly one host-compiler invocation and one committed artifact.
  EXPECT_EQ(cg::jit_compile_count() - jit_before, 1u);
  EXPECT_EQ(cg::cache::ArtifactCache::instance().stats().commits, 1u);
  EXPECT_EQ(cg::cache::ArtifactCache::instance().list().size(), 1u);
  EXPECT_TRUE(srv.drain());
  cg::cache::ArtifactCache::reset_for_testing();
  fs::remove_all(cache_dir);
}

TEST(Serve, DeadlineCancelsJobAndDaemonSurvives) {
  std::string sock = test_socket();
  ServeConfig cfg = test_config(sock);
  cfg.wedge_grace_ms = 2000;  // cooperative cancel must win, not abandon
  Server srv(cfg);
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock, /*retries=*/0);

  RunRequest slow;
  slow.source = axpy_src("slow", "1.125");
  slow.symbols["N"] = 64000000;
  slow.deadline_ms = 40;
  Reply r = cli.run(slow);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "E608") << r.message;
  EXPECT_GE(srv.stats().deadline_exceeded, 1u);

  // The pool and daemon are reusable immediately.
  RunRequest quick;
  quick.source = axpy_src("quick", "1.5");
  quick.symbols["N"] = 64;
  Reply r2 = cli.run(quick);
  EXPECT_TRUE(r2.ok) << r2.code << ": " << r2.message;
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, WedgedJobIsAbandonedNotFatal) {
  std::string sock = test_socket();
  ServeConfig cfg = test_config(sock);
  cfg.deadline_ms = 100;
  cfg.wedge_grace_ms = 100;
  cfg.faults = ServeFaultPlan::parse("seed=1,wedge=1");  // every job wedges
  Server srv(cfg);
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  Client cli = make_client(sock, /*retries=*/0);

  RunRequest req;
  req.source = axpy_src("wedge", "2.0");
  req.symbols["N"] = 64;
  Reply r = cli.run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "E608");
  EXPECT_NE(r.message.find("wedged"), std::string::npos);
  EXPECT_GE(srv.stats().wedged, 1u);
  EXPECT_TRUE(cli.ping().ok) << "a wedged job must not kill the daemon";
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, MalformedFramesGetStructuredRepliesAndTheStreamCloses) {
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  // Garbage bytes: E600 reply, then the server closes the stream.
  {
    int fd = connect_raw(sock);
    std::string junk(64, 'Z');
    ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
              (ssize_t)junk.size());
    Decoded d = read_frame(fd, 2000, 1 << 20);
    ASSERT_EQ(d.status, Decoded::Ok);
    EXPECT_EQ(d.frame.verb, Verb::ReplyError);
    EXPECT_EQ(json_find_string(d.frame.payload, "code"), "E600");
    EXPECT_EQ(read_frame(fd, 2000, 1 << 20).status, Decoded::Eof);
    ::close(fd);
  }

  // Corrupt payload: E604.
  {
    int fd = connect_raw(sock);
    std::string bytes = encode_frame(Verb::Ping, "abcdef");
    bytes[kHeaderBytes + 2] ^= 0x40;
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              (ssize_t)bytes.size());
    Decoded d = read_frame(fd, 2000, 1 << 20);
    ASSERT_EQ(d.status, Decoded::Ok);
    EXPECT_EQ(json_find_string(d.frame.payload, "code"), "E604");
    ::close(fd);
  }

  // Malformed run body: E606, and the *connection survives* (body
  // errors are per-request, the stream is still framed).
  {
    int fd = connect_raw(sock);
    std::string w;
    ASSERT_TRUE(write_frame(fd, Verb::Run, "not a run request", &w));
    Decoded d = read_frame(fd, 2000, 1 << 20);
    ASSERT_EQ(d.status, Decoded::Ok);
    EXPECT_EQ(json_find_string(d.frame.payload, "code"), "E606");
    ASSERT_TRUE(write_frame(fd, Verb::Ping, "", &w));
    d = read_frame(fd, 2000, 1 << 20);
    ASSERT_EQ(d.status, Decoded::Ok);
    EXPECT_EQ(d.frame.verb, Verb::ReplyOk);
    ::close(fd);
  }

  // Mid-frame disconnect: no reply possible, daemon unharmed.
  {
    int fd = connect_raw(sock);
    std::string bytes = encode_frame(Verb::Run, std::string(512, 'p'));
    ASSERT_GT(::send(fd, bytes.data(), bytes.size() / 2, MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  EXPECT_GE(srv.stats().protocol_errors, 2u);
  Client cli = make_client(sock);
  EXPECT_TRUE(cli.ping().ok);
  EXPECT_TRUE(srv.drain());
}

TEST(Serve, DrainFinishesInFlightWorkAndExitsClean) {
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  // Put a moderately slow job in flight, then drain concurrently.
  std::string out;
  std::thread job([&] {
    Client cli = make_client(sock, 0);
    RunRequest req;
    req.source = axpy_src("draining", "2.5");
    req.symbols["N"] = 2000000;
    Reply r = cli.run(req);
    if (r.ok) out = extract_outputs(r.payload);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(srv.drain()) << "drain must not orphan the in-flight job";
  job.join();
  EXPECT_FALSE(out.empty()) << "the in-flight job must finish during drain";

  // After drain: socket gone, new daemon starts cleanly on the path.
  EXPECT_NE(access(sock.c_str(), F_OK), 0);
  Server again(test_config(sock));
  ASSERT_TRUE(again.start(&why)) << why;
  EXPECT_TRUE(make_client(sock).ping().ok);
  EXPECT_TRUE(again.drain());
}

TEST(Serve, DrainingDaemonRejectsNewWorkWithE610) {
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  // Hold a connection open, drain in the background, then submit on the
  // held connection: the reader is alive but must answer E610.
  int fd = connect_raw(sock);
  std::thread drainer([&] { srv.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  RunRequest req;
  req.source = axpy_src("late", "2.0");
  req.symbols["N"] = 64;
  std::string w;
  if (write_frame(fd, Verb::Run, format_run_request(req), &w)) {
    Decoded d = read_frame(fd, 2000, 1 << 20);
    if (d.status == Decoded::Ok) {
      EXPECT_EQ(json_find_string(d.frame.payload, "code"), "E610");
    }
  }
  ::close(fd);
  drainer.join();
}

TEST(Serve, StopReleasesAConnectionStuckOnAClientThatStoppedReading) {
  // A client that sends pings but never reads the replies fills both
  // socket buffers, until the daemon's reader blocks in send() holding
  // that connection's write lock.  stop() must still return: shutting the
  // connection down is what fails the blocked send.
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  int fd = connect_raw(sock);
  std::string one = encode_frame(Verb::Ping, "");
  std::string pings;
  for (int i = 0; i < 200000; ++i) pings += one;
  // Push without blocking until the daemon has stopped reading for a
  // while; partial sends resume mid-frame, so the stream stays framed.
  size_t off = 0;
  auto last = std::chrono::steady_clock::now();
  while (off < pings.size() &&
         std::chrono::steady_clock::now() - last <
             std::chrono::milliseconds(300)) {
    ssize_t w = ::send(fd, pings.data() + off, pings.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      off += (size_t)w;
      last = std::chrono::steady_clock::now();
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_LT(off, pings.size()) << "the daemon never stopped reading";
  auto stopped = std::async(std::launch::async, [&] { srv.stop(); });
  bool returned =
      stopped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(fd);  // lets a hung stop() finish, so the test can report it
  stopped.get();
  EXPECT_TRUE(returned) << "stop() waited on a writer blocked in send()";
}

TEST(Serve, StopReleasesAWorkerStuckReplyingToAHalfClosedClient) {
  // A Run reply far larger than the socket buffers, to a client that never
  // reads, blocks the worker in send() holding the connection's write
  // lock.  The client then half-closes, so the reader sees EOF and leaves
  // its loop while the worker is still stuck.  stop() must still return.
  std::string sock = test_socket();
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;
  int fd = connect_raw(sock);
  RunRequest req;
  req.source = axpy_src("stuck", "2.0");
  req.symbols["N"] = 16;
  req.id = std::string(2 << 20, 'x');  // echoed in the reply
  ASSERT_TRUE(write_frame(fd, Verb::Run, format_run_request(req), &why))
      << why;
  // The job counts as completed just before its reply is sent; once the
  // bytes queued at the client stop growing, the worker is in send().
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (srv.stats().completed == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(srv.stats().completed, 1u) << "the job never finished";
  int queued = -1;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    int now = 0;
    ASSERT_EQ(::ioctl(fd, FIONREAD, &now), 0);
    if (now == queued || std::chrono::steady_clock::now() > give_up) break;
    queued = now;
  }
  ASSERT_LT((size_t)queued, req.id.size())
      << "the reply fit in the socket buffers";
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  // Let the reader see EOF and leave its loop before stop() runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto stopped = std::async(std::launch::async, [&] { srv.stop(); });
  bool returned =
      stopped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(fd);  // lets a hung stop() finish, so the test can report it
  stopped.get();
  EXPECT_TRUE(returned) << "stop() waited on a worker blocked in send()";
}

TEST(Serve, StaleSocketIsRecoveredLiveAndSymlinkRefused) {
  std::string sock = test_socket();

  // Plant a stale socket file (bind, close, no unlink: a crashed daemon).
  {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, sock.c_str(), sizeof(sa.sun_path) - 1);
    ASSERT_EQ(::bind(fd, (struct sockaddr*)&sa, sizeof(sa)), 0);
    ::close(fd);
  }
  ASSERT_EQ(access(sock.c_str(), F_OK), 0);
  Server srv(test_config(sock));
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;  // recovery: unlink + rebind
  EXPECT_TRUE(make_client(sock).ping().ok);

  // A second daemon must refuse to shadow the live one.
  Server shadow(test_config(sock));
  EXPECT_FALSE(shadow.start(&why));
  EXPECT_TRUE(srv.drain());

  // A symlinked socket path refuses to start at all.
  std::string target = sock + ".target";
  std::string link = sock + ".link";
  ASSERT_EQ(symlink(target.c_str(), link.c_str()), 0);
  ServeConfig cfg = test_config(link);
  Server lsrv(cfg);
  EXPECT_FALSE(lsrv.start(&why));
  EXPECT_NE(why.find("symlink"), std::string::npos);
  ::unlink(link.c_str());
}

// ---------------------------------------------------------------------------
// ServeChaos: the seeded connection-level fault sweep
// ---------------------------------------------------------------------------

TEST(ServeChaos, DaemonSurvivesFaultPlanWithBitIdenticalSurvivors) {
  uint64_t seed = 1;
  if (const char* e = std::getenv("DACE_SERVE_FAULT_SEED")) {
    if (*e) seed = (uint64_t)std::atoll(e);
  }
  ServeFaultPlan plan;
  plan.seed = seed;
  plan.disconnect_prob = 0.12;
  plan.slow_prob = 0.08;
  plan.corrupt_prob = 0.12;
  plan.crash_prob = 0.10;
  plan.wedge_prob = 0.05;
  plan.storm_prob = 0.10;

  const int kPrograms = 4;
  std::vector<RunRequest> reqs;
  for (int p = 0; p < kPrograms; ++p) {
    RunRequest r;
    r.source = axpy_src("chaos", std::to_string(p) + ".5");
    r.symbols["N"] = 512;
    reqs.push_back(r);
  }

  // Unfaulted baseline: the bit-exact outputs every surviving chaos job
  // must reproduce.
  std::vector<std::string> baseline(kPrograms);
  {
    std::string sock = test_socket();
    Server srv(test_config(sock));
    std::string why;
    ASSERT_TRUE(srv.start(&why)) << why;
    Client cli = make_client(sock);
    for (int p = 0; p < kPrograms; ++p) {
      Reply r = cli.run(reqs[(size_t)p]);
      ASSERT_TRUE(r.ok) << r.code << ": " << r.message;
      baseline[(size_t)p] = extract_outputs(r.payload);
      ASSERT_FALSE(baseline[(size_t)p].empty());
    }
    ASSERT_TRUE(srv.drain());
  }

  // Chaos run: server-side job faults + client-side connection faults,
  // both driven from the same seeded plan.
  std::string sock = test_socket();
  ServeConfig cfg = test_config(sock);
  cfg.deadline_ms = 2000;
  cfg.wedge_grace_ms = 150;
  cfg.io_timeout_ms = 250;  // slow-loris dribble can trip E603
  cfg.faults = plan;
  Server srv(cfg);
  std::string why;
  ASSERT_TRUE(srv.start(&why)) << why;

  uint64_t injected_before = faults_injected();
  const int kRounds = 3;
  std::atomic<int> survivors{0}, casualties{0}, mismatches{0};
  std::vector<std::thread> threads;
  for (int round = 0; round < kRounds; ++round) {
    for (int p = 0; p < kPrograms; ++p) {
      threads.emplace_back([&, p] {
        ClientOptions o;
        o.socket_path = sock;
        o.retries = 2;
        o.io_timeout_ms = 5000;
        o.faults = plan;  // chaos writes
        Client cli(o);
        Reply r = cli.run(reqs[(size_t)p]);
        if (!r.ok) {
          casualties.fetch_add(1);
          return;
        }
        survivors.fetch_add(1);
        if (extract_outputs(r.payload) != baseline[(size_t)p])
          mismatches.fetch_add(1);
      });
    }
  }
  for (auto& t : threads) t.join();

  // The differential oracle: no surviving job may differ from the
  // unfaulted baseline, and the daemon must still be alive.
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(faults_injected(), injected_before)
      << "the plan must actually inject faults";
  Client clean = make_client(sock);  // fault-free probe client
  EXPECT_TRUE(clean.ping().ok) << "daemon died under the fault plan";
  Reply st = clean.stats();
  ASSERT_TRUE(st.ok);
  EXPECT_TRUE(srv.drain()) << "drain must stay clean after chaos";
  // Sanity: the sweep did real work (some jobs survive under retries).
  EXPECT_GT(survivors.load() + casualties.load(), 0);
}

}  // namespace
}  // namespace dace
