// sdfg-serve: long-lived compile-and-serve daemon (src/serve/*).
//
// Usage:
//   sdfg-serve              (settings from DACE_SERVE_*, docs/RUNTIME.md)
//   sdfg-serve --selftest
//
// Accepts DaCeLang compile-and-run jobs over a unix-domain socket using
// the DSRV frame protocol (docs/SERVE.md).  SIGTERM/SIGINT trigger a
// graceful drain: stop accepting, answer new work with E610, finish or
// deadline-out in-flight jobs, flush obs:: counters, exit 0.  A stale
// socket left by a crashed daemon is recovered at startup; a live
// daemon on the same path, or a symlinked path, refuses to start.
//
// --selftest runs a full in-process lifecycle against a private socket:
// start, ping, run, protocol abuse, stats, drain, restart recovery.
//
// Exit codes: 0 = clean drain / selftest pass, 1 = startup or drain
// failure / selftest failure, 64 = usage error (including a malformed or
// out-of-range DACE_SERVE_* setting).
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace dace::serve;

namespace {

int usage() {
  std::cerr << "usage: sdfg-serve [--selftest]  (settings: DACE_SERVE_*, "
               "docs/RUNTIME.md)\n";
  return 64;
}

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

void install_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Selftest
// ---------------------------------------------------------------------------

#define ST_CHECK(cond)                                                   \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::cerr << "selftest FAILED at " << __LINE__ << ": " #cond "\n"; \
      return 1;                                                          \
    }                                                                    \
  } while (0)

const char kProgram[] =
    "@dace.program\n"
    "def st_axpy(A: dace.float64[N], B: dace.float64[N]):\n"
    "    for i in dace.map[0:N]:\n"
    "        B[i] = 2.0 * A[i] + B[i]\n";

int selftest() {
  std::string sock = "/tmp/dacepp-serve-selftest-" +
                     std::to_string((long)getpid()) + ".sock";
  ::unlink(sock.c_str());

  ServeConfig cfg;
  cfg.socket_path = sock;
  cfg.workers = 2;
  cfg.queue_max = 8;
  cfg.deadline_ms = 10000;

  Server srv(cfg);
  std::string why;
  ST_CHECK(srv.start(&why));

  ClientOptions copts;
  copts.socket_path = sock;
  Client cli(copts);

  // Liveness and stats.
  ST_CHECK(cli.ping().ok);
  Reply st = cli.stats();
  ST_CHECK(st.ok);
  ST_CHECK(json_find_int(st.payload, "accepted", -1) == 0);

  // A real job round-trips with deterministic output checksums.
  RunRequest req;
  req.source = kProgram;
  req.symbols["N"] = 16;
  req.id = "st-1";
  Reply r1 = cli.run(req);
  ST_CHECK(r1.ok);
  ST_CHECK(json_find_string(r1.payload, "id") == "st-1");
  ST_CHECK(!extract_outputs(r1.payload).empty());
  Reply r2 = cli.run(req);
  ST_CHECK(r2.ok);
  ST_CHECK(extract_outputs(r2.payload) == extract_outputs(r1.payload));

  // A compile error is a structured E611, not a dead daemon.
  RunRequest bad;
  bad.source = "def broken(:\n";
  Reply rb = cli.run(bad);
  ST_CHECK(!rb.ok && rb.code == "E611");
  ST_CHECK(cli.ping().ok);

  // A second daemon refuses to shadow the live socket.
  {
    Server shadow(cfg);
    std::string w2;
    ST_CHECK(!shadow.start(&w2));
    ST_CHECK(w2.find("live daemon") != std::string::npos ||
             w2.find("lock") != std::string::npos);
  }

  // Drain: zero orphans, socket removed.
  ST_CHECK(srv.drain());
  ST_CHECK(access(sock.c_str(), F_OK) != 0);

  // Crash-only restart recovery: plant a stale socket file, then start.
  {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, sock.c_str(), sizeof(sa.sun_path) - 1);
    ST_CHECK(::bind(fd, (struct sockaddr*)&sa, sizeof(sa)) == 0);
    ::close(fd);  // no unlink: the stale file stays behind
    Server again(cfg);
    std::string w3;
    ST_CHECK(again.start(&w3));
    ClientOptions c2;
    c2.socket_path = sock;
    ST_CHECK(Client(c2).ping().ok);
    ST_CHECK(again.drain());
  }

  std::cout << "sdfg-serve selftest ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig cfg;
  try {
    cfg = ServeConfig::from_env();
  } catch (const dace::Error& e) {
    std::cerr << "sdfg-serve: " << e.what() << "\n";
    return 64;
  }
  if (argc == 2 && std::string(argv[1]) == "--selftest") return selftest();
  if (argc > 1) return usage();

  install_handlers();
  Server srv(cfg);
  std::string why;
  if (!srv.start(&why)) {
    std::cerr << "sdfg-serve: " << why << "\n";
    return 1;
  }
  std::cerr << "sdfg-serve: listening on " << srv.socket_path() << "\n";

  while (g_signal.load() == 0 && srv.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  int sig = g_signal.load();
  std::cerr << "sdfg-serve: "
            << (sig == SIGTERM ? "SIGTERM" : sig == SIGINT ? "SIGINT" : "stop")
            << " received, draining\n";
  bool clean = srv.drain();
  std::cerr << "sdfg-serve: drained " << (clean ? "cleanly" : "with orphans")
            << "\n";
  return clean ? 0 : 1;
}
