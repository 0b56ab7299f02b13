// dist-replay: deterministic re-execution of a simMPI communication trace.
//
// A chaos run recorded with DACE_COMM_TRACE=file (or World::enable_trace)
// captures the full per-rank message schedule.  This tool re-executes
// that schedule -- real sends, recvs and collectives over a fresh World
// -- optionally under a fault plan, so any failure found by a randomized
// chaos sweep is reproducible from the trace plus its seed:
//
//   DACE_COMM_TRACE=run.trace DACE_FAULT_PLAN=seed=7,drop=0.05 ctest ...
//   dist-replay --plan seed=7,drop=0.05 run.trace
//
// Exit codes: 0 = replay completed cleanly, 2 = rank failures were
// reproduced (details printed), 1 = usage or parse error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/obs.hpp"
#include "distributed/dist_kernels.hpp"
#include "distributed/simmpi.hpp"

namespace {

using namespace dace;
using dist::Comm;
using dist::World;

struct Op {
  std::string kind;  // "send", "recv", or a collective name
  int peer = -1, tag = -1, root = -1;
  int64_t count = 0, block = 0, stride = 0;  // p2p; collectives use count=n
  double cost = 0;                            // sync only
};

struct Trace {
  int nranks = 0;
  std::string net = "cray-mpi";
  std::vector<std::vector<Op>> per_rank;
};

dist::NetModel net_by_name(const std::string& name) {
  if (name == "gasnet") return dist::NetModel::gasnet();
  if (name == "tcp") return dist::NetModel::tcp();
  return dist::NetModel::mpi_cray();
}

Trace parse_trace(std::istream& in) {
  Trace t;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# dacepp-comm-trace v1 nranks=N net=NAME"
      std::istringstream hs(line);
      std::string tok;
      while (hs >> tok) {
        if (tok.rfind("nranks=", 0) == 0) t.nranks = std::stoi(tok.substr(7));
        if (tok.rfind("net=", 0) == 0) t.net = tok.substr(4);
      }
      continue;
    }
    std::istringstream is(line);
    std::string kind;
    int rank;
    Op op;
    is >> kind >> rank;
    if (kind == "send" || kind == "recv") {
      op.kind = kind;
      is >> op.peer >> op.tag >> op.count >> op.block >> op.stride;
    } else if (kind == "coll") {
      is >> op.kind >> op.count >> op.root;
      if (!(is >> op.cost)) op.cost = 0;
    } else {
      throw err("dist-replay: unrecognized op '", kind, "' at line ", lineno);
    }
    DACE_CHECK(!is.fail(), "dist-replay: malformed line ", lineno, ": ", line);
    DACE_CHECK(rank >= 0, "dist-replay: bad rank at line ", lineno);
    if (rank >= (int)t.per_rank.size()) t.per_rank.resize((size_t)rank + 1);
    t.per_rank[(size_t)rank].push_back(op);
  }
  if (t.nranks == 0) t.nranks = (int)t.per_rank.size();
  DACE_CHECK(t.nranks >= 1, "dist-replay: empty trace");
  t.per_rank.resize((size_t)t.nranks);
  return t;
}

/// Re-execute one rank's recorded schedule with synthetic payloads.
void replay_rank(Comm& c, const std::vector<Op>& ops) {
  int p = c.size();
  for (const Op& op : ops) {
    if (op.kind == "send") {
      std::vector<double> buf((size_t)(op.count * op.block), 1.0);
      c.send_vector(buf.data(), op.count, op.block, op.block, op.peer, op.tag);
    } else if (op.kind == "recv") {
      std::vector<double> buf((size_t)(op.count * op.block));
      c.recv_vector(buf.data(), op.count, op.block, op.block, op.peer, op.tag);
    } else if (op.kind == "barrier") {
      c.barrier();
    } else if (op.kind == "sync") {
      c.charge_sync(op.cost);
    } else if (op.kind == "bcast") {
      std::vector<double> buf((size_t)op.count, (double)c.rank());
      c.bcast(buf.data(), op.count, op.root);
    } else if (op.kind == "allreduce") {
      std::vector<double> buf((size_t)op.count, 1.0);
      c.allreduce_sum(buf.data(), op.count);
    } else if (op.kind == "reduce") {
      std::vector<double> sb((size_t)op.count, 1.0), rb((size_t)op.count);
      c.reduce_sum(sb.data(), rb.data(), op.count, op.root);
    } else if (op.kind == "scatter") {
      std::vector<double> sb((size_t)(op.count * p), 1.0), rb((size_t)op.count);
      c.scatter(sb.data(), rb.data(), op.count, op.root);
    } else if (op.kind == "gather") {
      std::vector<double> sb((size_t)op.count, 1.0), rb((size_t)(op.count * p));
      c.gather(sb.data(), rb.data(), op.count, op.root);
    } else if (op.kind == "allgather") {
      std::vector<double> sb((size_t)op.count, 1.0), rb((size_t)(op.count * p));
      c.allgather(sb.data(), rb.data(), op.count);
    } else {
      throw err("dist-replay: cannot replay op '", op.kind, "'");
    }
  }
}

int replay(const Trace& t, const dist::FaultPlan& plan,
           const dist::CommConfig& cfg, bool quiet) {
  World w(t.nranks, net_by_name(t.net));
  w.set_fault_plan(plan);
  w.set_comm_config(cfg);
  bool failed = false;
  try {
    w.run([&](Comm& c) { replay_rank(c, t.per_rank[(size_t)c.rank()]); });
  } catch (const dist::DistError& e) {
    failed = true;
    if (!quiet) std::printf("%s\n", e.what());
  }
  if (!quiet) {
    std::printf("replay: %d ranks, %lld messages, %lld bytes, %lld retries, "
                "virtual time %.6es\n",
                t.nranks, (long long)w.total_messages(),
                (long long)w.total_bytes(), (long long)w.total_retries(),
                w.max_clock());
    auto events = w.fault_events();
    if (!events.empty()) {
      std::printf("injected faults (%zu):\n", events.size());
      for (const auto& e : events)
        std::printf("  %s\n", e.to_string().c_str());
    }
    if (!plan.to_string().empty())
      std::printf("fault plan: %s\n", plan.to_string().c_str());
  }
  return failed ? 2 : 0;
}

int selftest() {
  // Record a small run (halo ring + collectives), then verify (a) the
  // trace replays cleanly with identical message counts and (b) a seeded
  // chaos replay is deterministic: same seed => identical fault events.
  const int P = 4;
  World rec(P);
  rec.enable_trace("");  // in-memory
  rec.run([&](Comm& c) {
    int right = (c.rank() + 1) % P, left = (c.rank() + P - 1) % P;
    std::vector<double> out(64, (double)c.rank()), in(64);
    c.send(out.data(), 64, right, 5);
    c.recv(in.data(), 64, left, 5);
    double s = in[0];
    c.allreduce_sum(&s, 1);
    c.bcast(s == 0 ? out.data() : in.data(), 8, 0);
    c.barrier();
  });
  int64_t want_msgs = rec.total_messages();

  std::ostringstream blob;
  for (const auto& line : rec.trace_lines()) blob << line << "\n";
  std::istringstream in(blob.str());
  Trace t = parse_trace(in);
  DACE_CHECK(t.nranks == P, "selftest: header nranks mismatch");

  World w1(t.nranks, net_by_name(t.net));
  w1.run([&](Comm& c) { replay_rank(c, t.per_rank[(size_t)c.rank()]); });
  DACE_CHECK(w1.total_messages() == want_msgs,
             "selftest: replay moved ", w1.total_messages(),
             " messages, recorded run moved ", want_msgs);

  dist::FaultPlan plan = dist::FaultPlan::parse("seed=7,drop=0.2,dup=0.1");
  auto run_chaos = [&] {
    World w(t.nranks, net_by_name(t.net));
    w.set_fault_plan(plan);
    w.run([&](Comm& c) { replay_rank(c, t.per_rank[(size_t)c.rank()]); });
    std::vector<std::string> ev;
    for (const auto& e : w.fault_events()) ev.push_back(e.to_string());
    std::sort(ev.begin(), ev.end());
    return ev;
  };
  auto e1 = run_chaos(), e2 = run_chaos();
  DACE_CHECK(!e1.empty(), "selftest: chaos replay injected no faults");
  DACE_CHECK(e1 == e2, "selftest: chaos replay is not deterministic");
  std::printf("dist-replay selftest OK (%lld messages, %zu chaos events)\n",
              (long long)want_msgs, e1.size());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: dist-replay [--plan SPEC] [--seed N] [--timeout S] "
               "[--retries N] [--trace OUT.json] [--quiet] TRACE\n"
               "       dist-replay --selftest\n"
               "  --trace OUT.json  re-emit the replayed schedule as a\n"
               "                    Chrome/Perfetto timeline (per-rank\n"
               "                    virtual clocks, faults as instants)\n");
}

}  // namespace

int main(int argc, char** argv) {
  dist::FaultPlan plan;
  dist::CommConfig cfg;
  std::string path;
  std::string trace_out;
  bool quiet = false;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      auto val = [&]() -> std::string {
        DACE_CHECK(i + 1 < argc, "dist-replay: ", a, " needs a value");
        return argv[++i];
      };
      if (a == "--selftest") return selftest();
      if (a == "--plan") plan = dist::FaultPlan::parse(val());
      else if (a == "--seed") plan.seed = (uint64_t)std::stoull(val());
      else if (a == "--timeout") cfg.timeout_s = std::stod(val());
      else if (a == "--retries") cfg.max_retries = std::stoi(val());
      else if (a == "--trace") trace_out = val();
      else if (a == "--quiet") quiet = true;
      else if (a == "--help" || a == "-h") { usage(); return 0; }
      else if (!a.empty() && a[0] == '-') throw err("unknown option ", a);
      else path = a;
    }
    if (path.empty()) { usage(); return 1; }
    std::ifstream f(path);
    DACE_CHECK(f.good(), "dist-replay: cannot open ", path);
    Trace t = parse_trace(f);
    if (!trace_out.empty()) {
      obs::set_enabled(true);
      obs::clear();
    }
    int rc = replay(t, plan, cfg, quiet);
    if (!trace_out.empty()) {
      DACE_CHECK(obs::write_trace(trace_out), "dist-replay: cannot write ",
                 trace_out);
      if (!quiet)
        std::printf("timeline written to %s (%zu events)\n",
                    trace_out.c_str(), obs::event_count());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist-replay: %s\n", e.what());
    return 1;
  }
}
