// simMPI: an in-process message-passing substrate.
//
// Stands in for MPI on the Cray Aries network of Piz Daint (Section 4):
// ranks run as threads over private heaps, point-to-point messages and
// collectives move real data, and every operation advances per-rank
// *virtual clocks* through an alpha-beta (latency/bandwidth) network
// model with log-P collective trees.  Weak-scaling efficiency (Fig. 12)
// is therefore determined -- as on the real machine -- by the
// communication volume and structure of the executed schedule relative to
// modeled local compute, while results remain bit-identical to the
// shared-memory execution.
//
// The interface follows the MPI subset the paper uses: Isend/Irecv/
// Waitall, Scatter(v)/Gather(v)/Bcast/Allreduce/Reduce/Barrier, and
// Cartesian grid helpers.
//
// Resilience (distributed/faults.hpp): channels are sequence-numbered and
// reliable -- a seeded FaultPlan may drop, delay, duplicate or reorder
// transmissions, and the transport retransmits dropped messages with
// exponential backoff charged to the virtual clock, so results stay
// bit-identical while retries show up in the modeled time.  Every op
// carries a wall-clock deadline turning silent hangs into CommTimeout;
// crashed ranks are detected by their peers (PeerFailed), tolerant
// collectives (barrier, allreduce) re-form over the survivors, and
// World::run aggregates all per-rank failures into one DistError.
// DACE_COMM_TRACE=file records the full message schedule for
// deterministic replay (tools/dist-replay).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/common.hpp"
#include "distributed/faults.hpp"

namespace dace::dist {

/// Alpha-beta network model.
struct NetModel {
  std::string name = "aries";
  double alpha_s = 1.5e-6;      // per-message latency
  double bandwidth = 10e9;      // bytes/s per link
  double p2p(int64_t bytes) const {
    return alpha_s + (double)bytes / bandwidth;
  }
  /// Cray-MPI-like defaults; dasklike/legatelike substitute TCP/GASNet
  /// parameters.
  static NetModel mpi_cray() { return NetModel{"cray-mpi", 1.5e-6, 10e9}; }
  static NetModel gasnet() { return NetModel{"gasnet", 4e-6, 8e9}; }
  static NetModel tcp() { return NetModel{"tcp", 150e-6, 1.2e9}; }
};

/// Modeled per-rank compute node (one Piz Daint socket).
struct NodeModel {
  double flop_rate = 8e9;      // sustained FLOP/s per rank
  double mem_bandwidth = 30e9; // bytes/s per rank
  double compute_time(uint64_t flops, uint64_t bytes) const {
    double tf = (double)flops / flop_rate;
    double tm = (double)bytes / mem_bandwidth;
    return tf > tm ? tf : tm;
  }
};

class Comm;

/// A set of ranks executing a function in parallel (threads).
class World {
 public:
  World(int nranks, NetModel net = NetModel::mpi_cray());
  ~World();

  int size() const { return nranks_; }
  const NetModel& net() const { return net_; }

  /// Run fn on every rank concurrently; returns when all complete.
  /// Per-rank failures are aggregated into one DistError; surviving
  /// ranks keep running (tolerant collectives re-form over them).
  void run(const std::function<void(Comm&)>& fn);

  /// Max of the per-rank virtual clocks after the last run.
  double max_clock() const;
  /// Total bytes moved / messages sent during the last run.
  int64_t total_bytes() const { return total_bytes_; }
  int64_t total_messages() const { return total_messages_; }
  /// Retransmissions the reliable transport performed during the last run.
  int64_t total_retries() const { return total_retries_; }

  // -- chaos / resilience configuration --------------------------------------
  /// Install a seeded fault schedule (overrides DACE_FAULT_PLAN/SEED).
  void set_fault_plan(const FaultPlan& p) { fault_plan_ = p; }
  /// Override timeouts/retries (default: CommConfig{}).
  void set_comm_config(const CommConfig& c) { comm_cfg_ = c; }

  /// Every fault injected during the last run, in injection order.
  std::vector<FaultEvent> fault_events() const;
  /// Ranks that failed (crashed, stalled out, or threw) in the last run.
  std::vector<int> failed_ranks() const;

  // -- trace / replay ---------------------------------------------------------
  /// Record the message schedule; written to `path` ("" = in-memory only)
  /// when the run ends.  Also enabled by DACE_COMM_TRACE=file.
  void enable_trace(const std::string& path = "");
  const std::vector<std::string>& trace_lines() const { return trace_; }

 private:
  friend class Comm;

  struct Message {
    std::vector<double> data;
    double arrival = 0;  // virtual time the payload is available
    uint64_t seq = 0;    // per-channel sequence number (dedup/reorder)
  };
  struct MailboxKey {
    int src, dst, tag;
    bool operator<(const MailboxKey& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  void mark_dead(int rank);
  void record_event(const FaultEvent& e);  // acquires mu_
  void trace_line(const std::string& s);   // acquires mu_
  int alive_locked() const { return nranks_ - coll_dead_count_; }

  int nranks_;
  NetModel net_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<MailboxKey, std::deque<Message>> mailboxes_;
  std::map<MailboxKey, uint64_t> send_seq_;
  std::map<MailboxKey, uint64_t> recv_seq_;
  std::vector<double> clocks_;
  std::vector<char> dead_;     // guarded by mu_
  int64_t total_bytes_ = 0;
  int64_t total_messages_ = 0;
  int64_t total_retries_ = 0;
  std::vector<FaultEvent> events_;  // guarded by mu_
  bool tracing_ = false;
  std::string trace_path_;
  std::vector<std::string> trace_;  // guarded by mu_
  std::vector<RankFailure> last_failures_;  // stable after run() returns

  FaultPlan fault_plan_;
  CommConfig comm_cfg_;

  // Collective rendezvous (two-phase).
  std::mutex coll_mu_;
  std::condition_variable coll_cv_;
  int coll_arrived_ = 0;
  uint64_t coll_phase_ = 0;
  const void* coll_root_data_ = nullptr;
  bool coll_root_set_ = false;
  double coll_max_clock_ = 0;
  int coll_dead_count_ = 0;  // guarded by coll_mu_
};

/// One rank's endpoint.
class Comm {
 public:
  Comm(World& world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_.nranks_; }

  // -- virtual time -----------------------------------------------------------
  double clock() const;
  /// Charge local compute (from the node model) to this rank's clock.
  void add_time(double seconds);
  /// Synchronize all ranks and charge `cost` (a modeled collective whose
  /// data movement happened through shared memory). Crash-tolerant.
  void charge_sync(double cost);
  const NetModel& world_net() const { return world_.net_; }

  /// Label included in failure diagnoses (e.g. "pgemm.ring round 3").
  void set_context(std::string ctx) { ctx_ = std::move(ctx); }
  const std::string& context() const { return ctx_; }

  // -- point-to-point -----------------------------------------------------------
  void send(const double* buf, int64_t n, int dst, int tag);
  /// Strided send (MPI vector datatype): `count` blocks of `block` elems
  /// with `stride` elems between block starts.
  void send_vector(const double* buf, int64_t count, int64_t block,
                   int64_t stride, int dst, int tag);
  void recv(double* buf, int64_t n, int src, int tag);
  void recv_vector(double* buf, int64_t count, int64_t block, int64_t stride,
                   int src, int tag);

  struct Request {
    bool is_send = false;
    double* buf = nullptr;
    int64_t count = 0, block = 0, stride = 0;
    int peer = -1, tag = 0;
    bool done = true;
  };
  Request isend(const double* buf, int64_t count, int64_t block,
                int64_t stride, int dst, int tag);
  Request irecv(double* buf, int64_t count, int64_t block, int64_t stride,
                int src, int tag);
  void wait(Request& r);
  void waitall(std::vector<Request>& rs);

  // -- collectives ---------------------------------------------------------------
  // barrier and allreduce_sum are algebraically tolerant of crashed ranks
  // (they re-form over the survivors); the rooted/data-complete ops fail
  // fast with a PeerFailed diagnosis naming the dead ranks.
  void barrier();
  void bcast(double* buf, int64_t n, int root);
  /// Contiguous equal-block scatter/gather (1-D block distribution).
  void scatter(const double* sendbuf, double* recvbuf, int64_t n_per_rank,
               int root);
  void gather(const double* sendbuf, double* recvbuf, int64_t n_per_rank,
              int root);
  void allgather(const double* sendbuf, double* recvbuf, int64_t n_per_rank);
  void allreduce_sum(double* buf, int64_t n);
  void reduce_sum(const double* sendbuf, double* recvbuf, int64_t n, int root);

 private:
  /// Root sentinel: the first rank to arrive publishes its buffer as the
  /// shared staging area (used by the crash-tolerant collectives, whose
  /// fixed root may be dead).
  static constexpr int kRootFirstArriver = -2;

  /// Two-phase rendezvous: every *live* rank reaches this point;
  /// `root_data` of `root` is visible to all during the exchange
  /// callback; clocks jump to max(clocks) + cost.  `tolerant` collectives
  /// complete over surviving ranks; intolerant ones throw PeerFailed when
  /// any rank has died.  Returns the shared staging pointer.
  const void* rendezvous(const char* opname, const void* root_data, int root,
                         double cost, bool tolerant,
                         const std::function<void(const void*)>& exchange);

  /// Per-op bookkeeping: trace recording plus stall/crash injection.
  /// `peer`/`tag` are -1 for collectives; `cost` is recorded for ops whose
  /// charge cannot be recomputed from the trace (charge_sync).
  void on_comm_op(const char* op, int peer, int tag, int64_t n,
                  int64_t block = 0, int64_t stride = 0, int root = -1,
                  double cost = 0);

  [[noreturn]] void throw_timeout(const char* op, int peer, int tag,
                                  int64_t bytes);
  [[noreturn]] void throw_peer_failed(const char* op, int peer, int tag,
                                      int64_t bytes);
  std::string where() const;  // " during <ctx>" suffix, "" if unset

  World& world_;
  int rank_;
  int64_t op_index_ = 0;  // per-rank comm-op counter (fault plan domain)
  std::string ctx_;
};

/// RAII op-context label for failure diagnoses.
struct OpContext {
  OpContext(Comm& c, std::string ctx) : c_(c) { c_.set_context(std::move(ctx)); }
  ~OpContext() { c_.set_context(""); }
  Comm& c_;
};

}  // namespace dace::dist
