// sdfg-serve daemon core (ROADMAP item 2: the long-lived half of the
// compile-and-serve architecture, on top of the PR-8 artifact cache).
//
// One Server owns a unix-domain listening socket and four thread roles:
//
//   accept loop   -- accepts connections, spawns one reader per conn
//   readers       -- decode frames (protocol.hpp), answer Ping/Stats
//                    inline, run admission control for Run jobs
//   worker pool   -- drain the weighted fair queue; each job runs in an
//                    *abandonable* detached thread so a wedged executor
//                    can be abandoned without killing the daemon
//   watchdog      -- fires cooperative cancellation at each job's
//                    deadline and abandons jobs that ignore it past the
//                    wedge grace period
//
// Robustness contract (docs/SERVE.md):
//   - admission control: the queue is bounded; past the bound, new Run
//     frames are shed immediately with E607 + retry_after_ms
//   - weighted fair queueing: start-time fair queuing across client
//     connections so one chatty client cannot starve the rest
//   - in-flight dedup: concurrent requests with one request_key share a
//     single compile-and-run; subscribers attach to the winner, and a
//     failed compile fans the same E611 to every waiter (a resubmission
//     compiles again and repeats the diagnostics)
//   - deadlines: cooperative cancel via ExecutorOptions::cancel_check;
//     jobs that ignore it are abandoned (E608) after the wedge grace
//   - graceful drain: stop accepting, E610 to new work, finish or
//     deadline-out in-flight jobs, flush obs:: counters
//   - crash-only restart: a stale socket file from a dead daemon is
//     probed (connect) and recovered (unlink); a live daemon refuses to
//     be shadowed; a symlinked socket path refuses to start at all
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace dace::serve {

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

struct ServeConfig {
  std::string socket_path;       // "" = default_socket_path()
  int workers = 4;               // job worker threads
  int queue_max = 64;            // admission bound (jobs queued, not running)
  int64_t deadline_ms = 30000;   // default per-job deadline
  int64_t wedge_grace_ms = 500;  // cancel-to-abandon grace
  int io_timeout_ms = 2000;      // per-read poll deadline (slow-loris bound)
  int max_frame_kb = 4096;       // payload cap (E602)
  int64_t drain_timeout_ms = 10000;  // drain() wait bound
  ServeFaultPlan faults;         // server-side job faults (chaos tests)

  size_t max_payload() const { return (size_t)max_frame_kb * 1024; }

  /// DACE_SERVE_SOCKET/_WORKERS/_QUEUE_MAX/_DEADLINE_MS/_WEDGE_GRACE_MS/
  /// _IO_TIMEOUT_MS/_MAX_FRAME_KB/_DRAIN_TIMEOUT_MS/_FAULTS/_FAULT_SEED.
  /// Throws dace::Error on a malformed value, on workers outside 1..64,
  /// on a queue bound, deadline, I/O timeout or frame cap below 1, and on
  /// a wedge grace or drain timeout below 0.
  static ServeConfig from_env();
};

/// Default socket path: $XDG_RUNTIME_DIR/dacepp-serve-UID.sock, else
/// ~/.cache/dacepp/serve-UID.sock, else /tmp/dacepp-serve-UID.sock
/// (same XDG preference order as the artifact cache root).
std::string default_socket_path();

// ---------------------------------------------------------------------------
// Weighted fair queue (start-time fair queuing across connections)
// ---------------------------------------------------------------------------

/// Bounded weighted fair queue.  Each item belongs to a flow (one client
/// connection); an item's virtual finish time is
///   vft = max(vclock, flow's last vft) + 1/weight
/// and pop() always takes the smallest vft, so a flow with weight w gets
/// a w-proportional share of dequeues while light flows never wait
/// behind a burst from a heavy one.  Not thread-safe; the Server guards
/// it with its queue mutex.
template <typename T>
class FairQueue {
 public:
  explicit FairQueue(size_t bound) : bound_(bound) {}

  bool full() const { return items_.size() >= bound_; }
  size_t size() const { return items_.size(); }

  /// False when the queue is at its admission bound (caller sheds).
  bool push(T item, uint64_t flow, int weight) {
    if (full()) return false;
    double last = 0;
    auto it = flow_vft_.find(flow);
    if (it != flow_vft_.end()) last = it->second;
    double vft = std::max(vclock_, last) + 1.0 / (double)std::max(weight, 1);
    flow_vft_[flow] = vft;
    items_.push_back(Entry{vft, seq_++, std::move(item)});
    return true;
  }

  std::optional<T> pop() {
    if (items_.empty()) return std::nullopt;
    size_t best = 0;
    for (size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].vft < items_[best].vft ||
          (items_[i].vft == items_[best].vft &&
           items_[i].seq < items_[best].seq))
        best = i;
    }
    vclock_ = std::max(vclock_, items_[best].vft);
    T out = std::move(items_[best].item);
    items_.erase(items_.begin() + (long)best);
    return out;
  }

  /// Drop a finished flow's bookkeeping (connection closed).
  void forget_flow(uint64_t flow) { flow_vft_.erase(flow); }

 private:
  struct Entry {
    double vft;
    uint64_t seq;  // FIFO tiebreak at equal vft
    T item;
  };
  size_t bound_;
  uint64_t seq_ = 0;
  double vclock_ = 0;
  std::vector<Entry> items_;
  std::map<uint64_t, double> flow_vft_;
};

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Monotonic serve counters (the Stats verb and obs:: "serve" instants
/// mirror these; sdfg-prof aggregates the trace side).  They count per
/// daemon, not per process: a process may run several daemons (perfbench
/// `serve_cold` starts a set-up daemon per sample beside the one whose
/// Stats it reads), and the registry's dacepp_serve_* totals add them up.
struct ServeStats {
  uint64_t connections = 0;
  uint64_t accepted = 0;          // jobs admitted to the queue
  uint64_t shed = 0;              // E607 overload rejections
  uint64_t deduped = 0;           // requests attached to an in-flight twin
  uint64_t completed = 0;         // ok replies sent
  uint64_t compile_errors = 0;    // E611 replies
  uint64_t deadline_exceeded = 0; // E608 cancelled jobs
  uint64_t wedged = 0;            // E608 abandoned (ignored cancel)
  uint64_t crashed = 0;           // E609 executor-thread exceptions
  uint64_t protocol_errors = 0;   // E600..E606 replies
  uint64_t drained = 0;           // E610 replies during drain
};

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

class Server {
 public:
  explicit Server(ServeConfig cfg);
  ~Server();

  /// Bind + listen + spawn threads.  False + `why` on failure (symlinked
  /// socket path, live daemon already bound, bind/listen errors).
  /// Recovers a stale socket file left by a crashed daemon.
  bool start(std::string* why);

  /// Graceful drain: stop accepting, answer new frames with E610, wait
  /// (bounded by drain_timeout_ms) for in-flight jobs, flush obs, close.
  /// True when no jobs were orphaned.
  bool drain();

  /// Hard stop (tests): like drain but without the grace semantics.
  void stop();

  bool running() const { return running_.load(); }
  const ServeConfig& config() const { return cfg_; }
  const std::string& socket_path() const { return sock_path_; }

  ServeStats stats() const;
  /// The Stats verb payload: counters + queue depth + queue-wait
  /// percentiles (p50/p90/p99 ms) + faults_injected, as flat JSON.
  std::string stats_json() const;

 private:
  struct Job;
  struct Inflight;
  struct Conn;

  /// Shut down and close the listening socket, once across callers.
  void close_listener();
  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void worker_loop();
  void watchdog_loop();
  /// Frame dispatch; returns false when the connection must close.
  bool handle_frame(const std::shared_ptr<Conn>& conn, const Frame& f);
  void run_job(const std::shared_ptr<Job>& job);
  /// Send a job's reply (ok or error) to its own and all attached
  /// subscriber connections.
  void finish_job(const std::shared_ptr<Job>& job);
  void reply_error(const std::shared_ptr<Conn>& conn, const std::string& id,
                   const std::string& code, const std::string& message,
                   int64_t retry_after_ms = -1);
  void record_queue_wait(int64_t ms);

  ServeConfig cfg_;
  std::string sock_path_;
  std::atomic<int> listen_fd_{-1};
  int lock_fd_ = -1;
  std::string lock_path_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  // Separate from running_: drain() retires the listener while the rest
  // of the daemon keeps serving, and the accept loop must exit even when
  // it was between poll() calls as the listener fd was closed (polling
  // the then -1 fd would otherwise spin on timeouts forever).
  std::atomic<bool> accepting_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  struct Reader {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };
  // One per accepted connection; joined at the next accept once its
  // connection has closed, and at stop().
  std::vector<Reader> readers_;
  std::thread watchdog_;

  mutable std::mutex mu_;  // queue, inflight, conns, stats, waits
  std::condition_variable queue_cv_;
  FairQueue<std::shared_ptr<Job>> queue_;
  std::map<uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::vector<std::shared_ptr<Job>> active_;  // running jobs (watchdog scan)
  std::vector<std::shared_ptr<Conn>> conns_;
  ServeStats stats_;
  std::deque<int64_t> queue_wait_ms_;  // ring of recent samples
  uint64_t next_conn_id_ = 1;
};

}  // namespace dace::serve
