#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "codegen/artifact_cache.hpp"
#include "common/common.hpp"
#include "common/diag.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"
#include "frontend/lowering.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace::serve {

namespace {

int64_t env_int(const char* name, int64_t dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  return std::atoll(v);
}

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex16(uint64_t v) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

std::string default_socket_path() {
  std::string fname = "dacepp-serve-" + std::to_string((long)getuid()) +
                      ".sock";
  if (const char* xdg = std::getenv("XDG_RUNTIME_DIR")) {
    if (*xdg) return std::string(xdg) + "/" + fname;
  }
  if (const char* home = std::getenv("HOME")) {
    if (*home) {
      std::string dir = std::string(home) + "/.cache";
      ::mkdir(dir.c_str(), 0755);
      dir += "/dacepp";
      ::mkdir(dir.c_str(), 0755);
      struct stat st;
      if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return dir + "/serve-" + std::to_string((long)getuid()) + ".sock";
    }
  }
  return "/tmp/" + fname;
}

ServeConfig ServeConfig::from_env() {
  ServeConfig c;
  if (const char* s = std::getenv("DACE_SERVE_SOCKET"))
    if (*s) c.socket_path = s;
  c.workers = (int)env_int("DACE_SERVE_WORKERS", c.workers);
  c.workers = std::max(1, std::min(c.workers, 64));
  c.queue_max = (int)env_int("DACE_SERVE_QUEUE_MAX", c.queue_max);
  c.queue_max = std::max(1, c.queue_max);
  c.deadline_ms = env_int("DACE_SERVE_DEADLINE_MS", c.deadline_ms);
  c.wedge_grace_ms = env_int("DACE_SERVE_WEDGE_GRACE_MS", c.wedge_grace_ms);
  c.io_timeout_ms = (int)env_int("DACE_SERVE_IO_TIMEOUT_MS", c.io_timeout_ms);
  c.max_frame_kb = (int)env_int("DACE_SERVE_MAX_FRAME_KB", c.max_frame_kb);
  c.drain_timeout_ms =
      env_int("DACE_SERVE_DRAIN_TIMEOUT_MS", c.drain_timeout_ms);
  c.faults = ServeFaultPlan::from_env();
  return c;
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct Server::Conn {
  int fd = -1;
  uint64_t id = 0;
  std::mutex write_mu;       // replies race: reader vs worker threads
  std::atomic<bool> open{true};
  std::atomic<bool> reader_done{false};  // reader thread has returned
};

struct Server::Job {
  RunRequest req;
  uint64_t key = 0;
  std::shared_ptr<Conn> conn;
  int64_t enqueue_ms = 0;
  std::atomic<int64_t> deadline_at_ms{0};  // absolute steady ms
  std::atomic<bool> cancel{false};
  std::atomic<bool> wedged{false};
  std::atomic<bool> running{false};
  ServeFault fault = ServeFault::None;  // server-side job fault for this job

  // Result, filled by run_job.
  bool ok = false;
  std::string code;     // E6xx when !ok
  std::string message;  // detail when !ok
  std::string body;     // ok-reply body sans id ("function":...,"outputs":...)
};

struct Server::Inflight {
  std::shared_ptr<Job> winner;
  // Requests that attached to the winner: reply destination + their id.
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> subscribers;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Server::Server(ServeConfig cfg)
    : cfg_(std::move(cfg)), queue_((size_t)cfg_.queue_max) {}

Server::~Server() { stop(); }

bool Server::start(std::string* why) {
  sock_path_ =
      cfg_.socket_path.empty() ? default_socket_path() : cfg_.socket_path;

  // Symlinked socket paths are refused outright: binding through one
  // would let another user redirect the daemon's endpoint.
  struct stat st;
  if (::lstat(sock_path_.c_str(), &st) == 0 && S_ISLNK(st.st_mode)) {
    if (why) *why = "socket path is a symlink: " + sock_path_;
    return false;
  }

  // Startup lock: serializes crash-recovery probing between two daemons
  // starting at once.  flock dies with its owner, so a crashed daemon
  // never wedges the path.
  lock_path_ = sock_path_ + ".lock";
  lock_fd_ = ::open(lock_path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0600);
  if (lock_fd_ >= 0 && ::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    if (why) *why = "another daemon holds the lock: " + lock_path_;
    ::close(lock_fd_);
    lock_fd_ = -1;
    return false;
  }

  // Crash-only restart recovery: a leftover socket file is probed with a
  // connect.  A live daemon answers (we refuse to shadow it); a stale
  // file from a crashed daemon refuses the connection and is unlinked.
  if (::lstat(sock_path_.c_str(), &st) == 0) {
    int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    struct sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, sock_path_.c_str(), sizeof(sa.sun_path) - 1);
    bool live =
        probe >= 0 && ::connect(probe, (struct sockaddr*)&sa, sizeof(sa)) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      if (why) *why = "a live daemon is already bound to " + sock_path_;
      ::close(lock_fd_);
      lock_fd_ = -1;
      return false;
    }
    ::unlink(sock_path_.c_str());
    OBS_INSTANT("serve", "stale-socket-recovered",
                "{\"path\":\"" + diag::json_escape(sock_path_) + "\"}");
  }

  int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (lfd < 0) {
    if (why) *why = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  struct sockaddr_un sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  if (sock_path_.size() >= sizeof(sa.sun_path)) {
    if (why) *why = "socket path too long: " + sock_path_;
    ::close(lfd);
    return false;
  }
  std::strncpy(sa.sun_path, sock_path_.c_str(), sizeof(sa.sun_path) - 1);
  if (::bind(lfd, (struct sockaddr*)&sa, sizeof(sa)) != 0 ||
      ::listen(lfd, 64) != 0) {
    if (why)
      *why = "bind/listen on " + sock_path_ + ": " + std::strerror(errno);
    ::close(lfd);
    return false;
  }
  listen_fd_.store(lfd);

  running_.store(true);
  draining_.store(false);
  accepting_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
  OBS_INSTANT("serve", "start",
              "{\"socket\":\"" + diag::json_escape(sock_path_) +
                  "\",\"workers\":" + std::to_string(cfg_.workers) + "}");
  return true;
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Unblock the accept loop, then everything downstream.
  accepting_.store(false);
  close_listener();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // No write_mu here: shutdown() is what unblocks a worker stuck in
    // send() to a client that stopped reading.  Reading Conn::fd under
    // mu_ alone is safe because reader_loop() leaves conns_ before it
    // closes the fd.
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& c : conns_) {
      c->open.store(false);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  queue_cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& r : readers_) {
    if (r.thread.joinable()) r.thread.join();
  }
  readers_.clear();
  {
    // Readers joined above normally close their own fd; this sweeps any
    // connection whose reader never observed the shutdown.
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
    }
    conns_.clear();
  }
  ::unlink(sock_path_.c_str());
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);  // releases the flock
    lock_fd_ = -1;
    ::unlink(lock_path_.c_str());
  }
}

void Server::close_listener() {
  // exchange(): drain() and stop() may both get here, and the accept
  // loop reads the fd concurrently; only one caller closes it.
  int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
}

bool Server::drain() {
  if (!running_.load()) return true;
  draining_.store(true);
  // Stop accepting new connections; existing readers keep answering
  // (Run gets E610 from here on).
  accepting_.store(false);
  close_listener();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Wait, bounded, for the queue and every in-flight job to finish;
  // deadlines and the watchdog guarantee progress.
  int64_t give_up = now_ms() + cfg_.drain_timeout_ms;
  size_t orphaned = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      orphaned = queue_.size() + active_.size() + inflight_.size();
    }
    if (orphaned == 0 || now_ms() >= give_up) break;
    queue_cv_.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Flush observability before teardown: the final counters instant is
  // the drain record sdfg-prof aggregates.
  OBS_INSTANT("serve", "drain", stats_json());
  stop();
  return orphaned == 0;
}

// ---------------------------------------------------------------------------
// Accept / read
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  while (running_.load() && accepting_.load()) {
    // Snapshot the fd: drain()/stop() close it and write -1 concurrently,
    // and poll(-1) would "succeed" by timing out, spinning this loop.
    int lfd = listen_fd_.load();
    if (lfd < 0) return;
    struct pollfd p = {lfd, POLLIN, 0};
    int pr = ::poll(&p, 1, 100);
    if (!running_.load() || !accepting_.load()) return;
    if (pr <= 0) continue;
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return;  // listener closed (drain/stop)
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Join the readers of closed connections: an unjoined thread keeps
      // its stack, so the daemon would grow with every client it served.
      for (Reader& r : readers_)
        if (r.conn->reader_done.load()) r.thread.join();
      std::erase_if(readers_,
                    [](const Reader& r) { return !r.thread.joinable(); });
      conn->id = next_conn_id_++;
      ++stats_.connections;
      conns_.push_back(conn);
      std::thread t([this, conn] {
        reader_loop(conn);
        conn->reader_done.store(true);
      });
      readers_.push_back({conn, std::move(t)});
    }
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  while (running_.load() && conn->open.load()) {
    // Idle-wait without a deadline: io_timeout only bounds *mid-frame*
    // stalls (slow loris), not the gap between requests.
    struct pollfd p = {conn->fd, POLLIN, 0};
    int pr = ::poll(&p, 1, 100);
    if (!running_.load() || !conn->open.load()) break;
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    Decoded d = read_frame(conn->fd, cfg_.io_timeout_ms, cfg_.max_payload());
    if (d.status == Decoded::Eof) break;
    if (d.status == Decoded::Error) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.protocol_errors;
        METRIC_INC("dacepp_serve_protocol_errors_total");
      }
      OBS_INSTANT("serve", "protocol-error",
                  "{\"code\":\"" + d.code + "\"}");
      reply_error(conn, "", d.code, d.message);
      break;  // a torn byte stream cannot be resynchronized
    }
    if (!handle_frame(conn, d.frame)) break;
  }
  conn->open.store(false);
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.forget_flow(conn->id);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  }
  // stop() reads the fd of every conn in conns_ under mu_, so the close
  // waits for the erase.  Once erased, stop() no longer shuts this conn
  // down, so shut it down here: that fails a worker's send() to a client
  // that stopped reading, which would otherwise hold write_mu forever.
  // This thread owns the fd; writers only read it, under write_mu.
  if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  // Close under the write lock so a worker mid-reply never races a
  // reused descriptor; writers check fd under the same lock.
  std::lock_guard<std::mutex> wl(conn->write_mu);
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = -1;
}

bool Server::handle_frame(const std::shared_ptr<Conn>& conn, const Frame& f) {
  switch (f.verb) {
    case Verb::Ping: {
      std::string why;
      std::lock_guard<std::mutex> wl(conn->write_mu);
      return conn->fd >= 0 &&
             write_frame(conn->fd, Verb::ReplyOk,
                         "{\"status\":\"ok\",\"pong\":1}", &why);
    }
    case Verb::Stats: {
      std::string payload = stats_json();
      std::string why;
      std::lock_guard<std::mutex> wl(conn->write_mu);
      return conn->fd >= 0 &&
             write_frame(conn->fd, Verb::ReplyOk, payload, &why);
    }
    case Verb::Metrics: {
      // Live registry snapshot, Prometheus text format.  Answered inline
      // like Stats: exposition never queues behind Run jobs.
      std::string payload = metrics::expose_text();
      std::string why;
      std::lock_guard<std::mutex> wl(conn->write_mu);
      return conn->fd >= 0 &&
             write_frame(conn->fd, Verb::ReplyOk, payload, &why);
    }
    case Verb::Run:
      break;
    default:
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.protocol_errors;
        METRIC_INC("dacepp_serve_protocol_errors_total");
      }
      reply_error(conn, "", "E605",
                  std::string("verb '") + verb_name(f.verb) +
                      "' is not a request");
      return false;
  }

  RunRequest req;
  std::string why;
  if (!parse_run_request(f.payload, &req, &why)) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.protocol_errors;
    }
    reply_error(conn, "", "E606", "malformed run request: " + why);
    return true;  // body errors are per-request; the stream is intact
  }

  if (draining_.load()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.drained;
    }
    reply_error(conn, req.id, "E610", "daemon is draining; retry elsewhere");
    return true;
  }

  auto job = std::make_shared<Job>();
  job->req = std::move(req);
  job->key = request_key(job->req);
  job->conn = conn;
  job->enqueue_ms = now_ms();
  // One fault draw per job: the server-side kinds run the executor
  // chaos; a DeadlineStorm collapses the job's deadline to ~nothing.
  job->fault = next_fault(cfg_.faults);
  if (job->fault == ServeFault::DeadlineStorm) job->req.deadline_ms = 1;

  std::string shed_why;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = inflight_.find(job->key);
    if (it != inflight_.end()) {
      // In-flight dedup: attach to the winner; one compile serves all.
      ++stats_.deduped;
      METRIC_INC("dacepp_serve_deduped_total");
      it->second->subscribers.emplace_back(conn, job->req.id);
      OBS_INSTANT("serve", "dedup",
                  "{\"key\":\"" + hex16(job->key) + "\"}");
      return true;
    }
    if (!queue_.push(job, conn->id, job->req.weight)) {
      ++stats_.shed;
      METRIC_INC("dacepp_serve_shed_total");
      shed_why = "queue full (" + std::to_string(cfg_.queue_max) + " jobs)";
    } else {
      ++stats_.accepted;
      METRIC_INC("dacepp_serve_accepted_total");
      auto inf = std::make_shared<Inflight>();
      inf->winner = job;
      inflight_[job->key] = inf;
      depth = queue_.size();
    }
  }
  if (!shed_why.empty()) {
    // Shed *now*, from the reader thread: an overloaded daemon answers
    // fastest exactly when it is busiest.
    OBS_INSTANT("serve", "shed", "{\"key\":\"" + hex16(job->key) + "\"}");
    reply_error(conn, job->req.id, "E607", "overloaded: " + shed_why,
                /*retry_after_ms=*/25 + 5 * (int64_t)cfg_.queue_max);
    return true;
  }
  OBS_INSTANT("serve", "accepted", "{\"key\":\"" + hex16(job->key) + "\"}");
  OBS_COUNTER("serve", "queue-depth", (double)depth);
  METRIC_GAUGE_SET("dacepp_serve_queue_depth", depth);
  queue_cv_.notify_one();
  return true;
}

// ---------------------------------------------------------------------------
// Workers / jobs
// ---------------------------------------------------------------------------

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] { return !running_.load() || queue_.size() > 0; });
      if (!running_.load()) return;  // drain() empties the queue first
      auto popped = queue_.pop();
      if (!popped) continue;
      job = *popped;
      active_.push_back(job);
    }
    int64_t wait = now_ms() - job->enqueue_ms;
    record_queue_wait(wait);
    obs::complete("serve", "queue-wait",
                  obs::now_ns() - wait * 1000000, wait * 1000000,
                  "{\"key\":\"" + hex16(job->key) + "\"}");

    int64_t deadline =
        job->req.deadline_ms > 0 ? job->req.deadline_ms : cfg_.deadline_ms;
    job->deadline_at_ms.store(now_ms() + deadline);
    job->running.store(true);
    run_job(job);
    job->running.store(false);

    {
      std::lock_guard<std::mutex> lk(mu_);
      active_.erase(std::remove(active_.begin(), active_.end(), job),
                    active_.end());
    }
    finish_job(job);
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  // The job body runs in an abandonable detached thread (the
  // xf::Pipeline pass-timeout pattern): it owns shared state, so a
  // wedged executor is abandoned -- it keeps running against its own
  // references, never against freed memory -- and the daemon moves on.
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string code, message, body;
  };
  auto sh = std::make_shared<Shared>();
  ServeConfig cfg = cfg_;
  int64_t t0 = obs::now_ns();

  std::thread([sh, job, cfg] {
    struct JobError {
      std::string code, message;
    };
    bool ok = false;
    std::string code, message, body;
    try {
      if (job->fault == ServeFault::CrashJob)
        throw dace::Error("injected executor-thread crash");
      if (job->fault == ServeFault::Wedge) {
        // Simulated wedged executor: ignore cancellation until well past
        // the wedge grace.  The watchdog abandons us; nobody reads what
        // we write below.
        int64_t until = now_ms() + cfg.deadline_ms + 4 * cfg.wedge_grace_ms;
        while (now_ms() < until && !job->wedged.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        throw dace::Error("cancelled: wedged job released");
      }

      auto& cache = cg::cache::ArtifactCache::instance();
      if (cache.negative_lookup(job->key, "serve")) {
        throw JobError{"E611",
                       "program previously failed to compile "
                       "(persistent negative cache)"};
      }

      int64_t c0 = obs::now_ns();
      diag::DiagSink sink;
      auto sdfg =
          fe::compile_to_sdfg(job->req.source, sink, job->req.function);
      if (!sdfg) {
        std::string detail = sink.render();
        cache.negative_store(job->key, "serve", detail);
        throw JobError{"E611", "compile failed:\n" + detail};
      }
      xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
      double compile_ms = (obs::now_ns() - c0) / 1e6;

      sym::SymbolMap syms;
      for (const auto& [k, v] : job->req.symbols) syms[k] = v;

      // Deterministic argument synthesis: every run of the same request
      // sees identical inputs, making output checksums comparable across
      // runs and across daemons (the chaos differential oracle).
      rt::Bindings args;
      for (const auto& an : sdfg->arg_names()) {
        const auto& desc = sdfg->arrays().at(an);
        uint64_t h = fnv1a(an.data(), an.size());
        if (desc.is_scalar()) {
          args.emplace(an, rt::Tensor::scalar(
                               (double)(h % 97) / 7.0, desc.dtype));
        } else {
          std::vector<int64_t> shape;
          for (const auto& e : desc.shape) shape.push_back(e.eval(syms));
          rt::Tensor t(desc.dtype, shape);
          double* d = t.data();
          int64_t n = t.size();
          for (int64_t i = 0; i < n; ++i)
            d[i] = (double)((h + (uint64_t)i * 2654435761ull) % 1024) / 64.0;
          args.emplace(an, std::move(t));
        }
      }

      rt::ExecutorOptions opts;
      opts.cancel_check = [job] { return job->cancel.load(); };
      rt::Executor ex(*sdfg, opts);
      int64_t e0 = obs::now_ns();
      ex.run(args, syms);
      double exec_ms = (obs::now_ns() - e0) / 1e6;

      std::ostringstream outs;
      outs << "{";
      bool first = true;
      for (const auto& an : sdfg->arg_names()) {
        const rt::Tensor& t = args.at(an);
        uint64_t sum = fnv1a(t.data(), (size_t)t.size() * sizeof(double));
        outs << (first ? "" : ",") << "\"" << diag::json_escape(an)
             << "\":\"" << hex16(sum) << "\"";
        first = false;
      }
      outs << "}";
      std::ostringstream os;
      os << "\"function\":\"" << diag::json_escape(sdfg->name())
         << "\",\"outputs\":" << outs.str() << ",\"compile_ms\":"
         << (int64_t)compile_ms << ",\"exec_ms\":" << (int64_t)exec_ms;
      body = os.str();
      ok = true;
    } catch (const JobError& e) {
      code = e.code;
      message = e.message;
    } catch (const diag::DiagError& e) {
      code = "E611";
      message = e.what();
    } catch (const std::exception& e) {
      message = e.what() ? e.what() : "unknown error";
      code = message.rfind("cancelled", 0) == 0 ? "E608" : "E609";
    } catch (...) {
      code = "E609";
      message = "non-standard exception in job thread";
    }
    std::lock_guard<std::mutex> lk(sh->m);
    sh->done = true;
    sh->ok = ok;
    sh->code = std::move(code);
    sh->message = std::move(message);
    sh->body = std::move(body);
    sh->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lk(sh->m);
  while (!sh->done) {
    sh->cv.wait_for(lk, std::chrono::milliseconds(10));
    if (sh->done) break;
    if (job->wedged.load()) {
      // The job ignored cancellation past the grace period: abandon the
      // worker thread (it only touches its own shared state) and fail
      // the job without failing the daemon.
      job->ok = false;
      job->code = "E608";
      job->message = "job wedged: ignored cancellation past " +
                     std::to_string(cfg_.wedge_grace_ms) + " ms grace";
      obs::complete("serve", "exec", t0, obs::now_ns() - t0,
                    "{\"outcome\":\"wedged\"}");
      return;
    }
  }
  job->ok = sh->ok;
  job->code = sh->code;
  job->message = sh->message;
  job->body = sh->body;
  obs::complete("serve", "exec", t0, obs::now_ns() - t0,
                std::string("{\"outcome\":\"") +
                    (job->ok ? "ok" : job->code.c_str()) + "\"}");
}

void Server::finish_job(const std::shared_ptr<Job>& job) {
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> targets;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = inflight_.find(job->key);
    if (it != inflight_.end()) {
      targets = std::move(it->second->subscribers);
      inflight_.erase(it);
    }
    if (job->ok) {
      ++stats_.completed;
      METRIC_INC("dacepp_serve_completed_total");
    } else if (job->code == "E611") {
      ++stats_.compile_errors;
      METRIC_INC("dacepp_serve_compile_errors_total");
    } else if (job->code == "E608") {
      if (job->wedged.load()) ++stats_.wedged;
      else ++stats_.deadline_exceeded;
      METRIC_INC("dacepp_serve_deadline_total");
    } else {
      ++stats_.crashed;
      METRIC_INC("dacepp_serve_crashed_total");
    }
  }
  targets.emplace(targets.begin(), job->conn, job->req.id);

  const char* obs_name = job->ok               ? "completed"
                         : job->code == "E611" ? "compile-error"
                         : job->code == "E608"
                             ? (job->wedged.load() ? "wedged" : "deadline")
                             : "crash";
  OBS_INSTANT("serve", obs_name,
              "{\"key\":\"" + hex16(job->key) +
                  "\",\"fanout\":" + std::to_string(targets.size()) + "}");

  for (const auto& [conn, id] : targets) {
    if (!conn->open.load()) continue;  // client went away; drop silently
    std::string payload;
    if (job->ok) {
      payload = "{\"status\":\"ok\",\"id\":\"" + diag::json_escape(id) +
                "\"," + job->body + "}";
      std::string why;
      std::lock_guard<std::mutex> wl(conn->write_mu);
      if (conn->fd < 0 ||
          !write_frame(conn->fd, Verb::ReplyOk, payload, &why))
        conn->open.store(false);
    } else {
      reply_error(conn, id, job->code, job->message);
    }
  }
}

void Server::reply_error(const std::shared_ptr<Conn>& conn,
                         const std::string& id, const std::string& code,
                         const std::string& message, int64_t retry_after_ms) {
  std::string payload = error_payload(code, message, retry_after_ms);
  if (!id.empty()) {
    // Inject the correlation id right after the opening brace.
    payload = "{\"id\":\"" + diag::json_escape(id) + "\"," + payload.substr(1);
  }
  std::string why;
  std::lock_guard<std::mutex> wl(conn->write_mu);
  if (conn->fd < 0 ||
      !write_frame(conn->fd, Verb::ReplyError, payload, &why))
    conn->open.store(false);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

void Server::watchdog_loop() {
  while (running_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<std::shared_ptr<Job>> snap;
    {
      std::lock_guard<std::mutex> lk(mu_);
      snap = active_;
    }
    int64_t now = now_ms();
    for (auto& job : snap) {
      if (!job->running.load()) continue;
      int64_t dl = job->deadline_at_ms.load();
      if (dl <= 0) continue;
      if (now >= dl && !job->cancel.load()) {
        job->cancel.store(true);
        OBS_INSTANT("serve", "deadline-fired",
                    "{\"key\":\"" + hex16(job->key) + "\"}");
      }
      if (now >= dl + cfg_.wedge_grace_ms && !job->wedged.load()) {
        job->wedged.store(true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void Server::record_queue_wait(int64_t ms) {
  std::lock_guard<std::mutex> lk(mu_);
  queue_wait_ms_.push_back(ms);
  if (queue_wait_ms_.size() > 512) queue_wait_ms_.pop_front();
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::string Server::stats_json() const {
  ServeStats s;
  size_t depth = 0, act = 0;
  std::vector<int64_t> waits;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
    depth = queue_.size();
    act = active_.size();
    waits.assign(queue_wait_ms_.begin(), queue_wait_ms_.end());
  }
  std::sort(waits.begin(), waits.end());
  auto pct = [&](double p) -> int64_t {
    if (waits.empty()) return 0;
    size_t i = (size_t)(p * (double)(waits.size() - 1));
    return waits[i];
  };
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"connections\":" << s.connections
     << ",\"accepted\":" << s.accepted << ",\"shed\":" << s.shed
     << ",\"deduped\":" << s.deduped << ",\"completed\":" << s.completed
     << ",\"compile_errors\":" << s.compile_errors
     << ",\"deadline_exceeded\":" << s.deadline_exceeded
     << ",\"wedged\":" << s.wedged << ",\"crashed\":" << s.crashed
     << ",\"protocol_errors\":" << s.protocol_errors
     << ",\"drained\":" << s.drained << ",\"queue_depth\":" << depth
     << ",\"active\":" << act << ",\"queue_wait_p50_ms\":" << pct(0.50)
     << ",\"queue_wait_p90_ms\":" << pct(0.90)
     << ",\"queue_wait_p99_ms\":" << pct(0.99)
     << ",\"faults_injected\":" << faults_injected()
     << ",\"draining\":" << (draining_.load() ? 1 : 0) << "}";
  return os.str();
}

}  // namespace dace::serve
