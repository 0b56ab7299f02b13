#include "distributed/simmpi.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/obs.hpp"

namespace dace::dist {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::time_point deadline_from(double seconds) {
  return SteadyClock::now() +
         std::chrono::duration_cast<SteadyClock::duration>(
             std::chrono::duration<double>(seconds));
}

// Injected fault as an instant on the rank's virtual timeline (pid 1,
// tid = rank, ts = modeled clock).  Emission order per rank follows the
// rank thread's program order, so traces of a seeded chaos run are
// deterministic.
void obs_fault(const FaultEvent& e) {
  if (!obs::enabled()) return;
  std::ostringstream a;
  a << "{\"peer\":" << e.peer << ",\"tag\":" << e.tag
    << ",\"bytes\":" << e.bytes << ",\"seq\":" << e.seq
    << ",\"attempt\":" << e.attempt << "}";
  obs::instant_at("fault", fault_kind_name(e.kind), e.vtime * 1e6, 1, e.rank,
                  a.str());
}

}  // namespace

World::World(int nranks, NetModel net)
    : nranks_(nranks),
      net_(net),
      clocks_((size_t)nranks, 0.0),
      dead_((size_t)nranks, 0),
      fault_plan_(FaultPlan::from_env()) {
  DACE_CHECK(nranks >= 1, "simmpi: need at least one rank");
  if (std::string t = env::text("DACE_COMM_TRACE"); !t.empty())
    enable_trace(t);
}

World::~World() = default;

void World::enable_trace(const std::string& path) {
  tracing_ = true;
  trace_path_ = path;
}

std::vector<FaultEvent> World::fault_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

std::vector<int> World::failed_ranks() const {
  std::vector<int> out;
  for (const auto& f : last_failures_) out.push_back(f.rank);
  return out;
}

void World::mark_dead(int rank) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    dead_[(size_t)rank] = 1;
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lk(coll_mu_);
    ++coll_dead_count_;
  }
  coll_cv_.notify_all();
}

void World::record_event(const FaultEvent& e) {
  METRIC_INC("dacepp_dist_faults_injected_total");
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(e);
}

void World::trace_line(const std::string& s) {
  std::lock_guard<std::mutex> lk(mu_);
  trace_.push_back(s);
}

void World::run(const std::function<void(Comm&)>& fn) {
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
  std::fill(dead_.begin(), dead_.end(), 0);
  mailboxes_.clear();
  send_seq_.clear();
  recv_seq_.clear();
  events_.clear();
  trace_.clear();
  last_failures_.clear();
  total_bytes_ = 0;
  total_messages_ = 0;
  total_retries_ = 0;
  coll_arrived_ = 0;
  coll_phase_ = 0;
  coll_root_data_ = nullptr;
  coll_root_set_ = false;
  coll_max_clock_ = 0;
  coll_dead_count_ = 0;
  if (tracing_) {
    std::ostringstream hdr;
    hdr << "# dacepp-comm-trace v1 nranks=" << nranks_ << " net=" << net_.name;
    trace_.push_back(hdr.str());
  }

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors((size_t)nranks_);
  auto rank_body = [&](int r) {
    try {
      Comm c(*this, r);
      fn(c);
    } catch (...) {
      errors[(size_t)r] = std::current_exception();
      // Mark this rank dead *before* peers block on it forever: recvs
      // from it fail fast and tolerant collectives re-form without it.
      mark_dead(r);
    }
  };
  for (int r = 1; r < nranks_; ++r) {
    threads.emplace_back(rank_body, r);
  }
  rank_body(0);
  for (auto& t : threads) t.join();

  if (tracing_ && !trace_path_.empty()) {
    if (FILE* f = std::fopen(trace_path_.c_str(), "w")) {
      for (const auto& line : trace_) std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }

  for (int r = 0; r < nranks_; ++r) {
    if (!errors[(size_t)r]) continue;
    try {
      std::rethrow_exception(errors[(size_t)r]);
    } catch (const std::exception& e) {
      last_failures_.push_back(RankFailure{r, e.what()});
    } catch (...) {
      last_failures_.push_back(RankFailure{r, "unknown exception"});
    }
  }
  if (!last_failures_.empty()) throw DistError(last_failures_);
}

double World::max_clock() const {
  double m = 0;
  for (double c : clocks_) m = std::max(m, c);
  return m;
}

// ---------------------------------------------------------------------------
// Per-op bookkeeping: tracing, fault injection, diagnoses
// ---------------------------------------------------------------------------

double Comm::clock() const {
  std::lock_guard<std::mutex> lk(world_.mu_);
  return world_.clocks_[(size_t)rank_];
}

void Comm::add_time(double seconds) {
  std::lock_guard<std::mutex> lk(world_.mu_);
  world_.clocks_[(size_t)rank_] += seconds;
}

std::string Comm::where() const {
  return ctx_.empty() ? std::string() : " during " + ctx_;
}

void Comm::throw_timeout(const char* op, int peer, int tag, int64_t bytes) {
  std::ostringstream os;
  os << "simmpi: " << op << " timed out on rank " << rank_;
  if (peer >= 0) os << " waiting on peer " << peer;
  if (tag >= 0) os << " (tag " << tag << ")";
  if (bytes > 0) os << ", " << bytes << " bytes expected";
  os << "; deadline " << world_.comm_cfg_.timeout_s << "s wall, virtual clock "
     << clock() << "s" << where();
  throw CommTimeout(os.str(), rank_, peer, tag, bytes, op);
}

void Comm::throw_peer_failed(const char* op, int peer, int tag,
                             int64_t bytes) {
  std::vector<int> dead;
  {
    std::lock_guard<std::mutex> lk(world_.mu_);
    for (int r = 0; r < world_.nranks_; ++r) {
      if (world_.dead_[(size_t)r]) dead.push_back(r);
    }
  }
  std::ostringstream os;
  os << "simmpi: " << op << " on rank " << rank_ << " cannot complete: ";
  if (peer >= 0 && std::find(dead.begin(), dead.end(), peer) != dead.end()) {
    os << "peer " << peer << " has failed";
  } else {
    os << "rank(s)";
    for (int r : dead) os << " " << r;
    os << " have failed";
  }
  if (tag >= 0) os << " (tag " << tag << ")";
  if (bytes > 0) os << ", " << bytes << " bytes expected";
  os << where();
  throw PeerFailed(os.str(), rank_, peer, tag, bytes, op);
}

void Comm::on_comm_op(const char* op, int peer, int tag, int64_t n,
                      int64_t block, int64_t stride, int root, double cost) {
  if (world_.tracing_) {
    std::ostringstream os;
    if (peer >= 0) {
      os << op << " " << rank_ << " " << peer << " " << tag << " " << n << " "
         << block << " " << stride;
    } else {
      os << "coll " << rank_ << " " << op << " " << n << " " << root << " "
         << cost;
    }
    world_.trace_line(os.str());
  }
  if (obs::enabled()) {
    std::ostringstream a;
    if (peer >= 0) {
      a << "{\"peer\":" << peer << ",\"tag\":" << tag << ",\"n\":" << n
        << "}";
    } else {
      a << "{\"n\":" << n << ",\"root\":" << root << "}";
    }
    obs::instant_at("comm", op, clock() * 1e6, 1, rank_, a.str());
  }
  int64_t idx = op_index_++;
  const FaultPlan& fp = world_.fault_plan_;
  if (!fp.active()) return;
  FaultKind k = fp.decide_rank_op(rank_, idx);
  if (k == FaultKind::None) return;
  FaultEvent e;
  e.kind = k;
  e.rank = rank_;
  e.peer = peer;
  e.tag = tag;
  e.seq = (uint64_t)idx;
  e.vtime = clock();
  world_.record_event(e);
  obs_fault(e);
  if (k == FaultKind::Stall) {
    // The rank goes silent for stall_s wall seconds: peers whose deadline
    // is shorter observe a CommTimeout naming this rank.
    std::this_thread::sleep_for(std::chrono::duration<double>(fp.stall_s));
    return;
  }
  // Crash: the rank dies at this op; World::run marks it dead so peers
  // fail fast (PeerFailed) or re-form tolerant collectives without it.
  std::ostringstream os;
  os << "simmpi: injected crash on rank " << rank_ << " at comm op " << idx
     << " (" << op << ")" << where();
  throw RankCrashed(os.str(), rank_, peer, tag, n * 8, op);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

void Comm::send_vector(const double* buf, int64_t count, int64_t block,
                       int64_t stride, int dst, int tag) {
  DACE_CHECK(dst >= 0 && dst < size(), "simmpi: send on rank ", rank_,
             " to invalid rank ", dst, " (world size ", size(), ", tag ", tag,
             ", ", count * block * 8, " bytes)", where());
  on_comm_op("send", dst, tag, count, block, stride);
  std::vector<double> payload;
  payload.reserve((size_t)(count * block));
  for (int64_t c = 0; c < count; ++c) {
    for (int64_t b = 0; b < block; ++b) payload.push_back(buf[c * stride + b]);
  }
  int64_t bytes = (int64_t)payload.size() * 8;
  const FaultPlan& fp = world_.fault_plan_;
  const CommConfig& cc = world_.comm_cfg_;
  {
    std::lock_guard<std::mutex> lk(world_.mu_);
    auto key = World::MailboxKey{rank_, dst, tag};
    uint64_t seq = world_.send_seq_[key]++;
    auto& q = world_.mailboxes_[key];
    double& my_clock = world_.clocks_[(size_t)rank_];
    // Reliable transport: a dropped transmission is retransmitted with
    // exponential backoff charged to the *virtual* clock, so chaos runs
    // stay bit-identical while retries degrade the modeled efficiency.
    double backoff = 0;
    bool delivered = false;
    for (int attempt = 0; attempt <= cc.max_retries; ++attempt) {
      FaultKind k = fp.active()
                        ? fp.decide_message(rank_, dst, tag, seq, attempt)
                        : FaultKind::None;
      if (k == FaultKind::Drop) {
        FaultEvent ev{FaultKind::Drop, rank_, dst, tag,
                      bytes, seq, attempt, my_clock};
        world_.events_.push_back(ev);
        obs_fault(ev);
        if (attempt < cc.max_retries) {
          ++world_.total_retries_;
          backoff += cc.backoff_s * (double)(1LL << attempt);
          if (obs::enabled()) {
            std::ostringstream a;
            a << "{\"peer\":" << dst << ",\"tag\":" << tag
              << ",\"attempt\":" << attempt << ",\"backoff_s\":" << backoff
              << "}";
            obs::instant_at("comm", "retransmit", (my_clock + backoff) * 1e6,
                            1, rank_, a.str());
          }
        }
        continue;
      }
      World::Message msg;
      msg.seq = seq;
      msg.arrival = my_clock + backoff + world_.net_.p2p(bytes);
      if (k == FaultKind::Delay) {
        msg.arrival += fp.delay_s;
        FaultEvent ev{FaultKind::Delay, rank_, dst, tag,
                      bytes, seq, attempt, my_clock};
        world_.events_.push_back(ev);
        obs_fault(ev);
      }
      if (k == FaultKind::Duplicate) {
        World::Message dup;
        dup.seq = seq;
        dup.arrival = msg.arrival + world_.net_.alpha_s;
        dup.data = payload;  // copy; the original moves below
        msg.data = std::move(payload);
        q.push_back(std::move(msg));
        q.push_back(std::move(dup));
        FaultEvent ev{FaultKind::Duplicate, rank_, dst,
                      tag, bytes, seq, attempt, my_clock};
        world_.events_.push_back(ev);
        obs_fault(ev);
      } else {
        msg.data = std::move(payload);
        q.push_back(std::move(msg));
      }
      if (k == FaultKind::Reorder && q.size() >= 2) {
        std::swap(q[q.size() - 1], q[q.size() - 2]);
        FaultEvent ev{FaultKind::Reorder, rank_, dst,
                      tag, bytes, seq, attempt, my_clock};
        world_.events_.push_back(ev);
        obs_fault(ev);
      }
      delivered = true;
      break;
    }
    my_clock += world_.net_.alpha_s + backoff;  // sender-side overhead
    world_.total_bytes_ += bytes;
    ++world_.total_messages_;
    (void)delivered;  // a fully-dropped message surfaces as the peer's
                      // CommTimeout naming this channel
  }
  world_.cv_.notify_all();
}

void Comm::send(const double* buf, int64_t n, int dst, int tag) {
  send_vector(buf, 1, n, n, dst, tag);
}

void Comm::recv_vector(double* buf, int64_t count, int64_t block,
                       int64_t stride, int src, int tag) {
  DACE_CHECK(src >= 0 && src < size(), "simmpi: recv on rank ", rank_,
             " from invalid rank ", src, " (world size ", size(), ", tag ",
             tag, ", ", count * block * 8, " bytes expected)", where());
  on_comm_op("recv", src, tag, count, block, stride);
  auto deadline = deadline_from(world_.comm_cfg_.timeout_s);
  std::unique_lock<std::mutex> lk(world_.mu_);
  auto key = World::MailboxKey{src, rank_, tag};
  // Channels are sequence-numbered: take exactly message `expect`,
  // discarding duplicates (seq already consumed) and looking past
  // reordered later messages.
  uint64_t expect = world_.recv_seq_[key]++;
  World::Message msg;
  bool got = false;
  while (!got) {
    auto& q = world_.mailboxes_[key];
    for (auto it = q.begin(); it != q.end();) {
      if (it->seq < expect) {
        it = q.erase(it);  // stale duplicate
      } else if (it->seq == expect) {
        msg = std::move(*it);
        q.erase(it);
        got = true;
        break;
      } else {
        ++it;
      }
    }
    if (got) break;
    if (world_.dead_[(size_t)src]) {
      lk.unlock();
      throw_peer_failed("recv", src, tag, count * block * 8);
    }
    if (SteadyClock::now() >= deadline) {
      lk.unlock();
      throw_timeout("recv", src, tag, count * block * 8);
    }
    world_.cv_.wait_until(lk, deadline);
  }
  DACE_CHECK(
      (int64_t)msg.data.size() == count * block,
      "simmpi: message size mismatch from sender ", src, " to receiver ",
      rank_, " (tag ", tag, "): got ", msg.data.size() * 8, " bytes (",
      msg.data.size(), " elems), expected ", count * block * 8, " bytes (",
      count * block, " elems)", where());
  double& my_clock = world_.clocks_[(size_t)rank_];
  my_clock = std::max(my_clock, msg.arrival);
  lk.unlock();
  for (int64_t c = 0; c < count; ++c) {
    for (int64_t b = 0; b < block; ++b) buf[c * stride + b] = msg.data[(size_t)(c * block + b)];
  }
}

void Comm::recv(double* buf, int64_t n, int src, int tag) {
  recv_vector(buf, 1, n, n, src, tag);
}

Comm::Request Comm::isend(const double* buf, int64_t count, int64_t block,
                          int64_t stride, int dst, int tag) {
  // Buffered eager send: completes immediately.
  send_vector(buf, count, block, stride, dst, tag);
  Request r;
  r.is_send = true;
  r.done = true;
  r.peer = dst;
  r.tag = tag;
  return r;
}

Comm::Request Comm::irecv(double* buf, int64_t count, int64_t block,
                          int64_t stride, int src, int tag) {
  Request r;
  r.is_send = false;
  r.buf = buf;
  r.count = count;
  r.block = block;
  r.stride = stride;
  r.peer = src;
  r.tag = tag;
  r.done = false;
  return r;
}

void Comm::wait(Request& r) {
  if (r.done) return;
  recv_vector(r.buf, r.count, r.block, r.stride, r.peer, r.tag);
  r.done = true;
}

void Comm::waitall(std::vector<Request>& rs) {
  for (auto& r : rs) wait(r);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

const void* Comm::rendezvous(
    const char* opname, const void* root_data, int root, double cost,
    bool tolerant, const std::function<void(const void*)>& exchange) {
  auto deadline = deadline_from(world_.comm_cfg_.timeout_s);
  std::unique_lock<std::mutex> lk(world_.coll_mu_);
  if (!tolerant && world_.coll_dead_count_ > 0) {
    lk.unlock();
    throw_peer_failed(opname, root >= 0 ? root : -1, -1, 0);
  }
  uint64_t phase = world_.coll_phase_;
  if (root == kRootFirstArriver) {
    if (!world_.coll_root_set_) {
      world_.coll_root_data_ = root_data;
      world_.coll_root_set_ = true;
    }
  } else if (rank_ == root) {
    world_.coll_root_data_ = root_data;
    world_.coll_root_set_ = true;
  }
  {
    std::lock_guard<std::mutex> clk(world_.mu_);
    world_.coll_max_clock_ = std::max(world_.coll_max_clock_,
                                      world_.clocks_[(size_t)rank_]);
  }
  ++world_.coll_arrived_;
  auto complete_first = [&] {
    // Completer publishes the synchronized clock and advances the phase.
    double synced = world_.coll_max_clock_ + cost;
    {
      std::lock_guard<std::mutex> clk(world_.mu_);
      for (auto& c : world_.clocks_) c = std::max(c, synced);
    }
    world_.coll_arrived_ = 0;
    world_.coll_max_clock_ = 0;
    ++world_.coll_phase_;
  };
  // For an intolerant op whose peers died before the staging buffer was
  // published, `staged` may be null or stale: skip the exchange and let
  // the dead-rank check below raise PeerFailed instead of dereferencing.
  auto exchange_if_complete = [&](const void* data) {
    if (tolerant || world_.coll_dead_count_ == 0) exchange(data);
  };
  const void* staged = nullptr;
  if (world_.coll_arrived_ >= world_.alive_locked()) {
    complete_first();
    staged = world_.coll_root_data_;
    // Exchange happens while everyone is still parked, using the staging
    // buffer; all exchanges are serialized under coll_mu_.
    exchange_if_complete(staged);
    world_.coll_cv_.notify_all();
  } else {
    // Park until the phase advances.  If ranks die while we wait, the
    // arrived count may already cover every survivor -- whichever waiter
    // notices promotes itself to completer so the collective re-forms.
    while (world_.coll_phase_ == phase &&
           world_.coll_arrived_ < world_.alive_locked()) {
      if (world_.coll_cv_.wait_until(lk, deadline) ==
              std::cv_status::timeout &&
          world_.coll_phase_ == phase &&
          world_.coll_arrived_ < world_.alive_locked()) {
        --world_.coll_arrived_;  // withdraw before unwinding
        lk.unlock();
        world_.coll_cv_.notify_all();
        throw_timeout(opname, root >= 0 ? root : -1, -1, 0);
      }
    }
    if (world_.coll_phase_ == phase) {
      complete_first();  // promoted completer (a rank died mid-collective)
      staged = world_.coll_root_data_;
      exchange_if_complete(staged);
      world_.coll_cv_.notify_all();
    } else {
      staged = world_.coll_root_data_;
      exchange_if_complete(staged);
    }
  }
  if (!tolerant && world_.coll_dead_count_ > 0) {
    // A rank died mid-collective: the exchanged data is incomplete.
    lk.unlock();
    throw_peer_failed(opname, root >= 0 ? root : -1, -1, 0);
  }
  // Second phase: wait for all exchanges before anyone may reuse buffers.
  uint64_t phase2 = world_.coll_phase_;
  ++world_.coll_arrived_;
  auto complete_second = [&] {
    world_.coll_arrived_ = 0;
    world_.coll_root_set_ = false;  // staging released for the next op
    ++world_.coll_phase_;
  };
  if (world_.coll_arrived_ >= world_.alive_locked()) {
    complete_second();
    world_.coll_cv_.notify_all();
  } else {
    while (world_.coll_phase_ == phase2 &&
           world_.coll_arrived_ < world_.alive_locked()) {
      if (world_.coll_cv_.wait_until(lk, deadline) ==
              std::cv_status::timeout &&
          world_.coll_phase_ == phase2 &&
          world_.coll_arrived_ < world_.alive_locked()) {
        --world_.coll_arrived_;
        lk.unlock();
        world_.coll_cv_.notify_all();
        throw_timeout(opname, root >= 0 ? root : -1, -1, 0);
      }
    }
    if (world_.coll_phase_ == phase2) {
      complete_second();
      world_.coll_cv_.notify_all();
    }
  }
  return staged;
}

namespace {
double log2p(int p) { return p > 1 ? std::log2((double)p) : 1.0; }
}  // namespace

void Comm::charge_sync(double cost) {
  on_comm_op("sync", -1, -1, 0, 0, 0, -1, cost);
  rendezvous("sync", nullptr, kRootFirstArriver, cost, true,
             [](const void*) {});
}

void Comm::barrier() {
  on_comm_op("barrier", -1, -1, 0);
  double cost = world_.net().alpha_s * log2p(size());
  rendezvous("barrier", nullptr, kRootFirstArriver, cost, true,
             [](const void*) {});
}

void Comm::bcast(double* buf, int64_t n, int root) {
  on_comm_op("bcast", -1, -1, n, 0, 0, root);
  double cost = log2p(size()) * world_.net().p2p(n * 8);
  rendezvous("bcast", buf, root, cost, false, [&](const void* root_data) {
    if (rank_ != root) {
      const double* src = static_cast<const double*>(root_data);
      std::copy(src, src + n, buf);
    }
  });
  std::lock_guard<std::mutex> lk(world_.mu_);
  world_.total_bytes_ += (rank_ == root) ? n * 8 * (size() - 1) : 0;
}

void Comm::scatter(const double* sendbuf, double* recvbuf, int64_t n_per_rank,
                   int root) {
  on_comm_op("scatter", -1, -1, n_per_rank, 0, 0, root);
  int p = size();
  double cost = world_.net().alpha_s * log2p(p) +
                (double)(p - 1) / p * (double)(n_per_rank * p * 8) /
                    world_.net().bandwidth;
  rendezvous("scatter", sendbuf, root, cost, false,
             [&](const void* root_data) {
               const double* src = static_cast<const double*>(root_data);
               std::copy(src + rank_ * n_per_rank,
                         src + (rank_ + 1) * n_per_rank, recvbuf);
             });
  std::lock_guard<std::mutex> lk(world_.mu_);
  if (rank_ == root) world_.total_bytes_ += n_per_rank * 8 * (p - 1);
}

void Comm::gather(const double* sendbuf, double* recvbuf, int64_t n_per_rank,
                  int root) {
  on_comm_op("gather", -1, -1, n_per_rank, 0, 0, root);
  int p = size();
  double cost = world_.net().alpha_s * log2p(p) +
                (double)(p - 1) / p * (double)(n_per_rank * p * 8) /
                    world_.net().bandwidth;
  // Root's recvbuf is the shared destination.
  rendezvous("gather", recvbuf, root, cost, false,
             [&](const void* root_data) {
               double* dst = static_cast<double*>(const_cast<void*>(root_data));
               std::copy(sendbuf, sendbuf + n_per_rank,
                         dst + rank_ * n_per_rank);
             });
  std::lock_guard<std::mutex> lk(world_.mu_);
  if (rank_ == root) world_.total_bytes_ += n_per_rank * 8 * (p - 1);
}

void Comm::allgather(const double* sendbuf, double* recvbuf,
                     int64_t n_per_rank) {
  on_comm_op("allgather", -1, -1, n_per_rank);
  int p = size();
  // Ring allgather: (p-1) rounds.
  double cost = (p - 1) * world_.net().alpha_s +
                (double)(p - 1) * (double)(n_per_rank * 8) /
                    world_.net().bandwidth;
  // Staging area: the first arriver's recvbuf assembles all stripes.
  const void* staged = rendezvous(
      "allgather", recvbuf, kRootFirstArriver, cost, false,
      [&](const void* root_data) {
        double* dst = static_cast<double*>(const_cast<void*>(root_data));
        std::copy(sendbuf, sendbuf + n_per_rank, dst + rank_ * n_per_rank);
      });
  // Second rendezvous distributes the assembled buffer to all ranks.
  rendezvous("allgather.bcast", staged, kRootFirstArriver, 0.0, false,
             [&](const void* root_data) {
               const double* src = static_cast<const double*>(root_data);
               if (src != recvbuf)
                 std::copy(src, src + n_per_rank * p, recvbuf);
             });
  std::lock_guard<std::mutex> lk(world_.mu_);
  if (staged == recvbuf) world_.total_bytes_ += n_per_rank * 8 * (p - 1) * 2;
}

void Comm::allreduce_sum(double* buf, int64_t n) {
  on_comm_op("allreduce", -1, -1, n);
  int p = size();
  double cost = 2 * world_.net().alpha_s * log2p(p) +
                2.0 * (double)(n * 8) / world_.net().bandwidth;
  // Crash-tolerant: the first arriver's buffer accumulates every
  // *surviving* contribution, then is re-broadcast (degraded allreduce:
  // the sum re-forms over the ranks that reached the collective).
  const void* staged = rendezvous(
      "allreduce", buf, kRootFirstArriver, cost, true,
      [&](const void* root_data) {
        double* acc = static_cast<double*>(const_cast<void*>(root_data));
        if (acc != buf) {
          // Serialized accumulation under the collective lock (we are
          // inside the rendezvous critical section).
          for (int64_t i = 0; i < n; ++i) acc[i] += buf[i];
        }
      });
  rendezvous("allreduce.bcast", staged, kRootFirstArriver, 0.0, true,
             [&](const void* root_data) {
               const double* src = static_cast<const double*>(root_data);
               if (src != buf) std::copy(src, src + n, buf);
             });
  std::lock_guard<std::mutex> lk(world_.mu_);
  if (staged == buf) world_.total_bytes_ += n * 8 * (p - 1) * 2;
}

void Comm::reduce_sum(const double* sendbuf, double* recvbuf, int64_t n,
                      int root) {
  on_comm_op("reduce", -1, -1, n, 0, 0, root);
  int p = size();
  double cost = world_.net().alpha_s * log2p(p) +
                (double)(n * 8) / world_.net().bandwidth;
  if (rank_ == root) std::copy(sendbuf, sendbuf + n, recvbuf);
  rendezvous("reduce", recvbuf, root, cost, false,
             [&](const void* root_data) {
               double* acc = static_cast<double*>(const_cast<void*>(root_data));
               if (rank_ != root) {
                 for (int64_t i = 0; i < n; ++i) acc[i] += sendbuf[i];
               }
             });
  std::lock_guard<std::mutex> lk(world_.mu_);
  if (rank_ == root) world_.total_bytes_ += n * 8 * (p - 1);
}

}  // namespace dace::dist
