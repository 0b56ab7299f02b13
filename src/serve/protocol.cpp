#include "serve/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/common.hpp"
#include "common/diag.hpp"
#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::serve {

namespace {

void put_u16(std::string& s, uint16_t v) {
  s.push_back((char)(v & 0xff));
  s.push_back((char)(v >> 8));
}
void put_u32(std::string& s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back((char)((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back((char)((v >> (8 * i)) & 0xff));
}
uint16_t get_u16(const uint8_t* p) { return (uint16_t)(p[0] | (p[1] << 8)); }
uint32_t get_u32(const uint8_t* p) {
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) |
         ((uint32_t)p[3] << 24);
}
uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::Run: return "run";
    case Verb::Stats: return "stats";
    case Verb::Ping: return "ping";
    case Verb::Metrics: return "metrics";
    case Verb::ReplyOk: return "reply-ok";
    case Verb::ReplyError: return "reply-error";
  }
  return "?";
}

bool known_verb(uint16_t v) {
  switch ((Verb)v) {
    case Verb::Run:
    case Verb::Stats:
    case Verb::Ping:
    case Verb::Metrics:
    case Verb::ReplyOk:
    case Verb::ReplyError:
      return true;
  }
  return false;
}

std::string encode_frame(Verb verb, const std::string& payload) {
  std::string s;
  s.reserve(kHeaderBytes + payload.size());
  put_u32(s, kMagic);
  put_u16(s, kVersion);
  put_u16(s, (uint16_t)verb);
  put_u32(s, (uint32_t)payload.size());
  put_u32(s, 0);  // reserved
  put_u64(s, fnv1a(payload.data(), payload.size()));
  s += payload;
  return s;
}

namespace {

Decoded proto_error(std::string code, std::string message) {
  Decoded d;
  d.status = Decoded::Error;
  d.code = std::move(code);
  d.message = std::move(message);
  return d;
}

/// Validate a complete 24-byte header.  On success fills verb/len/sum.
Decoded check_header(const uint8_t* h, size_t max_payload, uint16_t* verb,
                     uint32_t* len, uint64_t* sum) {
  if (get_u32(h) != kMagic)
    return proto_error("E600", "bad frame magic (not a DSRV stream)");
  uint16_t ver = get_u16(h + 4);
  if (ver != kVersion)
    return proto_error("E601", "unsupported protocol version " +
                                   std::to_string(ver) + " (expected " +
                                   std::to_string(kVersion) + ")");
  *verb = get_u16(h + 6);
  *len = get_u32(h + 8);
  if ((size_t)*len > max_payload)
    return proto_error("E602", "oversized frame: " + std::to_string(*len) +
                                   " bytes exceeds the " +
                                   std::to_string(max_payload) + " byte cap");
  if (!known_verb(*verb))
    return proto_error("E605", "unknown verb " + std::to_string(*verb));
  *sum = get_u64(h + 16);
  Decoded d;
  d.status = Decoded::Ok;
  return d;
}

Decoded finish_frame(uint16_t verb, uint64_t sum, std::string payload) {
  if (fnv1a(payload.data(), payload.size()) != sum)
    return proto_error("E604", "payload checksum mismatch");
  Decoded d;
  d.status = Decoded::Ok;
  d.frame.verb = (Verb)verb;
  d.frame.payload = std::move(payload);
  return d;
}

}  // namespace

Decoded decode_frame(const std::string& bytes, size_t max_payload) {
  if (bytes.empty()) {
    Decoded d;
    d.status = Decoded::Eof;
    return d;
  }
  if (bytes.size() < kHeaderBytes)
    return proto_error("E603", "truncated frame: " +
                                   std::to_string(bytes.size()) +
                                   " header bytes of 24");
  const uint8_t* h = (const uint8_t*)bytes.data();
  uint16_t verb;
  uint32_t len;
  uint64_t sum;
  Decoded d = check_header(h, max_payload, &verb, &len, &sum);
  if (d.status != Decoded::Ok) return d;
  if (bytes.size() < kHeaderBytes + len)
    return proto_error(
        "E603", "truncated frame: payload has " +
                    std::to_string(bytes.size() - kHeaderBytes) + " of " +
                    std::to_string(len) + " bytes");
  return finish_frame(verb, sum, bytes.substr(kHeaderBytes, len));
}

namespace {

/// Read exactly n bytes with a per-call poll deadline.  Returns bytes
/// read; short count means EOF (or error/timeout, via *timed_out/errno).
size_t read_exact(int fd, uint8_t* buf, size_t n, int timeout_ms,
                  bool* timed_out) {
  *timed_out = false;
  size_t off = 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms
                                                           : 3600 * 1000);
  while (off < n) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) {
      *timed_out = true;
      return off;
    }
    struct pollfd p = {fd, POLLIN, 0};
    int pr = ::poll(&p, 1, (int)left);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return off;
    }
    if (pr == 0) {
      *timed_out = true;
      return off;
    }
    ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return off;
    }
    if (r == 0) return off;  // peer closed
    off += (size_t)r;
  }
  return off;
}

}  // namespace

Decoded read_frame(int fd, int io_timeout_ms, size_t max_payload) {
  uint8_t hdr[kHeaderBytes];
  bool timed_out = false;
  size_t got = read_exact(fd, hdr, kHeaderBytes, io_timeout_ms, &timed_out);
  if (got == 0 && !timed_out) {
    Decoded d;
    d.status = Decoded::Eof;
    return d;
  }
  if (got < kHeaderBytes)
    return proto_error("E603", timed_out
                                   ? "truncated frame: header stalled "
                                     "(read timeout)"
                                   : "truncated frame: peer closed "
                                     "mid-header");
  uint16_t verb;
  uint32_t len;
  uint64_t sum;
  Decoded d = check_header(hdr, max_payload, &verb, &len, &sum);
  if (d.status != Decoded::Ok) return d;
  std::string payload(len, '\0');
  if (len > 0) {
    got = read_exact(fd, (uint8_t*)payload.data(), len, io_timeout_ms,
                     &timed_out);
    if (got < len)
      return proto_error("E603", timed_out
                                     ? "truncated frame: payload stalled "
                                       "(read timeout)"
                                     : "truncated frame: peer closed "
                                       "mid-payload");
  }
  return finish_frame(verb, sum, std::move(payload));
}

namespace {

bool write_all(int fd, const char* data, size_t n, std::string* why) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that disconnected mid-reply must surface as
    // EPIPE here, not as a process-killing SIGPIPE (chaos plans close
    // sockets at arbitrary points).
    ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (why) *why = std::string("write failed: ") + std::strerror(errno);
      return false;
    }
    off += (size_t)w;
  }
  return true;
}

}  // namespace

bool write_frame(int fd, Verb verb, const std::string& payload,
                 std::string* why) {
  std::string bytes = encode_frame(verb, payload);
  return write_all(fd, bytes.data(), bytes.size(), why);
}

// ---------------------------------------------------------------------------
// Run requests / replies
// ---------------------------------------------------------------------------

std::string format_run_request(const RunRequest& r) {
  std::ostringstream os;
  if (!r.id.empty()) os << "id=" << r.id << "\n";
  if (!r.function.empty()) os << "function=" << r.function << "\n";
  if (r.deadline_ms > 0) os << "deadline_ms=" << r.deadline_ms << "\n";
  if (r.weight != 1) os << "weight=" << r.weight << "\n";
  for (const auto& [k, v] : r.symbols) os << "sym." << k << "=" << v << "\n";
  os << "--\n" << r.source;
  return os.str();
}

bool parse_run_request(const std::string& payload, RunRequest* out,
                       std::string* why) {
  *out = RunRequest();
  size_t pos = 0;
  bool saw_sep = false;
  while (pos <= payload.size()) {
    size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) break;
    std::string line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    if (line == "--") {
      saw_sep = true;
      break;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      *why = "malformed header line '" + line + "' (expected key=value)";
      return false;
    }
    std::string key = line.substr(0, eq);
    std::string val = line.substr(eq + 1);
    auto as_int = [&](int64_t* dst) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(val.c_str(), &end, 10);
      if (errno != 0 || !end || *end != '\0') {
        *why = "header '" + key + "' has non-integer value '" + val + "'";
        return false;
      }
      *dst = v;
      return true;
    };
    if (key == "id") {
      out->id = val;
    } else if (key == "function") {
      out->function = val;
    } else if (key == "deadline_ms") {
      if (!as_int(&out->deadline_ms)) return false;
    } else if (key == "weight") {
      int64_t w = 1;
      if (!as_int(&w)) return false;
      out->weight = (int)std::min<int64_t>(std::max<int64_t>(w, 1), 100);
    } else if (key.rfind("sym.", 0) == 0) {
      std::string name = key.substr(4);
      if (name.empty()) {
        *why = "empty symbol name in header '" + key + "'";
        return false;
      }
      int64_t v = 0;
      if (!as_int(&v)) return false;
      out->symbols[name] = v;
    } else {
      *why = "unknown header '" + key + "'";
      return false;
    }
  }
  if (!saw_sep) {
    *why = "missing '--' separator between headers and source";
    return false;
  }
  out->source = payload.substr(pos);
  if (out->source.empty()) {
    *why = "empty program source";
    return false;
  }
  return true;
}

uint64_t request_key(const RunRequest& r) {
  uint64_t h = fnv1a(r.source.data(), r.source.size());
  h = fnv1a(r.function.data(), r.function.size(), h);
  for (const auto& [k, v] : r.symbols) {  // std::map: canonical order
    h = fnv1a(k.data(), k.size(), h);
    h = fnv1a(&v, sizeof(v), h);
  }
  return h;
}

std::string error_payload(const std::string& code, const std::string& message,
                          int64_t retry_after_ms) {
  std::ostringstream os;
  os << "{\"status\":\"error\",\"code\":\"" << diag::json_escape(code)
     << "\",\"message\":\"" << diag::json_escape(message) << "\"";
  if (retry_after_ms >= 0) os << ",\"retry_after_ms\":" << retry_after_ms;
  os << "}";
  return os.str();
}

std::string json_find_string(const std::string& payload,
                             const std::string& key) {
  std::string pat = "\"" + key + "\":\"";
  size_t p = payload.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  std::string out;
  while (p < payload.size() && payload[p] != '"') {
    if (payload[p] == '\\' && p + 1 < payload.size()) ++p;
    out += payload[p++];
  }
  return out;
}

int64_t json_find_int(const std::string& payload, const std::string& key,
                      int64_t dflt) {
  std::string pat = "\"" + key + "\":";
  size_t p = payload.find(pat);
  if (p == std::string::npos) return dflt;
  p += pat.size();
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(payload.c_str() + p, &end, 10);
  if (errno != 0 || end == payload.c_str() + p) return dflt;
  return v;
}

std::string extract_outputs(const std::string& payload) {
  std::string pat = "\"outputs\":{";
  size_t p = payload.find(pat);
  if (p == std::string::npos) return "";
  size_t start = p + pat.size() - 1;  // at '{'
  int depth = 0;
  for (size_t i = start; i < payload.size(); ++i) {
    if (payload[i] == '{') ++depth;
    if (payload[i] == '}') {
      if (--depth == 0) return payload.substr(start, i - start + 1);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

const char* serve_fault_name(ServeFault f) {
  switch (f) {
    case ServeFault::None: return "none";
    case ServeFault::Disconnect: return "disconnect";
    case ServeFault::SlowLoris: return "slow-loris";
    case ServeFault::Corrupt: return "corrupt";
    case ServeFault::CrashJob: return "crash-job";
    case ServeFault::Wedge: return "wedge";
    case ServeFault::DeadlineStorm: return "deadline-storm";
  }
  return "?";
}

namespace {

constexpr env::SpecField<ServeFaultPlan> kFields[] = {
    {"seed", env::SpecKind::Seed, &ServeFaultPlan::seed},
    {"disconnect", env::SpecKind::Probability,
     &ServeFaultPlan::disconnect_prob},
    {"slow", env::SpecKind::Probability, &ServeFaultPlan::slow_prob},
    {"corrupt", env::SpecKind::Probability, &ServeFaultPlan::corrupt_prob},
    {"crash", env::SpecKind::Probability, &ServeFaultPlan::crash_prob},
    {"wedge", env::SpecKind::Probability, &ServeFaultPlan::wedge_prob},
    {"storm", env::SpecKind::Probability, &ServeFaultPlan::storm_prob},
};
constexpr env::Spec<ServeFaultPlan> kSpec("serve fault plan", kFields);

}  // namespace

bool ServeFaultPlan::active() const { return kSpec.active(*this); }

ServeFault ServeFaultPlan::decide(uint64_t op_index) const {
  if (!active()) return ServeFault::None;
  // kFields lists the probabilities in ServeFault's order.
  return (ServeFault)kSpec.pick(
      *this, fault_draw(seed, {op_index, 0x5e12f00dd15ea5e5ULL}));
}

std::string ServeFaultPlan::to_string() const {
  // Unlike the other plans, a seed alone prints nothing.
  return active() ? kSpec.to_string(*this) : "";
}

ServeFaultPlan ServeFaultPlan::parse(const std::string& spec) {
  return kSpec.parse(spec);
}

ServeFaultPlan ServeFaultPlan::from_env() {
  return kSpec.from_env("DACE_SERVE_FAULTS", "DACE_SERVE_FAULT_SEED");
}

namespace {
std::atomic<uint64_t> g_fault_op{0};
std::atomic<uint64_t> g_faults_injected{0};
}  // namespace

ServeFault next_fault(const ServeFaultPlan& plan) {
  ServeFault f = plan.decide(g_fault_op.fetch_add(1,
                                                  std::memory_order_relaxed));
  if (f != ServeFault::None) {
    g_faults_injected.fetch_add(1, std::memory_order_relaxed);
    OBS_INSTANT("serve", "fault",
                std::string("{\"kind\":\"") + serve_fault_name(f) + "\"}");
  }
  return f;
}

uint64_t faults_injected() {
  return g_faults_injected.load(std::memory_order_relaxed);
}

bool write_frame_faulty(int fd, Verb verb, const std::string& payload,
                        const ServeFaultPlan& plan, std::string* why) {
  if (!plan.active()) return write_frame(fd, verb, payload, why);
  ServeFault f = next_fault(plan);
  std::string bytes = encode_frame(verb, payload);
  switch (f) {
    case ServeFault::Disconnect: {
      // Write a torn prefix and close the connection under the server.
      size_t n = bytes.size() / 2;
      write_all(fd, bytes.data(), n, why);
      ::shutdown(fd, SHUT_WR);
      if (why) *why = "injected mid-frame disconnect";
      return false;
    }
    case ServeFault::SlowLoris: {
      // Dribble the frame in small batches with real delays; a server
      // read timeout shorter than the total write time trips E603.
      const size_t batch = 16;
      for (size_t off = 0; off < bytes.size(); off += batch) {
        size_t n = std::min(batch, bytes.size() - off);
        if (!write_all(fd, bytes.data() + off, n, why)) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return true;
    }
    case ServeFault::Corrupt: {
      // Flip a payload byte after the checksum was computed: the frame
      // arrives complete but fails verification (E604).
      if (bytes.size() > kHeaderBytes)
        bytes[kHeaderBytes + (bytes.size() - kHeaderBytes) / 2] ^= 0x20;
      return write_all(fd, bytes.data(), bytes.size(), why);
    }
    default:
      return write_all(fd, bytes.data(), bytes.size(), why);
  }
}

}  // namespace dace::serve
