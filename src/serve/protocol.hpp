// sdfg-serve wire protocol (ROADMAP item 2: the daemon half of the
// compile-and-serve architecture, in front of the PR-8 artifact cache).
//
// Frames are length-prefixed, versioned and checksummed so a daemon
// facing arbitrary clients can never be crashed or desynchronized by a
// bad peer -- every malformed input becomes a structured E6xx
// diagnostic, never undefined behavior:
//
//   offset  size  field
//   0       4     magic "DSRV" (0x44 0x53 0x52 0x56, little-endian u32)
//   4       2     protocol version (currently 1)
//   6       2     verb
//   8       4     payload length in bytes
//   12      4     reserved (must be 0)
//   16      8     FNV-1a 64 checksum of the payload bytes
//   24      n     payload
//
// Decode failures (docs/SERVE.md, docs/DIAGNOSTICS.md):
//   E600 bad magic            E601 unsupported version
//   E602 oversized frame      E603 truncated frame / read timeout
//   E604 payload checksum     E605 unknown verb
//   E606 malformed request body
// Service-level errors the daemon replies with:
//   E607 overload shed (carries retry_after_ms)
//   E608 deadline exceeded / job cancelled or wedged
//   E609 job crashed (executor-thread exception)
//   E610 daemon draining
//   E611 program failed to compile (carries frontend diagnostics)
//
// The fault shim at the bottom mirrors distributed/faults.* and the
// cache's FsFaultPlan: a seeded, deterministic schedule of
// connection-level faults (mid-frame disconnect, slow-loris writes,
// corrupt frames, executor-thread exceptions, wedged jobs, deadline
// storms) driven through the `ctest -L chaos` serve sweep.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dace::serve {

constexpr uint32_t kMagic = 0x56525344u;  // "DSRV" read little-endian
constexpr uint16_t kVersion = 1;
constexpr size_t kHeaderBytes = 24;

enum class Verb : uint16_t {
  Run = 1,      // compile-and-run a DaCeLang program
  Stats = 2,    // serve counters as JSON
  Ping = 3,     // liveness probe
  Metrics = 4,  // metrics registry, Prometheus text exposition
  ReplyOk = 100,
  ReplyError = 101,
};

const char* verb_name(Verb v);
bool known_verb(uint16_t v);

struct Frame {
  Verb verb = Verb::Ping;
  std::string payload;
};

/// Header + payload, ready to write to a stream.
std::string encode_frame(Verb verb, const std::string& payload);

/// Outcome of reading one frame off a stream.
struct Decoded {
  enum Status {
    Ok,     // frame holds a verified frame
    Eof,    // orderly close before any header byte
    Error,  // protocol violation: code/message name the E6xx diagnostic
  };
  Status status = Error;
  Frame frame;
  std::string code;     // "E600".."E605" when status == Error
  std::string message;  // human-readable detail
};

/// Decode one frame from an in-memory byte string (tests, selftests).
/// Short input is E603; `max_payload` bounds accepted frames (E602).
Decoded decode_frame(const std::string& bytes, size_t max_payload);

/// Blocking frame read from `fd` with a poll(2) deadline per read: a
/// peer that stalls mid-frame (slow loris) trips E603 after
/// `io_timeout_ms` instead of wedging the reader thread.
Decoded read_frame(int fd, int io_timeout_ms, size_t max_payload);

/// Write one frame; false + `why` on a short write or peer reset.
bool write_frame(int fd, Verb verb, const std::string& payload,
                 std::string* why);

// ---------------------------------------------------------------------------
// Run requests / replies
// ---------------------------------------------------------------------------

/// Body of a Run frame.  Wire format is line-based key=value headers, a
/// literal "--" separator line, then the DaCeLang source verbatim:
///
///   id=7
///   deadline_ms=500
///   weight=2
///   sym.N=64
///   --
///   @dace.program
///   def f(...): ...
struct RunRequest {
  std::string source;
  std::string function;  // requested function name ("" = last)
  std::map<std::string, int64_t> symbols;
  int64_t deadline_ms = 0;  // 0 = server default
  int weight = 1;           // fair-queueing weight (clamped to [1, 100])
  std::string id;           // client correlation id, echoed in the reply
};

std::string format_run_request(const RunRequest& r);
/// False + `why` on a malformed body (the server replies E606).
bool parse_run_request(const std::string& payload, RunRequest* out,
                       std::string* why);

/// Dedup/content key of a request: everything that determines the
/// result (source, function, symbol bindings) -- the in-flight dedup
/// map is keyed on this.
uint64_t request_key(const RunRequest& r);

/// `{"code":"E6xx","message":...}` (+ `"retry_after_ms":n` when >= 0).
std::string error_payload(const std::string& code, const std::string& message,
                          int64_t retry_after_ms = -1);

// Minimal flat-JSON field extraction for reply payloads (the protocol
// emits only one nesting level; a full parser lives in sdfg-prof).
std::string json_find_string(const std::string& payload,
                             const std::string& key);
int64_t json_find_int(const std::string& payload, const std::string& key,
                      int64_t dflt);
/// The `"outputs":{...}` object of an ok reply -- the deterministic part
/// two runs of the same job must agree on bit-for-bit ("" if absent).
std::string extract_outputs(const std::string& payload);

// ---------------------------------------------------------------------------
// Connection-level fault injection (the serve chaos shim)
// ---------------------------------------------------------------------------

enum class ServeFault {
  None = 0,
  Disconnect,     // client closes mid-frame (header or payload torn)
  SlowLoris,      // client dribbles the frame byte-batches with delays
  Corrupt,        // a payload byte is flipped after checksumming
  CrashJob,       // server: the executor thread throws mid-job
  Wedge,          // server: the job ignores cancellation (wedged executor)
  DeadlineStorm,  // client: deadline_ms forced to 1 (mass expiry)
};

const char* serve_fault_name(ServeFault f);

/// Seeded deterministic fault schedule.  decide() is a pure function of
/// (seed, op index); each injection site applies only the fault kinds it
/// can express and treats the rest as None, so one plan drives client
/// write faults and server job faults from the same draw sequence.
struct ServeFaultPlan {
  uint64_t seed = 0;
  double disconnect_prob = 0;
  double slow_prob = 0;
  double corrupt_prob = 0;
  double crash_prob = 0;
  double wedge_prob = 0;
  double storm_prob = 0;

  bool active() const;
  ServeFault decide(uint64_t op_index) const;

  /// Canonical "key=value,..." spec (inverse of parse); "" when inactive.
  std::string to_string() const;
  /// Parse "seed=3,disconnect=0.2,slow=0.1,corrupt=0.2,crash=0.1,
  /// wedge=0.05,storm=0.1".  Throws dace::Error like
  /// dist::FaultPlan::parse.
  static ServeFaultPlan parse(const std::string& spec);
  /// DACE_SERVE_FAULTS (spec) with DACE_SERVE_FAULT_SEED overriding seed;
  /// throws like parse() on a malformed spec or seed.
  static ServeFaultPlan from_env();
};

/// Draw the next fault decision from `plan` and count/trace injections.
ServeFault next_fault(const ServeFaultPlan& plan);
/// Faults injected since process start (monotonic; test assertions).
uint64_t faults_injected();

/// Chaos-aware frame write (client side): consults `plan` once per call
/// and applies Disconnect / SlowLoris / Corrupt; other kinds are
/// ignored here.  Fault-free when the plan is inactive.
bool write_frame_faulty(int fd, Verb verb, const std::string& payload,
                        const ServeFaultPlan& plan, std::string* why);

}  // namespace dace::serve
