// sdfg-prof: offline aggregation of obs:: traces into a hot-node report.
//
// A run recorded with DACE_INSTRUMENT=timer DACE_TRACE_FILE=t.json emits a
// Chrome/Perfetto trace with frontend, pass, JIT and per-node spans
// (docs/OBSERVABILITY.md).  This tool folds that event stream back into
// the per-SDFG-node view: which maps dominated the runtime, how many
// VM instructions they retired per iteration, which execution tier they
// reached, which optimization pass last rewrote the graph before they
// ran, and -- for maps that reached the native tier -- what the kernel
// planner chose (unroll/jam factors, WCR sinks, scheduler chunk grain).
//
//   sdfg-prof t.json            human-readable report
//   sdfg-prof --json t.json     machine-readable (DiagSink-style JSON)
//   sdfg-prof --metrics t.json  Prometheus-style counter dump
//
// Exit codes: 0 = report produced, 1 = usage error, 2 = malformed or
// empty input.  Bad input is diagnosed with stable E5xx codes:
//   E501  cannot open the trace file
//   E502  JSON syntax error (with line/col)
//   E503  well-formed JSON that is not a Chrome trace document
//   E504  malformed trace event inside traceEvents
//   E505  trace parsed but holds no events (an empty report would
//         otherwise read as a silent success)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/diag.hpp"

namespace {

using dace::diag::DiagSink;
using dace::diag::json_escape;

// ---------------------------------------------------------------------------
// Minimal JSON reader (DOM): just enough for Chrome trace documents.
// ---------------------------------------------------------------------------

struct JV {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JV> arr;
  std::vector<std::pair<std::string, JV>> obj;

  const JV* get(const std::string& key) const {
    if (kind != Obj) return nullptr;
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double as_num(double dflt = 0) const { return kind == Num ? num : dflt; }
  std::string as_str() const { return kind == Str ? str : std::string(); }
  bool as_bool() const { return kind == Bool ? b : false; }
};

struct SyntaxError {
  int line = 0, col = 0;
  std::string msg;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  JV parse() {
    JV v = value();
    ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& msg) {
    int line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw SyntaxError{line, col, msg};
  }

  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JV value() {
    ws();
    char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    fail("unexpected character");
  }

  JV object() {
    expect('{');
    JV v;
    v.kind = JV::Obj;
    ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      ws();
      JV key = string();
      ws();
      expect(':');
      v.obj.emplace_back(std::move(key.str), value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JV array() {
    expect('[');
    JV v;
    v.kind = JV::Arr;
    ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JV string() {
    expect('"');
    JV v;
    v.kind = JV::Str;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= (unsigned)(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= (unsigned)(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= (unsigned)(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Traces only escape control characters; keep BMP handling
          // simple (UTF-8 encode, no surrogate pairing).
          if (cp < 0x80) {
            v.str += (char)cp;
          } else if (cp < 0x800) {
            v.str += (char)(0xC0 | (cp >> 6));
            v.str += (char)(0x80 | (cp & 0x3F));
          } else {
            v.str += (char)(0xE0 | (cp >> 12));
            v.str += (char)(0x80 | ((cp >> 6) & 0x3F));
            v.str += (char)(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JV boolean() {
    JV v;
    v.kind = JV::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JV null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JV{};
  }

  JV number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (isdigit((unsigned char)s_[pos_]) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    JV v;
    v.kind = JV::Num;
    try {
      v.num = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      fail("bad number");
    }
    return v;
  }
};

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

struct Malformed {
  std::string msg;  // E504 detail
};

struct NodeAgg {
  std::string name;
  std::string kind;       // "map", "tasklet", "library", "state"
  double total_ms = 0;
  int64_t calls = 0;
  int64_t iters = 0;
  uint64_t instrs = 0;
  int tier = 0;           // highest tier observed
  double first_ts = -1;   // us; for last-rewrite attribution
  std::string last_pass;  // last committed pass before this node first ran
};

struct PassAgg {
  std::string name;
  double total_ms = 0;
  int64_t runs = 0;
  int64_t applied = 0;
  int64_t committed = 0;
  int64_t rolled_back = 0;
};

// Static-analysis spans (cat "analysis"): detect_races, check_bounds,
// analyze_defuse and the absint interval framework each wrap themselves
// in OBS_SPAN("analysis", <name>).
struct AnalysisAgg {
  std::string name;
  double total_ms = 0;
  int64_t runs = 0;
};

struct RankAgg {
  int rank = 0;
  int64_t comm_ops = 0;
  int64_t retransmits = 0;
  std::map<std::string, int64_t> faults;  // kind -> count
};

// Kernel-plan instants (cat "tier", name "kernel-plan"): the executor
// emits one per program at its first native launch, describing what the
// planner chose (codegen/kernel_plan.hpp) and the measured cost model.
struct PlanAgg {
  std::string map;
  std::string plan;   // KernelPlan::describe(), e.g. "loops=3 jam=4 ..."
  int64_t jam = 1;
  int64_t unroll = 1;
  int64_t sinks = 0;
  int64_t chunks = 1;     // chunk count chosen by the cost scheduler
  double ns_per_iter = 0;  // measured per-iteration cost (EMA)
};

/// Aggregated persistent artifact-cache activity (cat "cache",
/// codegen/artifact_cache.*).
struct CacheAgg {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t commits = 0;
  int64_t corrupt_rejected = 0;
  int64_t evictions = 0;
  int64_t negative_hits = 0;
  int64_t negative_stores = 0;
  int64_t faults = 0;  // injected filesystem faults (chaos shim)
  int64_t errors = 0;  // lock timeouts, write errors, init failures
  double lookup_ms = 0;
  double commit_ms = 0;

  bool any() const {
    return hits || misses || commits || corrupt_rejected || evictions ||
           negative_hits || negative_stores || faults || errors;
  }
};

/// Aggregated sdfg-serve daemon activity (cat "serve", serve/server.*):
/// admission outcomes, job outcomes, and queue-wait percentiles.
struct ServeAgg {
  int64_t accepted = 0;
  int64_t shed = 0;             // E607 admission rejections
  int64_t deduped = 0;          // requests attached to an in-flight twin
  int64_t completed = 0;
  int64_t compile_errors = 0;   // E611 outcomes
  int64_t deadlines = 0;        // E608 cancelled outcomes
  int64_t wedged = 0;           // E608 abandoned outcomes
  int64_t crashed = 0;          // E609 outcomes
  int64_t protocol_errors = 0;  // E600..E606 replies
  int64_t drains = 0;
  int64_t faults = 0;           // injected connection/job faults (chaos shim)
  int64_t recoveries = 0;       // stale-socket recoveries at startup
  std::vector<double> queue_wait_ms;  // one sample per dequeued job
  double exec_ms = 0;
  int64_t execs = 0;

  bool any() const {
    return accepted || shed || deduped || completed || compile_errors ||
           deadlines || wedged || crashed || protocol_errors || drains ||
           faults || recoveries || execs;
  }

  /// Nearest-rank percentile over the queue-wait samples (p in [0,100]).
  double wait_pct(double p) const {
    if (queue_wait_ms.empty()) return 0;
    std::vector<double> s = queue_wait_ms;
    std::sort(s.begin(), s.end());
    size_t idx = (size_t)std::ceil(p / 100.0 * (double)s.size());
    if (idx > 0) --idx;
    return s[std::min(idx, s.size() - 1)];
  }
};

struct Report {
  size_t events = 0;
  std::vector<NodeAgg> nodes;        // sorted hottest-first
  std::vector<PassAgg> passes;       // first-seen order
  std::vector<AnalysisAgg> analyses;  // first-seen order
  double parse_ms = 0;
  double lower_ms = 0;
  int64_t lowered_functions = 0;
  int64_t jit_compiles = 0;
  double jit_compile_ms = 0;
  int64_t jit_cache_hits = 0;
  int64_t jit_negative_hits = 0;
  int64_t tier_promotions = 0;
  int64_t map_compiles = 0;          // bytecode (Tier-0) compilations
  double map_compile_ms = 0;
  std::vector<PlanAgg> plans;        // first-seen order (one per program)
  std::vector<RankAgg> ranks;        // sorted by rank
  CacheAgg cache;
  ServeAgg serve;
};

int64_t arg_int(const JV* args, const char* key) {
  if (!args) return 0;
  const JV* v = args->get(key);
  return v ? (int64_t)std::llround(v->as_num()) : 0;
}

std::string arg_str(const JV* args, const char* key) {
  if (!args) return "";
  const JV* v = args->get(key);
  return v ? v->as_str() : "";
}

Report aggregate(const JV& doc) {
  const JV* events = nullptr;
  if (doc.kind == JV::Arr) {
    events = &doc;  // bare-array Chrome trace
  } else if (doc.kind == JV::Obj) {
    events = doc.get("traceEvents");
  }
  if (!events || events->kind != JV::Arr)
    throw Malformed{"document has no traceEvents array"};

  Report r;
  std::map<std::string, NodeAgg> nodes;
  std::vector<PassAgg> passes;
  std::vector<AnalysisAgg> analyses;
  std::map<int, RankAgg> ranks;
  // (end ts, name) of every committed pass, for last-rewrite attribution.
  std::vector<std::pair<double, std::string>> committed_passes;

  size_t idx = 0;
  for (const JV& e : events->arr) {
    ++idx;
    if (e.kind != JV::Obj)
      throw Malformed{"traceEvents[" + std::to_string(idx - 1) +
                      "] is not an object"};
    const JV* phv = e.get("ph");
    const JV* namev = e.get("name");
    if (!phv || phv->kind != JV::Str || phv->str.size() != 1 || !namev ||
        namev->kind != JV::Str) {
      throw Malformed{"traceEvents[" + std::to_string(idx - 1) +
                      "] lacks string 'ph'/'name'"};
    }
    char ph = phv->str[0];
    if (ph == 'M') continue;  // metadata
    ++r.events;
    const std::string& name = namev->str;
    std::string cat = e.get("cat") ? e.get("cat")->as_str() : "";
    double ts = e.get("ts") ? e.get("ts")->as_num() : 0;
    double dur = e.get("dur") ? e.get("dur")->as_num() : 0;
    int pid = (int)(e.get("pid") ? e.get("pid")->as_num() : 0);
    int tid = (int)(e.get("tid") ? e.get("tid")->as_num() : 0);
    const JV* args = e.get("args");

    if (pid == 1) {
      // Virtual rank timeline.
      RankAgg& ra = ranks[tid];
      ra.rank = tid;
      if (cat == "fault") {
        ++ra.faults[name];
      } else if (cat == "comm") {
        if (name == "retransmit") ++ra.retransmits;
        else ++ra.comm_ops;
      }
      continue;
    }
    if (cat == "node") {
      NodeAgg& na = nodes[name];
      na.name = name;
      if (ph == 'X') {
        na.total_ms += dur / 1000.0;
        ++na.calls;
        na.iters += arg_int(args, "iters");
        na.instrs += (uint64_t)arg_int(args, "instrs");
        na.tier = std::max(na.tier, (int)arg_int(args, "tier"));
        if (na.kind.empty()) na.kind = arg_str(args, "kind");
        if (na.first_ts < 0 || ts < na.first_ts) na.first_ts = ts;
      } else if (ph == 'C') {
        // Counter mode: the value is the cumulative iteration count.
        ++na.calls;
        const JV* v = args ? args->get("value") : nullptr;
        if (v)
          na.iters = std::max(na.iters, (int64_t)std::llround(v->as_num()));
        if (na.kind.empty()) na.kind = "counter";
        if (na.first_ts < 0 || ts < na.first_ts) na.first_ts = ts;
      }
    } else if (cat == "pass" && ph == 'X') {
      PassAgg* pa = nullptr;
      for (auto& p : passes) {
        if (p.name == name) pa = &p;
      }
      if (!pa) {
        passes.push_back(PassAgg{});
        pa = &passes.back();
        pa->name = name;
      }
      pa->total_ms += dur / 1000.0;
      ++pa->runs;
      if (args && args->get("applied") && args->get("applied")->as_bool())
        ++pa->applied;
      if (args && args->get("committed") &&
          args->get("committed")->as_bool()) {
        ++pa->committed;
        committed_passes.emplace_back(ts + dur, name);
      }
      if (args && args->get("rolled_back") &&
          args->get("rolled_back")->as_bool()) {
        ++pa->rolled_back;
      }
    } else if (cat == "analysis" && ph == 'X') {
      AnalysisAgg* aa = nullptr;
      for (auto& a : analyses) {
        if (a.name == name) aa = &a;
      }
      if (!aa) {
        analyses.push_back(AnalysisAgg{});
        aa = &analyses.back();
        aa->name = name;
      }
      aa->total_ms += dur / 1000.0;
      ++aa->runs;
    } else if (cat == "frontend" && ph == 'X') {
      if (name == "parse") r.parse_ms += dur / 1000.0;
      if (name == "lower") {
        r.lower_ms += dur / 1000.0;
        ++r.lowered_functions;
      }
    } else if (cat == "jit") {
      if (name == "compile" && ph == 'X') {
        ++r.jit_compiles;
        r.jit_compile_ms += dur / 1000.0;
      } else if (name == "cache-hit") {
        ++r.jit_cache_hits;
      } else if (name == "negative-cache-hit") {
        ++r.jit_negative_hits;
      }
    } else if (cat == "tier" && name == "kernel-plan") {
      PlanAgg pl;
      pl.map = arg_str(args, "map");
      pl.plan = arg_str(args, "plan");
      pl.jam = arg_int(args, "jam");
      pl.unroll = arg_int(args, "unroll");
      pl.sinks = arg_int(args, "sinks");
      pl.chunks = arg_int(args, "chunks");
      if (args && args->get("ns_per_iter"))
        pl.ns_per_iter = args->get("ns_per_iter")->as_num();
      r.plans.push_back(std::move(pl));
    } else if (cat == "tier" && name == "promote") {
      ++r.tier_promotions;
    } else if (cat == "executor" && name == "compile-map" && ph == 'X') {
      ++r.map_compiles;
      r.map_compile_ms += dur / 1000.0;
    } else if (cat == "cache") {
      // "lookup"/"commit" are spans; everything else is an instant
      // ("commit" appears as both -- the span covers the protocol, the
      // instant marks the publish).
      if (ph == 'X') {
        if (name == "lookup") r.cache.lookup_ms += dur / 1000.0;
        if (name == "commit") r.cache.commit_ms += dur / 1000.0;
      } else if (name == "hit") {
        ++r.cache.hits;
      } else if (name == "miss") {
        ++r.cache.misses;
      } else if (name == "commit") {
        ++r.cache.commits;
      } else if (name == "corrupt-reject") {
        ++r.cache.corrupt_rejected;
      } else if (name == "evict") {
        ++r.cache.evictions;
      } else if (name == "negative-hit") {
        ++r.cache.negative_hits;
      } else if (name == "negative-store") {
        ++r.cache.negative_stores;
      } else if (name == "fault") {
        ++r.cache.faults;
      } else if (name == "lock-timeout" || name == "write-error" ||
                 name == "init-error") {
        ++r.cache.errors;
      }
    } else if (cat == "serve") {
      // "queue-wait"/"exec" are spans; admission and job outcomes are
      // instants ("deadline-fired" marks the watchdog tripping a job's
      // cancel flag; the "deadline" instant is the job's final outcome,
      // so only the latter counts to avoid double-booking).
      if (ph == 'X') {
        if (name == "queue-wait")
          r.serve.queue_wait_ms.push_back(dur / 1000.0);
        if (name == "exec") {
          r.serve.exec_ms += dur / 1000.0;
          ++r.serve.execs;
        }
      } else if (name == "accepted") {
        ++r.serve.accepted;
      } else if (name == "shed") {
        ++r.serve.shed;
      } else if (name == "dedup") {
        ++r.serve.deduped;
      } else if (name == "completed") {
        ++r.serve.completed;
      } else if (name == "compile-error") {
        ++r.serve.compile_errors;
      } else if (name == "deadline") {
        ++r.serve.deadlines;
      } else if (name == "wedged") {
        ++r.serve.wedged;
      } else if (name == "crash") {
        ++r.serve.crashed;
      } else if (name == "protocol-error") {
        ++r.serve.protocol_errors;
      } else if (name == "drain") {
        ++r.serve.drains;
      } else if (name == "fault") {
        ++r.serve.faults;
      } else if (name == "stale-socket-recovered") {
        ++r.serve.recoveries;
      }
    }
  }

  std::sort(committed_passes.begin(), committed_passes.end());
  for (auto& [name, na] : nodes) {
    (void)name;
    for (const auto& [end_ts, pname] : committed_passes) {
      if (na.first_ts >= 0 && end_ts <= na.first_ts) na.last_pass = pname;
    }
    r.nodes.push_back(na);
  }
  std::sort(r.nodes.begin(), r.nodes.end(),
            [](const NodeAgg& a, const NodeAgg& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });
  r.passes = std::move(passes);
  r.analyses = std::move(analyses);
  for (auto& [rk, ra] : ranks) {
    (void)rk;
    r.ranks.push_back(ra);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string render_text(const Report& r, int top) {
  std::ostringstream os;
  char line[320];
  os << "hot nodes (by total time):\n";
  snprintf(line, sizeof(line), "  %-24s %-8s %10s %8s %12s %12s %5s  %s\n",
           "node", "kind", "total ms", "calls", "iters", "instrs/iter",
           "tier", "last rewrite");
  os << line;
  int shown = 0;
  for (const NodeAgg& n : r.nodes) {
    if (top > 0 && shown++ >= top) break;
    double ipi = n.iters > 0 ? (double)n.instrs / (double)n.iters : 0.0;
    snprintf(line, sizeof(line),
             "  %-24s %-8s %10.3f %8lld %12lld %12.1f %5d  %s\n",
             n.name.c_str(), n.kind.c_str(), n.total_ms, (long long)n.calls,
             (long long)n.iters, ipi, n.tier,
             n.last_pass.empty() ? "-" : n.last_pass.c_str());
    os << line;
  }
  if (r.nodes.empty()) os << "  (no instrumented nodes in this trace)\n";
  if (r.parse_ms > 0 || r.lower_ms > 0) {
    snprintf(line, sizeof(line),
             "frontend: parse %.3f ms, lower %.3f ms (%lld functions)\n",
             r.parse_ms, r.lower_ms, (long long)r.lowered_functions);
    os << line;
  }
  if (!r.passes.empty()) {
    double total = 0;
    int64_t committed = 0, rolled = 0;
    for (const auto& p : r.passes) {
      total += p.total_ms;
      committed += p.committed;
      rolled += p.rolled_back;
    }
    snprintf(line, sizeof(line),
             "passes (%lld committed, %lld rolled back, %.3f ms total):\n",
             (long long)committed, (long long)rolled, total);
    os << line;
    for (const auto& p : r.passes) {
      snprintf(line, sizeof(line),
               "  %-24s %10.3f ms  runs=%lld applied=%lld committed=%lld\n",
               p.name.c_str(), p.total_ms, (long long)p.runs,
               (long long)p.applied, (long long)p.committed);
      os << line;
    }
  }
  if (!r.analyses.empty()) {
    double total = 0;
    for (const auto& a : r.analyses) total += a.total_ms;
    snprintf(line, sizeof(line), "analyses (%.3f ms total):\n", total);
    os << line;
    for (const auto& a : r.analyses) {
      snprintf(line, sizeof(line), "  %-24s %10.3f ms  runs=%lld\n",
               a.name.c_str(), a.total_ms, (long long)a.runs);
      os << line;
    }
  }
  if (r.jit_compiles || r.jit_cache_hits || r.jit_negative_hits ||
      r.tier_promotions || r.map_compiles) {
    snprintf(line, sizeof(line),
             "jit: %lld compiles (%.3f ms), %lld cache hits, %lld negative, "
             "%lld promotions; %lld bytecode compiles (%.3f ms)\n",
             (long long)r.jit_compiles, r.jit_compile_ms,
             (long long)r.jit_cache_hits, (long long)r.jit_negative_hits,
             (long long)r.tier_promotions, (long long)r.map_compiles,
             r.map_compile_ms);
    os << line;
  }
  if (r.cache.any()) {
    snprintf(line, sizeof(line),
             "artifact cache: %lld hits, %lld misses, %lld commits "
             "(%.3f ms), %lld corrupt-rejected, %lld evicted, "
             "%lld negative hits, %lld faults injected, %lld errors\n",
             (long long)r.cache.hits, (long long)r.cache.misses,
             (long long)r.cache.commits, r.cache.commit_ms,
             (long long)r.cache.corrupt_rejected,
             (long long)r.cache.evictions, (long long)r.cache.negative_hits,
             (long long)r.cache.faults, (long long)r.cache.errors);
    os << line;
  }
  if (r.serve.any()) {
    snprintf(line, sizeof(line),
             "serve: %lld accepted, %lld shed, %lld deduped, "
             "%lld completed, %lld compile errors, %lld deadlines, "
             "%lld wedged, %lld crashed, %lld protocol errors, "
             "%lld faults injected\n",
             (long long)r.serve.accepted, (long long)r.serve.shed,
             (long long)r.serve.deduped, (long long)r.serve.completed,
             (long long)r.serve.compile_errors, (long long)r.serve.deadlines,
             (long long)r.serve.wedged, (long long)r.serve.crashed,
             (long long)r.serve.protocol_errors, (long long)r.serve.faults);
    os << line;
    if (!r.serve.queue_wait_ms.empty()) {
      snprintf(line, sizeof(line),
               "  queue wait ms: p50=%.3f p90=%.3f p99=%.3f (%lld jobs); "
               "exec %.3f ms total (%lld runs)\n",
               r.serve.wait_pct(50), r.serve.wait_pct(90),
               r.serve.wait_pct(99),
               (long long)r.serve.queue_wait_ms.size(), r.serve.exec_ms,
               (long long)r.serve.execs);
      os << line;
    }
  }
  if (!r.plans.empty()) {
    os << "kernel plans (first native launch per map):\n";
    for (const PlanAgg& p : r.plans) {
      snprintf(line, sizeof(line),
               "  %-24s %-32s jam=%lld unroll=%lld sinks=%lld chunks=%lld "
               "ns/iter=%.1f\n",
               p.map.c_str(), p.plan.c_str(), (long long)p.jam,
               (long long)p.unroll, (long long)p.sinks, (long long)p.chunks,
               p.ns_per_iter);
      os << line;
    }
  }
  if (!r.ranks.empty()) {
    os << "virtual ranks:\n";
    for (const RankAgg& ra : r.ranks) {
      int64_t nfaults = 0;
      std::string detail;
      for (const auto& [k, v] : ra.faults) {
        nfaults += v;
        if (!detail.empty()) detail += ",";
        detail += k + "=" + std::to_string(v);
      }
      snprintf(line, sizeof(line),
               "  rank %d: %lld comm ops, %lld faults%s%s%s, "
               "%lld retransmits\n",
               ra.rank, (long long)ra.comm_ops, (long long)nfaults,
               detail.empty() ? "" : " [", detail.c_str(),
               detail.empty() ? "" : "]", (long long)ra.retransmits);
      os << line;
    }
  }
  return os.str();
}

std::string render_json(const Report& r, const std::string& file, int top) {
  std::ostringstream os;
  os << "{\"file\":\"" << json_escape(file) << "\",\"events\":" << r.events
     << ",\"nodes\":[";
  int shown = 0;
  bool first = true;
  for (const NodeAgg& n : r.nodes) {
    if (top > 0 && shown++ >= top) break;
    if (!first) os << ",";
    first = false;
    double ipi = n.iters > 0 ? (double)n.instrs / (double)n.iters : 0.0;
    char num[64];
    snprintf(num, sizeof(num), "%.3f", n.total_ms);
    os << "{\"name\":\"" << json_escape(n.name) << "\",\"kind\":\""
       << json_escape(n.kind) << "\",\"total_ms\":" << num
       << ",\"calls\":" << n.calls << ",\"iters\":" << n.iters
       << ",\"instrs\":" << n.instrs;
    snprintf(num, sizeof(num), "%.1f", ipi);
    os << ",\"instrs_per_iter\":" << num << ",\"tier\":" << n.tier
       << ",\"last_rewrite\":\"" << json_escape(n.last_pass) << "\"}";
  }
  os << "],\"passes\":[";
  first = true;
  for (const PassAgg& p : r.passes) {
    if (!first) os << ",";
    first = false;
    char num[64];
    snprintf(num, sizeof(num), "%.3f", p.total_ms);
    os << "{\"name\":\"" << json_escape(p.name) << "\",\"total_ms\":" << num
       << ",\"runs\":" << p.runs << ",\"applied\":" << p.applied
       << ",\"committed\":" << p.committed
       << ",\"rolled_back\":" << p.rolled_back << "}";
  }
  os << "],\"analyses\":[";
  first = true;
  for (const AnalysisAgg& a : r.analyses) {
    if (!first) os << ",";
    first = false;
    char num[64];
    snprintf(num, sizeof(num), "%.3f", a.total_ms);
    os << "{\"name\":\"" << json_escape(a.name) << "\",\"total_ms\":" << num
       << ",\"runs\":" << a.runs << "}";
  }
  char num[64];
  snprintf(num, sizeof(num), "%.3f", r.parse_ms);
  os << "],\"frontend\":{\"parse_ms\":" << num;
  snprintf(num, sizeof(num), "%.3f", r.lower_ms);
  os << ",\"lower_ms\":" << num << ",\"functions\":" << r.lowered_functions
     << "},\"jit\":{\"compiles\":" << r.jit_compiles;
  snprintf(num, sizeof(num), "%.3f", r.jit_compile_ms);
  os << ",\"compile_ms\":" << num << ",\"cache_hits\":" << r.jit_cache_hits
     << ",\"negative_hits\":" << r.jit_negative_hits
     << ",\"promotions\":" << r.tier_promotions
     << ",\"bytecode_compiles\":" << r.map_compiles
     << "},\"cache\":{\"hits\":" << r.cache.hits
     << ",\"misses\":" << r.cache.misses << ",\"commits\":" << r.cache.commits;
  snprintf(num, sizeof(num), "%.3f", r.cache.lookup_ms);
  os << ",\"lookup_ms\":" << num;
  snprintf(num, sizeof(num), "%.3f", r.cache.commit_ms);
  os << ",\"commit_ms\":" << num
     << ",\"corrupt_rejected\":" << r.cache.corrupt_rejected
     << ",\"evictions\":" << r.cache.evictions
     << ",\"negative_hits\":" << r.cache.negative_hits
     << ",\"negative_stores\":" << r.cache.negative_stores
     << ",\"faults\":" << r.cache.faults << ",\"errors\":" << r.cache.errors
     << "},\"serve\":{\"accepted\":" << r.serve.accepted
     << ",\"shed\":" << r.serve.shed << ",\"deduped\":" << r.serve.deduped
     << ",\"completed\":" << r.serve.completed
     << ",\"compile_errors\":" << r.serve.compile_errors
     << ",\"deadlines\":" << r.serve.deadlines
     << ",\"wedged\":" << r.serve.wedged << ",\"crashed\":" << r.serve.crashed
     << ",\"protocol_errors\":" << r.serve.protocol_errors
     << ",\"drains\":" << r.serve.drains << ",\"faults\":" << r.serve.faults
     << ",\"recoveries\":" << r.serve.recoveries
     << ",\"jobs_waited\":" << r.serve.queue_wait_ms.size();
  snprintf(num, sizeof(num), "%.3f", r.serve.wait_pct(50));
  os << ",\"queue_wait_p50_ms\":" << num;
  snprintf(num, sizeof(num), "%.3f", r.serve.wait_pct(90));
  os << ",\"queue_wait_p90_ms\":" << num;
  snprintf(num, sizeof(num), "%.3f", r.serve.wait_pct(99));
  os << ",\"queue_wait_p99_ms\":" << num;
  snprintf(num, sizeof(num), "%.3f", r.serve.exec_ms);
  os << ",\"exec_ms\":" << num << ",\"execs\":" << r.serve.execs
     << "},\"plans\":[";
  first = true;
  for (const PlanAgg& p : r.plans) {
    if (!first) os << ",";
    first = false;
    snprintf(num, sizeof(num), "%.1f", p.ns_per_iter);
    os << "{\"map\":\"" << json_escape(p.map) << "\",\"plan\":\""
       << json_escape(p.plan) << "\",\"jam\":" << p.jam
       << ",\"unroll\":" << p.unroll << ",\"sinks\":" << p.sinks
       << ",\"chunks\":" << p.chunks << ",\"ns_per_iter\":" << num << "}";
  }
  os << "],\"ranks\":[";
  first = true;
  for (const RankAgg& ra : r.ranks) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << ra.rank << ",\"comm_ops\":" << ra.comm_ops
       << ",\"retransmits\":" << ra.retransmits << ",\"faults\":{";
    bool f2 = true;
    for (const auto& [k, v] : ra.faults) {
      if (!f2) os << ",";
      f2 = false;
      os << "\"" << json_escape(k) << "\":" << v;
    }
    os << "}}";
  }
  os << "]}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Selftest: a synthetic trace with every event family, golden output.
// ---------------------------------------------------------------------------

const char* kSelftestTrace = R"TRACE({"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"dacepp host"}},
{"ph":"X","name":"parse","cat":"frontend","pid":0,"tid":0,"ts":0,"dur":1500},
{"ph":"X","name":"lower","cat":"frontend","pid":0,"tid":0,"ts":1500,"dur":2500,"args":{"function":"stencil"}},
{"ph":"X","name":"fuse_maps","cat":"pass","pid":0,"tid":0,"ts":4100,"dur":2000,"args":{"pipeline":"auto_optimize","applied":true,"committed":true,"rolled_back":false}},
{"ph":"X","name":"tile_maps","cat":"pass","pid":0,"tid":0,"ts":6200,"dur":1000,"args":{"pipeline":"auto_optimize","applied":false,"committed":false,"rolled_back":false}},
{"ph":"X","name":"race","cat":"analysis","pid":0,"tid":0,"ts":7200,"dur":400},
{"ph":"X","name":"absint.ranges","cat":"analysis","pid":0,"tid":0,"ts":7600,"dur":200},
{"ph":"X","name":"absint.ranges","cat":"analysis","pid":0,"tid":0,"ts":7800,"dur":100},
{"ph":"X","name":"compile-map","cat":"executor","pid":0,"tid":0,"ts":8000,"dur":300,"args":{"map":"stencil","instructions":24}},
{"ph":"X","name":"init","cat":"node","pid":0,"tid":0,"ts":9000,"dur":500,"args":{"kind":"map","state":0,"node":1,"tier":0,"iters":100,"instrs":400}},
{"ph":"X","name":"stencil","cat":"node","pid":0,"tid":0,"ts":10000,"dur":4000,"args":{"kind":"map","state":1,"node":2,"tier":0,"iters":1000,"instrs":42000}},
{"ph":"i","name":"promote","cat":"tier","pid":0,"tid":0,"ts":14200,"s":"t","args":{"map":"stencil","iterations":1000}},
{"ph":"X","name":"compile","cat":"jit","pid":0,"tid":1,"ts":14300,"dur":50000,"args":{"program":"dacepp_map_0000000000000001","ok":true}},
{"ph":"i","name":"cache-hit","cat":"jit","pid":0,"tid":0,"ts":65000,"s":"t"},
{"ph":"X","name":"lookup","cat":"cache","pid":0,"tid":1,"ts":14310,"dur":200,"args":{"key":"00112233aabbccdd"}},
{"ph":"i","name":"miss","cat":"cache","pid":0,"tid":1,"ts":14400,"s":"t","args":{"key":"00112233aabbccdd"}},
{"ph":"X","name":"commit","cat":"cache","pid":0,"tid":1,"ts":64300,"dur":500,"args":{"key":"00112233aabbccdd"}},
{"ph":"i","name":"commit","cat":"cache","pid":0,"tid":1,"ts":64700,"s":"t","args":{"key":"00112233aabbccdd","bytes":15136}},
{"ph":"X","name":"lookup","cat":"cache","pid":0,"tid":0,"ts":65100,"dur":40,"args":{"key":"00112233aabbccdd"}},
{"ph":"i","name":"hit","cat":"cache","pid":0,"tid":0,"ts":65130,"s":"t","args":{"key":"00112233aabbccdd"}},
{"ph":"i","name":"corrupt-reject","cat":"cache","pid":0,"tid":0,"ts":66000,"s":"t","args":{"key":"ffeeddcc00112233","why":"checksum mismatch"}},
{"ph":"i","name":"fault","cat":"cache","pid":0,"tid":0,"ts":66100,"s":"t","args":{"kind":"torn-write","op":3}},
{"ph":"i","name":"negative-store","cat":"cache","pid":0,"tid":0,"ts":66200,"s":"t","args":{"program":"00000000000000ff"}},
{"ph":"X","name":"stencil","cat":"node","pid":0,"tid":0,"ts":70000,"dur":1000,"args":{"kind":"map","state":1,"node":2,"tier":1,"iters":1000}},
{"ph":"i","name":"kernel-plan","cat":"tier","pid":0,"tid":0,"ts":71000,"s":"t","args":{"map":"stencil","plan":"loops=3 jam=4 unroll=4 sink=1","jam":4,"unroll":4,"sinks":1,"chunks":8,"ns_per_iter":2.5}},
{"ph":"i","name":"start","cat":"serve","pid":0,"tid":0,"ts":80000,"s":"t","args":{"socket":"/tmp/s.sock","workers":2}},
{"ph":"i","name":"accepted","cat":"serve","pid":0,"tid":0,"ts":80100,"s":"t","args":{"key":"00000000000000aa"}},
{"ph":"i","name":"dedup","cat":"serve","pid":0,"tid":0,"ts":80200,"s":"t","args":{"key":"00000000000000aa"}},
{"ph":"X","name":"queue-wait","cat":"serve","pid":0,"tid":0,"ts":80100,"dur":2000,"args":{"key":"00000000000000aa"}},
{"ph":"X","name":"exec","cat":"serve","pid":0,"tid":0,"ts":82100,"dur":5000,"args":{"outcome":"ok"}},
{"ph":"i","name":"completed","cat":"serve","pid":0,"tid":0,"ts":87100,"s":"t","args":{"key":"00000000000000aa","fanout":2}},
{"ph":"i","name":"shed","cat":"serve","pid":0,"tid":0,"ts":87200,"s":"t","args":{"key":"00000000000000bb"}},
{"ph":"i","name":"protocol-error","cat":"serve","pid":0,"tid":0,"ts":87300,"s":"t","args":{"code":"E604"}},
{"ph":"i","name":"fault","cat":"serve","pid":0,"tid":0,"ts":87400,"s":"t","args":{"kind":"corrupt","op":7}},
{"ph":"X","name":"queue-wait","cat":"serve","pid":0,"tid":0,"ts":87000,"dur":8000,"args":{"key":"00000000000000cc"}},
{"ph":"i","name":"deadline-fired","cat":"serve","pid":0,"tid":0,"ts":95100,"s":"t","args":{"key":"00000000000000cc"}},
{"ph":"i","name":"deadline","cat":"serve","pid":0,"tid":0,"ts":95200,"s":"t","args":{"key":"00000000000000cc","fanout":1}},
{"ph":"i","name":"drain","cat":"serve","pid":0,"tid":0,"ts":99000,"s":"t","args":{"accepted":2,"queue_depth":0}},
{"ph":"i","name":"send","cat":"comm","pid":1,"tid":0,"ts":0,"s":"t","args":{"peer":1,"tag":5,"n":64}},
{"ph":"i","name":"drop","cat":"fault","pid":1,"tid":0,"ts":0,"s":"t","args":{"peer":1,"tag":5,"bytes":512,"seq":0,"attempt":0}},
{"ph":"i","name":"retransmit","cat":"comm","pid":1,"tid":0,"ts":1000,"s":"t","args":{"peer":1,"tag":5,"attempt":0,"backoff_s":0.001}},
{"ph":"i","name":"recv","cat":"comm","pid":1,"tid":1,"ts":2000,"s":"t","args":{"peer":0,"tag":5,"n":64}}
],"displayTimeUnit":"ms"}
)TRACE";

const char* kSelftestGolden =
    "hot nodes (by total time):\n"
    "  node                     kind       total ms    calls        iters"
    "  instrs/iter  tier  last rewrite\n"
    "  stencil                  map           5.000        2         2000"
    "         21.0     1  fuse_maps\n"
    "  init                     map           0.500        1          100"
    "          4.0     0  fuse_maps\n"
    "frontend: parse 1.500 ms, lower 2.500 ms (1 functions)\n"
    "passes (1 committed, 0 rolled back, 3.000 ms total):\n"
    "  fuse_maps                     2.000 ms  runs=1 applied=1 committed=1\n"
    "  tile_maps                     1.000 ms  runs=1 applied=0 committed=0\n"
    "analyses (0.700 ms total):\n"
    "  race                          0.400 ms  runs=1\n"
    "  absint.ranges                 0.300 ms  runs=2\n"
    "jit: 1 compiles (50.000 ms), 1 cache hits, 0 negative, 1 promotions; "
    "1 bytecode compiles (0.300 ms)\n"
    "artifact cache: 1 hits, 1 misses, 1 commits (0.500 ms), "
    "1 corrupt-rejected, 0 evicted, 0 negative hits, 1 faults injected, "
    "0 errors\n"
    "serve: 1 accepted, 1 shed, 1 deduped, 1 completed, 0 compile errors, "
    "1 deadlines, 0 wedged, 0 crashed, 1 protocol errors, 1 faults injected\n"
    "  queue wait ms: p50=2.000 p90=8.000 p99=8.000 (2 jobs); "
    "exec 5.000 ms total (1 runs)\n"
    "kernel plans (first native launch per map):\n"
    "  stencil                  loops=3 jam=4 unroll=4 sink=1    "
    "jam=4 unroll=4 sinks=1 chunks=8 ns/iter=2.5\n"
    "virtual ranks:\n"
    "  rank 0: 1 comm ops, 1 faults [drop=1], 1 retransmits\n"
    "  rank 1: 1 comm ops, 0 faults, 0 retransmits\n";

std::string render_metrics(const Report& r);

int selftest() {
  // Golden report over the synthetic trace.
  JV doc = JsonParser(std::string(kSelftestTrace)).parse();
  Report r = aggregate(doc);
  std::string got = render_text(r, 20);
  if (got != kSelftestGolden) {
    std::fprintf(stderr,
                 "sdfg-prof selftest: report mismatch\n-- got:\n%s"
                 "-- want:\n%s",
                 got.c_str(), kSelftestGolden);
    return 1;
  }
  // The ranking must put the stencil map first with its tier recorded.
  if (r.nodes.empty() || r.nodes[0].name != "stencil" ||
      r.nodes[0].tier != 1) {
    std::fprintf(stderr, "sdfg-prof selftest: bad hot-node ranking\n");
    return 1;
  }
  // JSON output is parseable by our own reader and carries the ranking.
  std::string js = render_json(r, "selftest", 20);
  JV jdoc = JsonParser(js).parse();
  const JV* nodes = jdoc.get("nodes");
  if (!nodes || nodes->kind != JV::Arr || nodes->arr.empty() ||
      nodes->arr[0].get("name")->as_str() != "stencil") {
    std::fprintf(stderr, "sdfg-prof selftest: bad --json output\n");
    return 1;
  }
  const JV* analyses = jdoc.get("analyses");
  if (!analyses || analyses->kind != JV::Arr || analyses->arr.size() != 2 ||
      analyses->arr[0].get("name")->as_str() != "race") {
    std::fprintf(stderr, "sdfg-prof selftest: bad analyses aggregation\n");
    return 1;
  }
  const JV* cache = jdoc.get("cache");
  if (!cache || cache->kind != JV::Obj ||
      (int)cache->get("hits")->as_num() != 1 ||
      (int)cache->get("misses")->as_num() != 1 ||
      (int)cache->get("commits")->as_num() != 1 ||
      (int)cache->get("corrupt_rejected")->as_num() != 1 ||
      (int)cache->get("negative_stores")->as_num() != 1 ||
      (int)cache->get("faults")->as_num() != 1) {
    std::fprintf(stderr, "sdfg-prof selftest: bad cache aggregation\n");
    return 1;
  }
  const JV* serve = jdoc.get("serve");
  if (!serve || serve->kind != JV::Obj ||
      (int)serve->get("accepted")->as_num() != 1 ||
      (int)serve->get("shed")->as_num() != 1 ||
      (int)serve->get("deduped")->as_num() != 1 ||
      (int)serve->get("completed")->as_num() != 1 ||
      (int)serve->get("deadlines")->as_num() != 1 ||
      (int)serve->get("jobs_waited")->as_num() != 2 ||
      serve->get("queue_wait_p90_ms")->as_num() < 7.9 ||
      serve->get("queue_wait_p90_ms")->as_num() > 8.1) {
    std::fprintf(stderr, "sdfg-prof selftest: bad serve aggregation\n");
    return 1;
  }
  const JV* plans = jdoc.get("plans");
  if (!plans || plans->kind != JV::Arr || plans->arr.size() != 1 ||
      plans->arr[0].get("map")->as_str() != "stencil" ||
      (int)plans->arr[0].get("jam")->as_num() != 4 ||
      (int)plans->arr[0].get("chunks")->as_num() != 8) {
    std::fprintf(stderr, "sdfg-prof selftest: bad kernel-plan aggregation\n");
    return 1;
  }
  // Error paths: E502 (syntax), E503 (not a trace), E504 (bad event).
  bool e502 = false, e503 = false, e504 = false;
  try {
    JsonParser(std::string("{\"truncated\":")).parse();
  } catch (const SyntaxError&) {
    e502 = true;
  }
  try {
    aggregate(JsonParser(std::string("{\"foo\":1}")).parse());
  } catch (const Malformed&) {
    e503 = true;
  }
  try {
    aggregate(JsonParser(std::string("{\"traceEvents\":[42]}")).parse());
  } catch (const Malformed&) {
    e504 = true;
  }
  if (!e502 || !e503 || !e504) {
    std::fprintf(stderr, "sdfg-prof selftest: error paths not exercised\n");
    return 1;
  }
  // --metrics exposition carries the aggregates under the registry names.
  std::string mx = render_metrics(r);
  if (mx.find("dacepp_trace_events_total " + std::to_string(r.events)) ==
          std::string::npos ||
      mx.find("dacepp_cache_hits_total 1") == std::string::npos ||
      mx.find("dacepp_serve_accepted_total 1") == std::string::npos) {
    std::fprintf(stderr, "sdfg-prof selftest: bad --metrics output\n");
    return 1;
  }
  std::printf("sdfg-prof selftest OK (%zu events aggregated)\n", r.events);
  return 0;
}

/// Prometheus-style text exposition of the trace-derived aggregates --
/// the offline twin of the serve daemon's Metrics verb, using the same
/// metric names so dashboards need only one vocabulary.
std::string render_metrics(const Report& r) {
  std::ostringstream os;
  auto c = [&](const char* name, long long v) {
    os << "# TYPE " << name << " counter\n" << name << " " << v << "\n";
  };
  c("dacepp_trace_events_total", (long long)r.events);
  c("dacepp_jit_compiles_total", r.jit_compiles);
  c("dacepp_jit_cache_hits_total", r.jit_cache_hits);
  c("dacepp_jit_negative_hits_total", r.jit_negative_hits);
  c("dacepp_tier_promotions_total", r.tier_promotions);
  c("dacepp_map_compiles_total", r.map_compiles);
  c("dacepp_cache_hits_total", r.cache.hits);
  c("dacepp_cache_misses_total", r.cache.misses);
  c("dacepp_cache_commits_total", r.cache.commits);
  c("dacepp_cache_corrupt_total", r.cache.corrupt_rejected);
  c("dacepp_cache_evictions_total", r.cache.evictions);
  c("dacepp_cache_negative_hits_total", r.cache.negative_hits);
  c("dacepp_cache_negative_stores_total", r.cache.negative_stores);
  c("dacepp_cache_faults_injected_total", r.cache.faults);
  c("dacepp_serve_accepted_total", r.serve.accepted);
  c("dacepp_serve_shed_total", r.serve.shed);
  c("dacepp_serve_deduped_total", r.serve.deduped);
  c("dacepp_serve_completed_total", r.serve.completed);
  c("dacepp_serve_compile_errors_total", r.serve.compile_errors);
  c("dacepp_serve_deadline_total", r.serve.deadlines);
  c("dacepp_serve_crashed_total", r.serve.crashed);
  c("dacepp_serve_protocol_errors_total", r.serve.protocol_errors);
  return os.str();
}

void usage() {
  std::fprintf(stderr,
               "usage: sdfg-prof [--json|--metrics] [--top N] TRACE.json\n"
               "       sdfg-prof --selftest\n"
               "Aggregates an obs:: Chrome/Perfetto trace "
               "(DACE_TRACE_FILE=...) into a hot-node report.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool metrics = false;
  int top = 20;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (a == "--json") {
      json = true;
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a == "--top") {
      if (i + 1 >= argc) {
        usage();
        return 1;
      }
      top = std::atoi(argv[++i]);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "sdfg-prof: unknown option %s\n", a.c_str());
      usage();
      return 1;
    } else {
      path = a;
    }
  }
  if (path.empty()) {
    usage();
    return 1;
  }

  DiagSink sink;
  sink.set_source(path, "");
  std::string text;
  {
    std::ifstream f(path, std::ios::binary);
    if (!f.good()) {
      sink.error("E501", 0, 0, "cannot open trace file '" + path + "'");
    } else {
      std::ostringstream ss;
      ss << f.rdbuf();
      text = ss.str();
    }
  }
  Report report;
  if (!sink.has_errors()) {
    try {
      JV doc = JsonParser(text).parse();
      report = aggregate(doc);
    } catch (const SyntaxError& e) {
      sink.error("E502", e.line, e.col, "JSON syntax error: " + e.msg);
    } catch (const Malformed& m) {
      // E503 = document shape, E504 = individual event shape.
      bool doc_level = m.msg.find("traceEvents[") == std::string::npos;
      sink.error(doc_level ? "E503" : "E504", 0, 0,
                 "not a valid trace: " + m.msg);
    }
  }
  // A trace that parsed but recorded nothing is almost always a wiring
  // mistake (DACE_TRACE_FILE unset during the run, wrong file, empty
  // traceEvents): diagnose it instead of printing an empty report.
  if (!sink.has_errors() && report.events == 0) {
    sink.error("E505", 0, 0,
               "empty trace: '" + path + "' holds no events");
  }
  if (sink.has_errors()) {
    if (json) std::printf("%s\n", sink.to_json().c_str());
    std::fprintf(stderr, "%s", sink.render().c_str());
    return 2;
  }
  if (metrics) {
    std::printf("%s", render_metrics(report).c_str());
    return 0;
  }
  if (json) {
    std::printf("%s", render_json(report, path, top).c_str());
  } else {
    std::printf("sdfg-prof: %zu events from %s\n", report.events,
                path.c_str());
    std::printf("%s", render_text(report, top).c_str());
  }
  return 0;
}
