// bench-diff: compare two benchmark JSON reports and flag regressions.
//
// The bench binaries (bench/bench_common.hpp) write flat JSON reports at
// exit -- {"fig7.matmul.jit_t1": 1234.5, ...} -- with median nanoseconds
// (or dimensionless ratios for *.ref_ratio keys).  This tool diffs two
// such reports over their common keys:
//
//   bench-diff OLD.json NEW.json            full table, exit 1 on any
//                                           regression > threshold
//   bench-diff --threshold 0.10 OLD NEW     custom threshold (default 0.15)
//   bench-diff --gate OLD NEW               CI gate: advisory (always exit
//                                           0) unless DACE_PERF_STRICT=1,
//                                           because absolute ns baselines
//                                           are machine-dependent
//   bench-diff --selftest                   synthetic-data self check
//
// A key regresses when new > old * (1 + threshold); it improves when
// new < old * (1 - threshold).  Keys present in only one report are
// listed but never gate.  Exit codes: 0 ok, 1 regressions found (unless
// --gate without DACE_PERF_STRICT=1), 2 usage or unreadable input.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Flat-report parsing: a single JSON object mapping string keys to
// numbers.  Anything else (nesting, arrays, non-numeric values) is a
// parse error -- the bench reports never contain them.
// ---------------------------------------------------------------------------

struct ParseError {
  std::string msg;
};

class FlatParser {
 public:
  explicit FlatParser(const std::string& s) : s_(s) {}

  std::map<std::string, double> parse() {
    std::map<std::string, double> out;
    ws();
    expect('{');
    ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      ws();
      std::string key = string();
      ws();
      expect(':');
      ws();
      out[key] = number();
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      ws();
      if (pos_ != s_.size()) fail("trailing characters after document");
      return out;
    }
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError{msg + " at offset " + std::to_string(pos_)};
  }

  void ws() {
    while (pos_ < s_.size() && std::isspace((unsigned char)s_[pos_])) ++pos_;
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

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported escape in key");
        }
      } else {
        out += c;
      }
    }
  }

  double number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit((unsigned char)s_[pos_]) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    try {
      return std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      fail("bad number");
    }
  }
};

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

struct Row {
  std::string name;
  double old_v = 0, new_v = 0;
  double ratio = 0;  // new / old
};

struct Diff {
  std::vector<Row> regressions;   // ratio > 1 + threshold, worst first
  std::vector<Row> improvements;  // ratio < 1 - threshold, best first
  std::vector<Row> stable;        // within threshold
  std::vector<std::string> only_old, only_new;
};

Diff diff_reports(const std::map<std::string, double>& oldr,
                  const std::map<std::string, double>& newr,
                  double threshold) {
  Diff d;
  for (const auto& [k, ov] : oldr) {
    auto it = newr.find(k);
    if (it == newr.end()) {
      d.only_old.push_back(k);
      continue;
    }
    Row row{k, ov, it->second, ov > 0 ? it->second / ov : 1.0};
    if (row.ratio > 1.0 + threshold) {
      d.regressions.push_back(row);
    } else if (row.ratio < 1.0 - threshold) {
      d.improvements.push_back(row);
    } else {
      d.stable.push_back(row);
    }
  }
  for (const auto& [k, nv] : newr) {
    (void)nv;
    if (!oldr.count(k)) d.only_new.push_back(k);
  }
  std::sort(d.regressions.begin(), d.regressions.end(),
            [](const Row& a, const Row& b) { return a.ratio > b.ratio; });
  std::sort(d.improvements.begin(), d.improvements.end(),
            [](const Row& a, const Row& b) { return a.ratio < b.ratio; });
  return d;
}

void print_rows(const char* title, const std::vector<Row>& rows) {
  if (rows.empty()) return;
  std::printf("%s:\n", title);
  for (const Row& r : rows) {
    std::printf("  %-40s %14.1f -> %14.1f  (%+.1f%%)\n", r.name.c_str(),
                r.old_v, r.new_v, (r.ratio - 1.0) * 100.0);
  }
}

std::map<std::string, double> load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) throw ParseError{"cannot open '" + path + "'"};
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string text = ss.str();
  return FlatParser(text).parse();
}

// ---------------------------------------------------------------------------
// Selftest
// ---------------------------------------------------------------------------

int selftest() {
  // Parser: round-trip the exact format bench_common.hpp writes.
  const char* report =
      "{\n  \"fig7.matmul.jit_t1\": 1000.0,\n"
      "  \"fig7.matmul.ref_ratio\": 1.4,\n"
      "  \"micro.BM_TensorAdd/1024\": 250.5\n}\n";
  auto parsed = FlatParser(std::string(report)).parse();
  if (parsed.size() != 3 || parsed.at("fig7.matmul.jit_t1") != 1000.0 ||
      parsed.at("micro.BM_TensorAdd/1024") != 250.5) {
    std::fprintf(stderr, "bench-diff selftest: parser mismatch\n");
    return 1;
  }
  bool syntax = false;
  try {
    FlatParser(std::string("{\"a\": }")).parse();
  } catch (const ParseError&) {
    syntax = true;
  }
  if (!syntax) {
    std::fprintf(stderr, "bench-diff selftest: bad JSON not rejected\n");
    return 1;
  }

  // Diff semantics at the default 15% threshold: +20% regresses, -30%
  // improves, +15% exactly is stable (strict inequality), disjoint keys
  // never gate.
  std::map<std::string, double> oldr = {{"a", 1000.0},
                                        {"b", 1000.0},
                                        {"c", 1000.0},
                                        {"gone", 5.0}};
  std::map<std::string, double> newr = {{"a", 1200.0},
                                        {"b", 700.0},
                                        {"c", 1150.0},
                                        {"fresh", 7.0}};
  Diff d = diff_reports(oldr, newr, 0.15);
  if (d.regressions.size() != 1 || d.regressions[0].name != "a" ||
      d.improvements.size() != 1 || d.improvements[0].name != "b" ||
      d.stable.size() != 1 || d.stable[0].name != "c" ||
      d.only_old != std::vector<std::string>{"gone"} ||
      d.only_new != std::vector<std::string>{"fresh"}) {
    std::fprintf(stderr, "bench-diff selftest: diff classification wrong\n");
    return 1;
  }
  // Tighter threshold flips the stable row into a regression.
  Diff d2 = diff_reports(oldr, newr, 0.10);
  if (d2.regressions.size() != 2) {
    std::fprintf(stderr, "bench-diff selftest: threshold not applied\n");
    return 1;
  }
  // Worst regression sorts first.
  std::map<std::string, double> worse = {{"x", 100.0}, {"y", 100.0}};
  std::map<std::string, double> after = {{"x", 150.0}, {"y", 300.0}};
  Diff d3 = diff_reports(worse, after, 0.15);
  if (d3.regressions.size() != 2 || d3.regressions[0].name != "y") {
    std::fprintf(stderr, "bench-diff selftest: regression sort wrong\n");
    return 1;
  }
  std::printf("bench-diff selftest OK\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: bench-diff [--threshold FRAC] [--gate] OLD.json "
               "NEW.json\n"
               "       bench-diff --selftest\n"
               "Diffs two flat benchmark reports ({\"name\": median_ns}).\n"
               "Exits 1 when any common key regresses by more than FRAC\n"
               "(default 0.15); --gate makes that advisory (exit 0) unless\n"
               "DACE_PERF_STRICT=1.\n");
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.15;
  bool gate = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (a == "--gate") {
      gate = true;
    } else if (a == "--threshold") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      threshold = std::atof(argv[++i]);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "bench-diff: unknown option %s\n", a.c_str());
      usage();
      return 2;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.size() != 2) {
    usage();
    return 2;
  }

  std::map<std::string, double> oldr, newr;
  try {
    oldr = load(paths[0]);
    newr = load(paths[1]);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "bench-diff: %s\n", e.msg.c_str());
    return 2;
  }

  Diff d = diff_reports(oldr, newr, threshold);
  std::printf("bench-diff: %zu common keys (%zu old-only, %zu new-only), "
              "threshold %.0f%%\n",
              d.regressions.size() + d.improvements.size() + d.stable.size(),
              d.only_old.size(), d.only_new.size(), threshold * 100.0);
  print_rows("regressions", d.regressions);
  print_rows("improvements", d.improvements);
  print_rows("stable", d.stable);
  for (const auto& k : d.only_old)
    std::printf("  %-40s (only in %s)\n", k.c_str(), paths[0].c_str());
  for (const auto& k : d.only_new)
    std::printf("  %-40s (only in %s)\n", k.c_str(), paths[1].c_str());

  if (d.regressions.empty()) return 0;
  const char* strict = std::getenv("DACE_PERF_STRICT");
  bool enforce = !gate || (strict && std::strcmp(strict, "1") == 0);
  std::fprintf(stderr, "bench-diff: %zu regression(s) beyond %.0f%%%s\n",
               d.regressions.size(), threshold * 100.0,
               enforce ? "" : " (advisory: --gate without DACE_PERF_STRICT)");
  return enforce ? 1 : 0;
}
