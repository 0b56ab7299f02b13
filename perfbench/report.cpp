#include "report.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/diag.hpp"
#include "common/obs.hpp"

extern char** environ;

namespace perfbench {

using dace::diag::json_escape;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::cerr << "perfbench: FAILED " << what << "\n";
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / (double)v.size();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * (double)(v.size() - 1);
  size_t lo = (size_t)pos;
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - (double)lo) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (double x : v) acc += std::log(x);
  return std::exp(acc / (double)v.size());
}

uint64_t mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::next() {
  s_ += 0x9e3779b97f4a7c15ull;
  return mix(s_, 0);
}

dace::rt::Bindings deep_copy(const dace::rt::Bindings& b) {
  dace::rt::Bindings out;
  for (const auto& [name, t] : b) out.emplace(name, t.copy());
  return out;
}

std::string output_mismatch(const dace::rt::Bindings& got,
                            const dace::rt::Bindings& want,
                            const std::vector<std::string>& names) {
  // Summation order differs between the library kernels, the native tier
  // and the references, so outputs agree to a tolerance, not bitwise.
  for (const auto& n : names) {
    auto g = got.find(n);
    auto w = want.find(n);
    if (g == got.end() || w == want.end()) return "output '" + n + "' missing";
    if (g->second.shape() != w->second.shape() ||
        !dace::rt::allclose(g->second, w->second, 1e-6, 1e-9)) {
      std::ostringstream os;
      os << "output '" << n << "' differs from the oracle";
      if (g->second.shape() == w->second.shape())
        os << " (max diff " << dace::rt::max_abs_diff(g->second, w->second)
           << ")";
      return os.str();
    }
  }
  return "";
}

void corrupt_output(dace::rt::Bindings& got, const std::string& name) {
  auto it = got.find(name);
  if (it == got.end() || it->second.size() == 0) return;
  it->second.set_flat(0, it->second.get_flat(0) + 1.0);
}

double now_ms() { return (double)dace::obs::now_ns() / 1e6; }

double yardstick_ms() {
  double t0 = now_ms();
  std::map<std::string, std::vector<int>> m;
  for (int i = 0; i < 4000; ++i)
    m["node_" + std::to_string(i * 7919 % 4001)].push_back(i);
  std::string text;
  for (const auto& [k, v] : m)
    text += k + ":" + std::to_string(v.size()) + "\n";
  int fd = ::open("yardstick.tmp", O_CREAT | O_WRONLY | O_TRUNC, 0600);
  bool ok = fd >= 0 && ::write(fd, text.data(), text.size()) ==
                           (ssize_t)text.size() && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  ok = ok && ::rename("yardstick.tmp", "yardstick.dat") == 0;
  if (!ok)
    throw std::runtime_error("yardstick: cannot write the working directory");
  return now_ms() - t0;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is in KB on Linux
}

uint64_t tree_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  if (!fs::exists(dir, ec)) return 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += (uint64_t)it->file_size(ec);
  }
  return total;
}

double registry_value(const std::string& exposition, const std::string& name) {
  std::istringstream is(exposition);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::atof(line.c_str() + name.size() + 1);
  }
  return 0;
}

namespace {

std::string first_line_of(const std::string& cmd) {
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[512];
    if (fgets(buf, sizeof(buf), p)) out = buf;
    while (fgets(buf, sizeof(buf), p)) {
    }
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                              : -1;
  struct utsname un {};
  uname(&un);
  const char* cc_env = std::getenv("DACEPP_JIT_CC");
  std::string jit_cc = cc_env && *cc_env ? cc_env : "c++";
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(o.workload) << "\",\"seed\":"
     << o.seed << ",\"seconds\":" << o.seconds
     << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"smoke\":" << (o.smoke ? 1 : 0)
     << ",\"source\":\"" << json_escape(o.source_id) << "\""
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"affinity_cpus\":" << affinity << ",\"cpu_model\":\""
     << json_escape(cpu_model()) << "\",\"kernel\":\""
     << json_escape(std::string(un.sysname) + " " + un.release) << "\""
     << ",\"build\":{\"compiler\":\"" << json_escape(PERFBENCH_CXX)
     << "\",\"version\":\"" << json_escape(PERFBENCH_CXX_VERSION)
     << "\",\"type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\",\"flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\"}"
     << ",\"tier1_jit\":{\"compiler\":\"" << json_escape(jit_cc)
     << "\",\"path\":\""
     << json_escape(first_line_of("command -v " + jit_cc + " 2>/dev/null"))
     << "\",\"version\":\""
     << json_escape(first_line_of(jit_cc + " --version 2>/dev/null"))
     << "\",\"flags\":\"-O3 -march=native -ffp-contract=off -fPIC -shared "
        "-std=c++17 (planned maps; -O2 otherwise)\"}"
     << ",\"env\":{";
  bool first = true;
  std::vector<std::string> vars;
  for (char** e = environ; *e; ++e) {
    std::string kv = *e;
    if (kv.rfind("DACE_", 0) == 0 || kv.rfind("DACEPP_", 0) == 0)
      vars.push_back(kv);
  }
  std::sort(vars.begin(), vars.end());
  for (const auto& kv : vars) {
    size_t eq = kv.find('=');
    os << (first ? "" : ",") << "\"" << json_escape(kv.substr(0, eq))
       << "\":\"" << json_escape(kv.substr(eq + 1)) << "\"";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
