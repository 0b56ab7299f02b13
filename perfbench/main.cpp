// dacepp-bench: one run of one workload of the DaCe++ benchmark.
//
//   dacepp-bench --workload kernels|compile|serve_cold
//                --seed N --seconds S --trace 0|1
//                [--smoke] [--corrupt] [--trace-file out.json]
//                [--source-id ID]
//
// Prints the run's fingerprint (host, build, Tier-1 flags, every
// DACE_*/DACEPP_* variable in effect), then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run measured, each with its unit.  Exits 1 when any output
// was wrong.  run.py next to this file builds the binary, runs it in a
// private directory (its own artifact cache, profile DB and daemon
// socket) and reports the metrics BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "common/diag.hpp"
#include "common/obs.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::cerr << "dacepp-bench: " << why
            << "\nusage: dacepp-bench --workload "
               "kernels|compile|serve_cold --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt] [--trace-file PATH] "
               "[--source-id ID]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
      have_trace = true;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else if (a == "--source-id") {
      o.source_id = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_trace || o.seconds <= 0 || o.seconds > 120)
    return usage("--trace and --seconds in (0, 120] are required");

  Outcome out;
  try {
    if (o.workload == "kernels")
      run_kernels(o, out);
    else if (o.workload == "compile")
      run_compile(o, out);
    else if (o.workload == "serve_cold")
      run_serve(o, out);
    else
      return usage(("unknown workload '" + o.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "dacepp-bench: " << o.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  dace::obs::set_enabled(false);
  if (!o.trace_file.empty() && !dace::obs::write_trace(o.trace_file))
    std::cerr << "dacepp-bench: cannot write " << o.trace_file << "\n";
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("failed_share",
          (double)out.failed() / (double)std::max<int64_t>(1, out.attempted()),
          "fraction");

  bool correct = out.failed() == 0 && out.attempted() > 0;
  std::ostringstream js;
  js << "{";
  bool first = true;
  for (const auto& [name, value_unit] : out.values()) {
    double v = value_unit.first;
    if (!std::isfinite(v)) {
      std::cerr << "dacepp-bench: metric '" << name << "' is not finite\n";
      correct = false;
      v = 0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    js << (first ? "" : ", ") << "\"" << dace::diag::json_escape(name)
       << "\": {\"value\": " << num << ", \"unit\": \""
       << dace::diag::json_escape(value_unit.second) << "\"}";
    first = false;
  }
  js << "}";
  std::cout << "{\"fingerprint\": " << fingerprint_json(o) << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted()
            << ", \"failed\": " << out.failed() << ", \"metrics\": " << js.str()
            << "}" << std::endl;
  return correct ? 0 : 1;
}
