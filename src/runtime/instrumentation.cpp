#include "runtime/instrumentation.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/diag.hpp"
#include "common/obs.hpp"

namespace dace::rt {

ir::Instrument Instrumenter::env_default() {
  const char* e = std::getenv("DACE_INSTRUMENT");
  if (!e || !*e) return ir::Instrument::Off;
  std::string v(e);
  if (v == "timer" || v == "1") return ir::Instrument::Timer;
  if (v == "counter") return ir::Instrument::Counter;
  return ir::Instrument::Off;
}

Instrumenter::Instrumenter(const ir::SDFG& sdfg)
    : sdfg_name_(sdfg.name()), default_(env_default()) {
  if (default_ != ir::Instrument::Off) {
    active_ = true;
    return;
  }
  // No process default: scan once for explicit attributes so the
  // per-execution check stays a single bool on uninstrumented graphs.
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    if (st.instrument != ir::Instrument::Off) {
      active_ = true;
      return;
    }
    for (int id : st.node_ids()) {
      if (st.node(id)->instrument != ir::Instrument::Off) {
        active_ = true;
        return;
      }
    }
  }
}

void Instrumenter::record(const char* kind, int state_id, int node_id,
                          const std::string& label, ir::Instrument mode,
                          int64_t t0_ns, int64_t dur_ns, int tier,
                          int64_t iters, const VMStats* delta) {
  if (mode == ir::Instrument::Off) return;
  NodeProfile& p = profiles_[{state_id, node_id}];
  if (p.invocations == 0) {
    p.label = label;
    p.kind = kind;
    p.state = state_id;
    p.node = node_id;
  }
  ++p.invocations;
  p.iterations += iters;
  p.total_ns += dur_ns;
  p.tier = std::max(p.tier, tier);
  if (delta) p.vm += *delta;

  if (!obs::enabled()) return;
  if (mode == ir::Instrument::Counter) {
    obs::counter("node", label, (double)p.iterations);
    return;
  }
  std::ostringstream a;
  a << "{\"sdfg\":\"" << diag::json_escape(sdfg_name_) << "\",\"kind\":\""
    << kind << "\",\"state\":" << state_id << ",\"node\":" << node_id
    << ",\"tier\":" << tier << ",\"iters\":" << iters;
  if (delta) {
    a << ",\"instrs\":" << delta->instrs << ",\"flops\":" << delta->flops
      << ",\"loads\":" << delta->loads << ",\"stores\":" << delta->stores;
  }
  a << "}";
  obs::complete("node", label, t0_ns, dur_ns, a.str());
}

std::string Instrumenter::summary() const {
  std::vector<const NodeProfile*> rows;
  rows.reserve(profiles_.size());
  for (const auto& [k, p] : profiles_) rows.push_back(&p);
  std::sort(rows.begin(), rows.end(),
            [](const NodeProfile* a, const NodeProfile* b) {
              return a->total_ns > b->total_ns;
            });
  std::ostringstream os;
  os << "instrumentation report for '" << sdfg_name_ << "':\n";
  char line[256];
  snprintf(line, sizeof(line), "  %-24s %-8s %10s %8s %12s %11s %5s\n",
           "node", "kind", "total ms", "calls", "iters", "instrs/iter",
           "tier");
  os << line;
  for (const NodeProfile* p : rows) {
    double ipi = p->iterations > 0
                     ? (double)p->vm.instrs / (double)p->iterations
                     : 0.0;
    snprintf(line, sizeof(line),
             "  %-24s %-8s %10.3f %8lld %12lld %11.1f %5d\n",
             p->label.c_str(), p->kind.c_str(), (double)p->total_ns / 1e6,
             (long long)p->invocations, (long long)p->iterations, ipi,
             p->tier);
    os << line;
  }
  return os.str();
}

}  // namespace dace::rt
