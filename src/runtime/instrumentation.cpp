#include "runtime/instrumentation.hpp"

#include <sstream>

#include "common/diag.hpp"
#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::rt {

ir::Instrument Instrumenter::env_default() {
  return env::choice("DACE_INSTRUMENT", ir::Instrument::Off,
                     {{"0", ir::Instrument::Off},
                      {"1", ir::Instrument::Timer},
                      {"timer", ir::Instrument::Timer},
                      {"counter", ir::Instrument::Counter}});
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

}  // namespace dace::rt
