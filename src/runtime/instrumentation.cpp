#include "runtime/instrumentation.hpp"

#include <charconv>

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
    : args_prefix_("{\"sdfg\":\"" + diag::json_escape(sdfg.name()) +
                   "\",\"kind\":\""),
      default_(env_default()) {
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
  // Appended into one string; sdfg-prof parses these keys in this order.
  std::string a;
  a.reserve(args_prefix_.size() + 192);
  a += args_prefix_;
  a += kind;
  auto field = [&a](const char* key, auto v) {
    char buf[24];
    a += key;
    a.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  field("\",\"state\":", state_id);
  field(",\"node\":", node_id);
  field(",\"tier\":", tier);
  field(",\"iters\":", iters);
  if (delta) {
    field(",\"instrs\":", delta->instrs);
    field(",\"flops\":", delta->flops);
    field(",\"loads\":", delta->loads);
    field(",\"stores\":", delta->stores);
  }
  a += '}';
  obs::complete("node", label, t0_ns, dur_ns, std::move(a));
}

}  // namespace dace::rt
