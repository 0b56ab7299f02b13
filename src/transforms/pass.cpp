#include "transforms/pass.hpp"

#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/diag.hpp"
#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::xf {

int apply_repeated(ir::SDFG& sdfg, const Transformation& t,
                   int max_iterations) {
  int n = 0;
  while (n < max_iterations && t(sdfg)) ++n;
  return n;
}

Pipeline& Pipeline::add(const std::string& name, Transformation t) {
  passes_.push_back({name, std::move(t)});
  return *this;
}

Pipeline& Pipeline::add_fixpoint(const std::string& name, Transformation t) {
  passes_.push_back({name, [t = std::move(t)](ir::SDFG& g) {
                       return apply_repeated(g, t) > 0;
                     }});
  return *this;
}

bool Pipeline::verify() const {
  return verify_.value_or(analysis::verify_env());
}

// -- transactional execution ------------------------------------------------

namespace {

/// Result of executing one pass body (no commit decision yet).
struct PassRun {
  bool applied = false;
  bool timed_out = false;
  std::string error;  // empty = completed without throwing
};

PassRun run_body(const Transformation& body, ir::SDFG& g) {
  PassRun r;
  try {
    r.applied = body(g);
  } catch (const std::exception& e) {
    r.error = e.what();
    if (r.error.empty()) r.error = "unknown error";
  } catch (...) {
    r.error = "non-standard exception";
  }
  return r;
}

/// Executes a pass against `graph`, bounded by `timeout_ms` when > 0.
/// With a timeout the body runs in a detached worker thread that owns a
/// shared reference to the graph: abandoning it on timeout is safe
/// because the orphaned worker keeps mutating only its own (discarded)
/// copy, never the committed graph.
PassRun execute_pass(const Pass& p, std::shared_ptr<ir::SDFG> graph,
                     int timeout_ms) {
  if (timeout_ms <= 0) return run_body(p.apply, *graph);
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    PassRun result;
  };
  auto shared = std::make_shared<Shared>();
  std::thread([shared, body = p.apply, graph]() {
    PassRun r = run_body(body, *graph);
    std::lock_guard<std::mutex> lk(shared->m);
    shared->result = std::move(r);
    shared->done = true;
    shared->cv.notify_all();
  }).detach();
  std::unique_lock<std::mutex> lk(shared->m);
  if (!shared->cv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                           [&] { return shared->done; })) {
    PassRun r;
    r.timed_out = true;
    r.error = "timed out after " + std::to_string(timeout_ms) + " ms";
    return r;
  }
  return shared->result;
}

/// Commit gate: structural validation, serializer round-trip (the
/// fallback integrity check -- the hardened loader rejects dangling
/// references a corrupted graph would produce), and in verify mode the
/// semantic analyzer against the pre-pipeline baseline.  Returns the
/// reason the graph must not be committed, or empty.
std::string integrity_error(ir::SDFG& g, bool verifying,
                            const std::set<std::string>& baseline) {
  try {
    g.validate();
  } catch (const Error& e) {
    return std::string("broke structural validation: ") + e.what();
  }
  try {
    auto reloaded = ir::load_sdfg(g.save());
    if (reloaded->dump() != g.dump())
      return "serializer round-trip changed the graph";
  } catch (const Error& e) {
    return std::string("serializer round-trip failed: ") + e.what();
  }
  if (verifying) {
    analysis::AnalysisReport rep = analysis::analyze(g);
    for (const auto& d : rep.diagnostics()) {
      if (d.severity != analysis::Severity::Error) continue;
      if (baseline.count(d.fingerprint())) continue;
      return "introduced a semantic error: " + d.to_string();
    }
  }
  return "";
}

}  // namespace

std::string PassReport::summary() const {
  std::ostringstream os;
  os << "pipeline '" << pipeline << "': " << committed << " committed, "
     << rolled_back << " rolled back";
  if (!first_broken_pass.empty())
    os << "; first broken pass: '" << first_broken_pass << "'";
  os << "\n";
  for (const auto& o : outcomes) {
    const char* tag = o.rolled_back ? (o.timed_out ? "TIMEOUT" : "ROLLBACK")
                                    : (o.applied ? "ok" : "noop");
    os << "  [" << tag << "] " << o.name;
    if (o.ms > 0.0) {
      os.setf(std::ios::fixed);
      os.precision(1);
      os << " (" << o.ms << " ms)";
    }
    if (!o.error.empty()) os << " -- " << o.error;
    os << "\n";
  }
  return os.str();
}

int Pipeline::pass_timeout_ms() {
  return (int)env::integer("DACE_XF_PASS_TIMEOUT", 0, 0, INT32_MAX);
}

PassReport Pipeline::run_transactional(ir::SDFG& sdfg) const {
  const bool verifying = verify();
  const int timeout_ms = pass_timeout_ms();
  PassReport report;
  report.pipeline = name_;

  // Verify mode is the only reader of the baseline; plain runs skip it.
  std::set<std::string> baseline;
  try {
    sdfg.validate();
    if (verifying) baseline = analysis::analyze(sdfg).error_fingerprints();
  } catch (const Error& e) {
    PassOutcome o;
    o.name = "<input>";
    o.rolled_back = true;
    o.error = std::string("input graph failed validation: ") + e.what();
    report.outcomes.push_back(std::move(o));
    report.rolled_back = 1;
    report.first_broken_pass = "<input>";
    return report;
  }

  for (const Pass& p : passes_) {
    PassOutcome o;
    o.name = p.name;
    auto t0 = std::chrono::steady_clock::now();
    int64_t obs_t0 = obs::enabled() ? obs::now_ns() : 0;
    // The pass mutates a snapshot; the committed graph is untouched until
    // the snapshot passes the commit gate, so "rollback" is O(1) discard.
    std::shared_ptr<ir::SDFG> work(sdfg.clone().release());
    PassRun r = execute_pass(p, work, timeout_ms);
    o.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    o.applied = r.applied;
    o.timed_out = r.timed_out;
    std::string why = r.error;
    if (why.empty() && r.applied)
      why = integrity_error(*work, verifying, baseline);
    if (!why.empty()) {
      o.rolled_back = true;
      o.error = std::move(why);
      ++report.rolled_back;
      if (report.first_broken_pass.empty()) report.first_broken_pass = p.name;
    } else if (r.applied) {
      sdfg.swap(*work);
      o.committed = true;
      ++report.committed;
    }
    if (obs::enabled()) {
      // Mirror the PassOutcome into the trace so sdfg-prof can report
      // which pass last rewrote each graph alongside the node timings.
      std::ostringstream a;
      a << "{\"pipeline\":\"" << diag::json_escape(name_)
        << "\",\"applied\":" << (o.applied ? "true" : "false")
        << ",\"committed\":" << (o.committed ? "true" : "false")
        << ",\"rolled_back\":" << (o.rolled_back ? "true" : "false") << "}";
      obs::complete("pass", p.name, obs_t0, obs::now_ns() - obs_t0, a.str());
    }
    report.outcomes.push_back(std::move(o));
  }
  return report;
}

void rename_map_params(ir::State& st, int entry,
                       const std::vector<std::string>& new_params) {
  auto* me = st.node_as<ir::MapEntry>(entry);
  DACE_CHECK(me != nullptr, "rename_map_params: not a map entry");
  DACE_CHECK(me->params.size() == new_params.size(),
             "rename_map_params: rank mismatch");
  sym::SubstMap smap;
  std::map<std::string, ir::CodeExpr> cmap;
  bool any = false;
  for (size_t i = 0; i < new_params.size(); ++i) {
    if (me->params[i] == new_params[i]) continue;
    smap[me->params[i]] = sym::Expr::symbol(new_params[i]);
    cmap[me->params[i]] = ir::CodeExpr::symbol(new_params[i]);
    any = true;
  }
  if (!any) return;
  std::vector<int> scope = st.scope_nodes(entry);
  std::set<int> scope_set(scope.begin(), scope.end());
  scope_set.insert(entry);
  scope_set.insert(me->exit_node);
  for (auto& e : st.edges()) {
    // Inner edges: either endpoint inside the scope (incl. entry/exit
    // connectors on the inside).
    bool inner = scope_set.count(e.src) && scope_set.count(e.dst);
    if (inner && !e.memlet.empty()) e.memlet.subset = e.memlet.subset.subs(smap);
  }
  for (int id : scope) {
    if (auto* t = st.node_as<ir::Tasklet>(id)) {
      t->code = t->code.subs_symbols(cmap);
    } else if (auto* m = st.node_as<ir::MapEntry>(id)) {
      sym::Subset r = m->range;
      std::vector<sym::Range> rs;
      for (const auto& rr : r.ranges()) rs.push_back(rr.subs(smap));
      m->range = sym::Subset(rs);
    }
  }
  me->params = new_params;
}

bool is_identity_tasklet(const ir::Tasklet& t) {
  return t.code.op() == ir::CodeOp::Input && t.inputs.size() == 1;
}

std::vector<int> states_using(const ir::SDFG& sdfg, const std::string& name) {
  std::vector<int> out;
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    bool used = false;
    for (int nid : st.node_ids()) {
      if (const auto* a = st.node_as<ir::AccessNode>(nid)) {
        used |= a->data == name;
      }
    }
    for (const auto& e : st.edges()) used |= e.memlet.data == name;
    if (used) out.push_back(sid);
  }
  return out;
}

bool container_referenced(const ir::SDFG& sdfg, const std::string& name) {
  return !states_using(sdfg, name).empty();
}

}  // namespace dace::xf
