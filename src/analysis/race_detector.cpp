// Symbolic race detector for map scopes.
//
// A map declares its iterations parallel (Section 2.3); two iterations
// i != i' race on a container when their write subsets intersect and the
// memlet carries no write-conflict resolution.  For every pair of write
// memlets leaving a map scope through its exit (tasklet outputs, nested
// map exits, library nodes) and every map parameter p with step s, the
// detector compares
//
//   W(..., p, ...)  vs  W(..., p + d*s, ...)        (d fresh, d >= 1)
//
// with sym::Subset::disjoint.  Substituting only p (other parameters
// shared, i.e. equal) makes a proven intersection a *real* colliding
// iteration pair -> provable race.  Substituting the other parameters by
// fresh unconstrained symbols over-approximates every pair that differs
// in p -> a proven disjointness for every parameter proves safety.
// Everything in between is "unknown" and degrades to a warning.
//
// The same comparison, restricted to the map's first parameter, decides
// which WCR stores of a split launch need atomics (conflicting_wcr_writes).
#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/analysis.hpp"

namespace dace::analysis {

namespace {

using ir::Memlet;
using sym::Expr;
using sym::Subset;

enum class Verdict { Safe, Resolved, Race, Unknown };

struct MapParam {
  std::string name;
  Expr step;
};

/// Map parameters that can actually take two different values (ranges
/// with a provable extent of one cannot differ between iterations).
std::vector<MapParam> variable_params(const ir::MapEntry& me) {
  std::vector<MapParam> out;
  for (size_t i = 0; i < me.params.size(); ++i) {
    const sym::Range& r = me.range.range(i);
    Expr sz = r.size();
    if (sz.is_constant() && sz.constant() <= 1) continue;
    out.push_back({me.params[i], r.step});
  }
  return out;
}

/// Classify one ordered pair of write memlets of the same container.
Verdict classify_pair(const Memlet& wa, const Memlet& wb, bool same_memlet,
                      const std::vector<MapParam>& params) {
  if (wa.wcr != ir::WCR::None && wb.wcr != ir::WCR::None) {
    return wa.wcr == wb.wcr ? Verdict::Resolved : Verdict::Unknown;
  }
  if (wa.dynamic || wb.dynamic) return Verdict::Unknown;

  bool all_safe = true;
  for (const MapParam& p : params) {
    // Second iteration point: p' = p + d*step, all other parameters
    // either shared (exact pair, for the race proof) or fresh (every
    // pair, for the safety proof).
    sym::SubstMap shift;
    shift[p.name] = Expr::symbol(p.name) + Expr::symbol("__race_d") * p.step;
    sym::SubstMap shift_fresh = shift;
    for (const MapParam& q : params) {
      if (q.name != p.name)
        shift_fresh[q.name] = Expr::symbol("__race_o_" + q.name);
    }

    auto race1 = Subset::disjoint(wa.subset, wb.subset.subs(shift));
    if (race1.has_value() && !*race1) return Verdict::Race;
    auto safe1 = Subset::disjoint(wa.subset, wb.subset.subs(shift_fresh));
    bool safe = safe1.has_value() && *safe1;
    if (!same_memlet) {
      // The +d shift only covers pairs where wb's iteration is the later
      // one; distinct memlets need the mirrored direction too.
      auto race2 = Subset::disjoint(wb.subset, wa.subset.subs(shift));
      if (race2.has_value() && !*race2) return Verdict::Race;
      auto safe2 = Subset::disjoint(wb.subset, wa.subset.subs(shift_fresh));
      safe = safe && safe2.has_value() && *safe2;
    }
    if (!safe) all_safe = false;
  }
  return all_safe ? Verdict::Safe : Verdict::Unknown;
}

void check_scope(const ir::SDFG& sdfg, const ir::State& st, int sid,
                 int entry, AnalysisReport& report) {
  const auto* me = st.node_as<ir::MapEntry>(entry);
  std::vector<MapParam> params = variable_params(*me);
  if (params.empty()) return;  // at most one iteration: nothing can race

  // Writes leaving this scope: memlet edges into the paired exit.
  std::map<std::string, std::vector<const Memlet*>> writes;
  for (const auto& e : st.edges()) {
    if (e.dst != me->exit_node || e.memlet.empty()) continue;
    writes[e.memlet.data].push_back(&e.memlet);
  }

  for (const auto& [container, ws] : writes) {
    Verdict worst = Verdict::Safe;
    const Memlet* witness_a = nullptr;
    const Memlet* witness_b = nullptr;
    bool mixed_wcr = false;
    for (size_t i = 0; i < ws.size(); ++i) {
      for (size_t j = i; j < ws.size(); ++j) {
        Verdict v = classify_pair(*ws[i], *ws[j], i == j, params);
        bool worse = (v == Verdict::Race && worst != Verdict::Race) ||
                     (v == Verdict::Unknown && worst != Verdict::Race &&
                      worst != Verdict::Unknown);
        if (worse) {
          worst = v;
          witness_a = ws[i];
          witness_b = ws[j];
          mixed_wcr = (ws[i]->wcr == ir::WCR::None) !=
                      (ws[j]->wcr == ir::WCR::None);
        }
      }
    }
    if (worst != Verdict::Race && worst != Verdict::Unknown) continue;

    Diagnostic d;
    d.severity = worst == Verdict::Race ? Severity::Error : Severity::Warning;
    d.analysis = "race";
    d.sdfg = sdfg.name();
    d.state = sid;
    d.node = entry;
    d.container = container;
    d.memlet = witness_a->to_string();
    std::ostringstream msg;
    if (worst == Verdict::Race) {
      msg << "provable write-write race across iterations of map '"
          << me->name << "'";
    } else {
      msg << "cannot prove write disjointness across iterations of map '"
          << me->name << "'";
    }
    if (witness_b != witness_a) msg << " against " << witness_b->to_string();
    if (mixed_wcr) msg << " (one write resolves conflicts, the other does not)";
    d.message = msg.str();
    d.hint =
        "make the write subsets disjoint in the map parameters or attach a "
        "write-conflict resolution (e.g. WCR::Sum) to every write memlet";
    report.add(std::move(d));
  }
}

/// A symbol that ranges over all integers.  The prover assumes every
/// symbol is >= 1, which a map parameter or an interstate-assigned symbol
/// need not be; a difference of two fresh symbols can take any value.
Expr any_integer(const std::string& name) {
  return Expr::symbol(name + "_pos") - Expr::symbol(name + "_neg");
}

}  // namespace

void detect_races(const ir::SDFG& sdfg, AnalysisReport& report) {
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      if (st.node(nid)->kind == ir::NodeKind::MapEntry)
        check_scope(sdfg, st, sid, nid, report);
    }
  }
}

std::set<size_t> conflicting_wcr_writes(const ir::SDFG& sdfg,
                                        const ir::State& st, int entry) {
  // Memory writes of the scope by container: tasklet outputs into map
  // exits or access nodes, nested scopes included.
  std::vector<int> scope = st.scope_nodes(entry);
  std::map<std::string, std::vector<const ir::Edge*>> writes;
  std::set<std::string> wcr_containers;
  for (int id : scope) {
    if (st.node(id)->kind != ir::NodeKind::Tasklet) continue;
    for (const ir::Edge* e : st.out_edges(id)) {
      if (e->memlet.empty() || st.node(e->dst)->kind == ir::NodeKind::Tasklet)
        continue;
      writes[e->memlet.data].push_back(e);
      if (e->memlet.wcr != ir::WCR::None) wcr_containers.insert(e->memlet.data);
    }
  }
  if (wcr_containers.empty()) return {};

  // Interstate-assigned symbols keep one value per launch: both
  // instances share one unconstrained stand-in.
  const auto* me = st.node_as<const ir::MapEntry>(entry);
  const std::string& split = me->params.at(0);
  sym::SubstMap shared;
  for (const auto& ie : sdfg.interstate_edges())
    for (const auto& a : ie.assignments)
      shared[a.first] = any_integer("__wcr_s_" + a.first);
  Expr split_a = any_integer("__wcr_p");
  Expr split_b = split_a + Expr::symbol("__wcr_d") *
                               me->range.range(0).step.subs(shared);
  std::vector<std::pair<const ir::MapEntry*, std::vector<int>>> nested;
  for (int id : scope)
    if (const auto* m = st.node_as<const ir::MapEntry>(id))
      nested.emplace_back(m, st.scope_nodes(id));

  // Each write, instantiated in a chunk at p and in a chunk at p + d*step
  // (d >= 1).  Every other map parameter gets a fresh symbol per
  // instance; a nested map that rebinds p's name hides it.
  struct Instances {
    sym::Subset at_p, at_p_plus_d;
  };
  auto instantiate = [&](const ir::Edge* e) {
    std::set<std::string> params(me->params.begin() + 1, me->params.end());
    bool split_bound = true;
    for (const auto& [m, nodes] : nested) {
      if (std::find(nodes.begin(), nodes.end(), e->src) == nodes.end())
        continue;
      params.insert(m->params.begin(), m->params.end());
      for (const std::string& q : m->params) split_bound &= q != split;
    }
    sym::SubstMap sa = shared, sb = shared;
    for (const std::string& q : params) {
      sa[q] = any_integer("__wcr_a_" + q);
      sb[q] = any_integer("__wcr_b_" + q);
    }
    if (split_bound) {
      sa[split] = split_a;
      sb[split] = split_b;
    }
    return Instances{e->memlet.subset.subs(sa), e->memlet.subset.subs(sb)};
  };

  // A WCR write stays plain only if, against every write to its container
  // (itself included), each instance pair is provably disjoint.
  auto disjoint = [](const sym::Subset& a, const sym::Subset& b) {
    std::optional<bool> r = Subset::disjoint(a, b);
    return r.has_value() && *r;
  };
  std::set<size_t> conflicts;
  for (const std::string& c : wcr_containers) {
    const std::vector<const ir::Edge*>& es = writes[c];
    std::vector<Instances> inst;
    for (const ir::Edge* e : es) inst.push_back(instantiate(e));
    for (size_t w = 0; w < es.size(); ++w) {
      if (es[w]->memlet.wcr == ir::WCR::None) continue;
      for (size_t v = 0; v < es.size(); ++v) {
        if (!disjoint(inst[w].at_p, inst[v].at_p_plus_d) ||
            (v != w && !disjoint(inst[v].at_p, inst[w].at_p_plus_d))) {
          conflicts.insert(static_cast<size_t>(es[w] - st.edges().data()));
          break;
        }
      }
    }
  }
  return conflicts;
}

}  // namespace dace::analysis
