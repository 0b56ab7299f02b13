#include "transforms/simplify.hpp"

#include <algorithm>

namespace dace::xf {

using ir::AccessNode;
using ir::Edge;
using ir::MapEntry;
using ir::MapExit;
using ir::Memlet;
using ir::NodeKind;
using ir::SDFG;
using ir::State;
using ir::Tasklet;

namespace {

/// Access-node roles of a container within a state.
struct ContainerRole {
  std::vector<int> sources;  // access nodes with in-degree 0 (read pre-state)
  std::vector<int> written;  // access nodes with in-edges (produced here)
  bool any_read = false;     // some access node has out-edges
};

std::map<std::string, ContainerRole> container_roles(const State& st) {
  std::map<std::string, ContainerRole> roles;
  for (int id : st.node_ids()) {
    const auto* a = st.node_as<const AccessNode>(id);
    if (!a) continue;
    ContainerRole& r = roles[a->data];
    if (st.in_degree(id) == 0) r.sources.push_back(id);
    if (st.in_degree(id) > 0) r.written.push_back(id);
    if (st.out_degree(id) > 0) r.any_read = true;
  }
  return roles;
}

}  // namespace

// ---------------------------------------------------------------------------
// State fusion
// ---------------------------------------------------------------------------

bool state_fusion(SDFG& sdfg) {
  for (size_t ei = 0; ei < sdfg.interstate_edges().size(); ++ei) {
    const ir::InterstateEdge e = sdfg.interstate_edges()[ei];
    if (e.src == e.dst) continue;
    if (e.condition.valid() || !e.assignments.empty()) continue;
    if (sdfg.out_interstate(e.src).size() != 1) continue;
    if (sdfg.in_interstate(e.dst).size() != 1) continue;
    State& s1 = sdfg.state(e.src);
    State& s2 = sdfg.state(e.dst);

    auto roles1 = container_roles(s1);
    auto roles2 = container_roles(s2);

    // Plan the access-node merges: every source access of s2 that reads a
    // container s1 wrote must merge with s1's unique final version.
    bool safe = true;
    // (s2 node id) -> (s1 node id) merges, pre-offset.
    std::map<int, int> planned_merges;
    for (const auto& [name, r2] : roles2) {
      auto it1 = roles1.find(name);
      if (it1 == roles1.end()) continue;
      const ContainerRole& r1 = it1->second;
      if (!r2.sources.empty() && !r1.written.empty()) {
        if (r1.written.size() != 1) {
          safe = false;
          break;
        }
        for (int src2 : r2.sources)
          planned_merges[src2] = r1.written.front();
      } else if (!r2.sources.empty() && !r1.sources.empty() &&
                 r1.written.empty()) {
        for (int src2 : r2.sources)
          planned_merges[src2] = r1.sources.front();
      }
    }
    if (!safe) continue;

    // Virtual merged graph: verify ordering hazards resolve to paths.
    // Node ids: s1 ids as-is, s2 ids + voffset, with planned merges
    // collapsing s2 sources onto s1 nodes.
    int voffset = 1000000;
    auto rm = [&](int s2_id) {
      auto it = planned_merges.find(s2_id);
      return it != planned_merges.end() ? it->second : s2_id + voffset;
    };
    std::vector<std::pair<int, int>> vedges;
    for (const auto& e2 : s1.edges()) vedges.emplace_back(e2.src, e2.dst);
    for (const auto& e2 : s2.edges())
      vedges.emplace_back(rm(e2.src), rm(e2.dst));
    auto vreach = [&](int a, int b) {
      if (a == b) return true;
      std::set<int> seen{a};
      std::vector<int> work{a};
      while (!work.empty()) {
        int id = work.back();
        work.pop_back();
        for (const auto& [u, v] : vedges) {
          if (u != id) continue;
          if (v == b) return true;
          if (seen.insert(v).second) work.push_back(v);
        }
      }
      return false;
    };
    for (const auto& [name, r2] : roles2) {
      if (!safe) break;
      auto it1 = roles1.find(name);
      if (it1 == roles1.end()) continue;
      const ContainerRole& r1 = it1->second;
      // Writers of this container contributed by s2 (non-merged nodes).
      std::vector<int> writers2;
      for (int w : r2.written) {
        if (!planned_merges.count(w)) writers2.push_back(rm(w));
      }
      if (writers2.empty()) continue;
      // WAR: every s1 consumer of the old value must precede each writer.
      for (int r : r1.sources) {
        for (const auto& e2 : s1.edges()) {
          if (e2.src != r) continue;
          for (int w : writers2) {
            if (!vreach(e2.dst, w)) safe = false;
          }
        }
      }
      // WAW: s1's final write must precede each new writer.
      for (int w1 : r1.written) {
        for (int w : writers2) {
          if (!vreach(w1, w)) safe = false;
        }
      }
    }
    if (!safe) continue;

    // Merge: absorb s2 into s1 and unify access nodes.
    int offset = s1.absorb(s2);
    for (const auto& [src2, target] : planned_merges) {
      s1.redirect_node(src2 + offset, target);
      s1.remove_node(src2 + offset);
    }
    // Control flow: s1 takes over s2's outgoing edges.
    for (auto& ie : sdfg.interstate_edges()) {
      if (ie.src == e.dst) ie.src = e.src;
    }
    s1.set_label(s1.label() + "+" + s2.label());
    sdfg.remove_state(e.dst);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Redundant copy removal
// ---------------------------------------------------------------------------

namespace {

/// Description of an identity-copy map: out[c + p] = in[p].
struct CopyPattern {
  int entry = -1, exit = -1, tasklet = -1;
  int in_access = -1, out_access = -1;
  std::string src, dst;
  sym::Subset dst_subset;  // outer write subset into dst
  // For each dst dim: the source dim it maps from (-1 = fixed index).
  std::vector<int> dim_from;
  std::vector<sym::Expr> dim_base;  // additive base per dst dim
};

std::optional<CopyPattern> match_copy_map(const SDFG& sdfg, const State& st,
                                          int entry) {
  const auto* me = st.node_as<const MapEntry>(entry);
  if (!me) return std::nullopt;
  std::vector<int> scope = st.scope_nodes(entry);
  if (scope.size() != 1) return std::nullopt;
  const auto* t = st.node_as<const Tasklet>(scope[0]);
  if (!t || !is_identity_tasklet(*t)) return std::nullopt;

  CopyPattern p;
  p.entry = entry;
  p.exit = me->exit_node;
  p.tasklet = scope[0];

  // Input side: access -> entry -> tasklet, reading src[p0, ..., pk].
  auto tin = st.in_edges(p.tasklet);
  std::vector<const Edge*> data_in;
  for (const auto* e : tin) {
    if (!e->memlet.empty()) data_in.push_back(e);
  }
  if (data_in.size() != 1 || data_in[0]->src != entry) return std::nullopt;
  const Memlet& min = data_in[0]->memlet;
  p.src = min.data;
  const ir::DataDesc& sd = sdfg.array(p.src);
  if (min.subset.dims() != me->params.size()) return std::nullopt;
  for (size_t d = 0; d < min.subset.dims(); ++d) {
    if (!min.subset.range(d).begin.equals(sym::Expr::symbol(me->params[d])))
      return std::nullopt;
    // The map must cover the whole source container.
    if (!me->range.range(d).begin.is_zero() ||
        !me->range.range(d).end.equals(sd.shape[d]) ||
        !me->range.range(d).step.is_one())
      return std::nullopt;
  }
  auto ein = st.in_edges(entry);
  if (ein.size() != 1) return std::nullopt;
  p.in_access = ein[0]->src;
  if (!st.node_as<const AccessNode>(p.in_access)) return std::nullopt;

  // Output side: tasklet -> exit -> access, writing dst[base_d (+ p_j)].
  auto tout = st.out_edges(p.tasklet);
  if (tout.size() != 1 || tout[0]->dst != p.exit) return std::nullopt;
  if (tout[0]->memlet.wcr != ir::WCR::None) return std::nullopt;
  const Memlet& mout = tout[0]->memlet;
  p.dst = mout.data;
  auto eout = st.out_edges(p.exit);
  if (eout.size() != 1) return std::nullopt;
  p.out_access = eout[0]->dst;
  if (!st.node_as<const AccessNode>(p.out_access)) return std::nullopt;
  p.dst_subset = eout[0]->memlet.subset;

  std::set<std::string> seen_params;
  for (size_t d = 0; d < mout.subset.dims(); ++d) {
    const sym::Expr& idx = mout.subset.range(d).begin;
    // Try idx = base + param for each parameter.
    int from = -1;
    sym::Expr base = idx;
    for (size_t j = 0; j < me->params.size(); ++j) {
      sym::Expr cand = idx - sym::Expr::symbol(me->params[j]);
      if (!cand.free_symbols().count(me->params[j])) {
        if (seen_params.count(me->params[j])) return std::nullopt;
        from = (int)j;
        base = cand;
        seen_params.insert(me->params[j]);
        break;
      }
    }
    if (from == -1) {
      // Fixed index: must not reference any parameter.
      for (const auto& prm : me->params) {
        if (idx.free_symbols().count(prm)) return std::nullopt;
      }
    }
    p.dim_from.push_back(from);
    p.dim_base.push_back(base);
  }
  // Every parameter must be used exactly once.
  if (seen_params.size() != me->params.size()) return std::nullopt;
  return p;
}

}  // namespace

bool redundant_copy_removal(SDFG& sdfg) {
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int entry : st.node_ids()) {
      auto pat = match_copy_map(sdfg, st, entry);
      if (!pat) continue;
      const std::string& tmp = pat->src;
      const ir::DataDesc& td = sdfg.array(tmp);
      if (!td.transient || td.lifetime == ir::Lifetime::Persistent) continue;
      // tmp must be used only in this state, written once by a producer
      // whose output we can redirect, and read only by the copy.
      if (states_using(sdfg, tmp).size() != 1) continue;
      if (st.in_degree(pat->in_access) != 1 ||
          st.out_degree(pat->in_access) != 1)
        continue;
      // Unique producer edge into the tmp access node.
      size_t pedge_id = st.in_edge_ids(pat->in_access)[0];
      Edge pedge = st.edges()[pedge_id];
      if (pedge.memlet.wcr != ir::WCR::None) continue;
      // The producer must write all of tmp.
      if (!pedge.memlet.subset.equals(sym::Subset::full(td.shape))) continue;
      int producer = pedge.src;
      // No other access node of tmp in this state.
      bool tmp_elsewhere = false;
      for (int nid : st.node_ids()) {
        const auto* a = st.node_as<const AccessNode>(nid);
        if (a && a->data == tmp && nid != pat->in_access) tmp_elsewhere = true;
      }
      if (tmp_elsewhere) continue;
      // Anti-dependency: every other reader of dst must be ordered before
      // the producer.
      bool order_ok = true;
      for (int nid : st.node_ids()) {
        const auto* a = st.node_as<const AccessNode>(nid);
        if (!a || a->data != pat->dst || nid == pat->out_access) continue;
        if (st.out_degree(nid) > 0 && !st.has_path(nid, producer))
          order_ok = false;
        if (st.in_degree(nid) > 0) order_ok = false;  // double write
      }
      if (!order_ok) continue;

      // Build the dim mapping: dst index = dim_base (+ tmp index).
      auto remap = [&](const sym::Subset& tmp_sub) {
        std::vector<sym::Range> rs;
        for (size_t d = 0; d < pat->dim_from.size(); ++d) {
          if (pat->dim_from[d] < 0) {
            rs.emplace_back(pat->dim_base[d], pat->dim_base[d] + sym::Expr(1));
          } else {
            const sym::Range& r = tmp_sub.range((size_t)pat->dim_from[d]);
            rs.emplace_back(pat->dim_base[d] + r.begin,
                            pat->dim_base[d] + r.end, r.step);
          }
        }
        return sym::Subset(rs);
      };

      // Redirect the producer's output to dst.
      st.edges()[pedge_id].memlet =
          Memlet(pat->dst, remap(pedge.memlet.subset));
      st.edges()[pedge_id].dst = pat->out_access;
      // If the producer is a map exit, rewrite inner memlets and the
      // connector names.
      if (auto* mx = st.node_as<MapExit>(producer)) {
        (void)mx;
        std::string in_conn = "IN_" + tmp, out_conn = "OUT_" + tmp;
        for (auto& e2 : st.edges()) {
          if (e2.dst == producer && e2.dst_conn == in_conn) {
            e2.dst_conn = "IN_" + pat->dst;
            e2.memlet = Memlet(pat->dst, remap(e2.memlet.subset),
                               e2.memlet.wcr);
          }
          if (e2.src == producer && e2.src_conn == out_conn)
            e2.src_conn = "OUT_" + pat->dst;
        }
        st.edges()[pedge_id].src_conn = "OUT_" + pat->dst;
      }

      // Delete the copy map and the tmp access node.
      st.remove_edges_if([&](const Edge& e2) {
        return e2.src == pat->in_access || e2.dst == pat->in_access ||
               e2.src == pat->entry || e2.dst == pat->entry ||
               e2.src == pat->tasklet || e2.dst == pat->tasklet ||
               (e2.src == pat->exit && e2.dst == pat->out_access);
      });
      st.remove_node(pat->in_access);
      st.remove_node(pat->entry);
      st.remove_node(pat->tasklet);
      st.remove_node(pat->exit);
      if (!container_referenced(sdfg, tmp)) sdfg.remove_array(tmp);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Dead state / dataflow elimination
// ---------------------------------------------------------------------------

bool dead_state_elimination(SDFG& sdfg) {
  std::set<int> reachable;
  std::vector<int> work{sdfg.start_state()};
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    if (!reachable.insert(id).second) continue;
    for (size_t ei : sdfg.out_interstate(id))
      work.push_back(sdfg.interstate_edges()[ei].dst);
  }
  bool changed = false;
  for (int sid : sdfg.state_ids()) {
    if (!reachable.count(sid)) {
      sdfg.remove_state(sid);
      changed = true;
    }
  }
  return changed;
}

bool dead_dataflow_elimination(SDFG& sdfg) {
  bool changed = false;
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      if (st.node(nid)->kind == NodeKind::Access && st.in_degree(nid) == 0 &&
          st.out_degree(nid) == 0) {
        st.remove_node(nid);
        changed = true;
      }
    }
  }
  std::vector<std::string> unused;
  for (const auto& [name, d] : sdfg.arrays()) {
    if (d.transient && !container_referenced(sdfg, name))
      unused.push_back(name);
  }
  for (const auto& name : unused) {
    sdfg.remove_array(name);
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Nested SDFG inlining
// ---------------------------------------------------------------------------

bool inline_nested_sdfg(SDFG& sdfg) {
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      auto* nn = st.node_as<ir::NestedSDFGNode>(nid);
      if (!nn) continue;
      const SDFG& callee = *nn->sdfg;
      if (callee.num_states() != 1) continue;
      // Connector memlets must cover whole containers (simple argument
      // passing); otherwise subset composition would be required.
      bool simple = true;
      std::map<std::string, std::string> rename;  // inner -> outer container
      for (const auto* e : st.in_edges(nid)) {
        if (e->memlet.empty()) continue;
        const auto& od = sdfg.array(e->memlet.data);
        if (!e->memlet.subset.equals(sym::Subset::full(od.shape))) simple = false;
        rename[e->dst_conn] = e->memlet.data;
      }
      for (const auto* e : st.out_edges(nid)) {
        if (e->memlet.empty()) continue;
        const auto& od = sdfg.array(e->memlet.data);
        if (!e->memlet.subset.equals(sym::Subset::full(od.shape))) simple = false;
        rename[e->src_conn] = e->memlet.data;
      }
      if (!simple) continue;
      if (!nn->symbol_mapping.empty()) continue;  // keep it simple

      auto inner = callee.clone();
      int inner_sid = inner->state_ids()[0];
      State& ist = inner->state(inner_sid);
      // Import callee transients with fresh names.
      for (const auto& [iname, idesc] : inner->arrays()) {
        if (!rename.count(iname)) {
          DACE_CHECK(idesc.transient, "inline: unbound callee container ",
                     iname);
          std::string nname = sdfg.unique_name("__inl_" + iname);
          ir::DataDesc nd = idesc;
          nd.name = nname;
          // add manually to keep descriptor attributes
          sdfg.add_array(nname, nd.dtype, nd.shape, true) = nd;
          rename[iname] = nname;
        }
      }
      // Rewrite inner references.
      for (int inid : ist.node_ids()) {
        if (auto* a = ist.node_as<AccessNode>(inid)) {
          a->data = rename.at(a->data);
        }
      }
      for (auto& e2 : ist.edges()) {
        if (!e2.memlet.empty()) e2.memlet.data = rename.at(e2.memlet.data);
      }
      // Splice: absorb the inner state; connect source/sink accesses of
      // shared containers with the outer edges' endpoints.
      int offset = st.absorb(ist);
      // Outer edges into the nested node: connect the producer to the
      // matching inner source access (merge nodes).
      std::vector<std::pair<int, int>> merges;  // (inner node, outer node)
      for (const auto* e : st.in_edges(nid)) {
        if (e->memlet.empty()) continue;
        // Find inner source access of that container.
        (void)e;
      }
      // Simpler: redirect outer edges to inner access nodes directly.
      std::vector<Edge> outer_in, outer_out;
      for (const auto* e : st.in_edges(nid)) outer_in.push_back(*e);
      for (const auto* e : st.out_edges(nid)) outer_out.push_back(*e);
      st.remove_edges_if(
          [&](const Edge& e2) { return e2.src == nid || e2.dst == nid; });
      st.remove_node(nid);
      auto find_inner_access = [&](const std::string& data, bool source) {
        for (int inid : st.node_ids()) {
          if (inid < offset) continue;
          const auto* a = st.node_as<const AccessNode>(inid);
          if (!a || a->data != data) continue;
          if (source && st.in_degree(inid) == 0) return inid;
          if (!source && st.in_degree(inid) > 0) return inid;
        }
        return -1;
      };
      for (const auto& e : outer_in) {
        if (e.memlet.empty()) continue;
        int ia = find_inner_access(e.memlet.data, /*source=*/true);
        if (ia >= 0) {
          // Merge outer producer access with inner source.
          st.redirect_node(ia, e.src);
          st.remove_node(ia);
        }
      }
      for (const auto& e : outer_out) {
        if (e.memlet.empty()) continue;
        int ia = find_inner_access(e.memlet.data, /*source=*/false);
        if (ia >= 0) {
          st.redirect_node(ia, e.dst);
          st.remove_node(ia);
        }
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Trivial map elimination
// ---------------------------------------------------------------------------

bool trivial_map_elimination(SDFG& sdfg) {
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int entry : st.node_ids()) {
      auto* me = st.node_as<MapEntry>(entry);
      if (!me) continue;
      bool all_unit = true;
      for (const auto& r : me->range.ranges()) all_unit &= r.size().is_one();
      if (!all_unit) continue;
      if (st.scope_of(entry) != -1) continue;  // handle top-level only
      // Substitute parameters by their single value.
      sym::SubstMap smap;
      std::map<std::string, ir::CodeExpr> cmap;
      for (size_t d = 0; d < me->params.size(); ++d) {
        smap[me->params[d]] = me->range.range(d).begin;
        cmap[me->params[d]] = ir::to_code(me->range.range(d).begin);
      }
      std::vector<int> scope = st.scope_nodes(entry);
      for (int id : scope) {
        if (auto* t = st.node_as<Tasklet>(id)) t->code = t->code.subs_symbols(cmap);
        if (auto* m = st.node_as<MapEntry>(id)) {
          std::vector<sym::Range> rs;
          for (const auto& r : m->range.ranges()) rs.push_back(r.subs(smap));
          m->range = sym::Subset(rs);
        }
      }
      int exit = me->exit_node;
      std::set<int> scope_set(scope.begin(), scope.end());
      for (auto& e : st.edges()) {
        bool touches = scope_set.count(e.src) || scope_set.count(e.dst) ||
                       e.src == entry || e.dst == entry || e.src == exit ||
                       e.dst == exit;
        if (touches && !e.memlet.empty())
          e.memlet.subset = e.memlet.subset.subs(smap);
      }
      // Bypass a gate node: (x -> gate IN_c) + (gate OUT_c -> y) becomes
      // (x -> y).  For the entry, the kept memlet is the inside (element)
      // one; for the exit it is also the inside one (which carries WCR).
      auto bypass = [&](int gate, bool keep_incoming_memlet) {
        std::vector<Edge> incoming, outgoing;
        for (const auto& e : st.edges()) {
          if (e.dst == gate) incoming.push_back(e);
          if (e.src == gate) outgoing.push_back(e);
        }
        st.remove_edges_if([&](const Edge& e) {
          return e.src == gate || e.dst == gate;
        });
        for (const auto& in : incoming) {
          if (in.dst_conn.rfind("IN_", 0) != 0) continue;  // ordering edge
          std::string want = "OUT_" + in.dst_conn.substr(3);
          for (const auto& out : outgoing) {
            if (out.src_conn != want) continue;
            Edge ne;
            ne.src = in.src;
            ne.src_conn = in.src_conn;
            ne.dst = out.dst;
            ne.dst_conn = out.dst_conn;
            ne.memlet = keep_incoming_memlet ? in.memlet : out.memlet;
            st.edges().push_back(ne);
          }
        }
      };
      bypass(entry, /*keep_incoming_memlet=*/false);
      bypass(exit, /*keep_incoming_memlet=*/true);
      st.remove_node(entry);
      st.remove_node(exit);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

bool simplify(ir::SDFG& sdfg) {
  bool any = false;
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 1000) {
    changed = false;
    changed |= apply_repeated(sdfg, inline_nested_sdfg) > 0;
    changed |= apply_repeated(sdfg, state_fusion) > 0;
    changed |= apply_repeated(sdfg, redundant_copy_removal) > 0;
    changed |= dead_state_elimination(sdfg);
    changed |= dead_dataflow_elimination(sdfg);
    any |= changed;
  }
  sdfg.validate();
  return any;
}

}  // namespace dace::xf
