#include "transforms/map_transforms.hpp"

#include <algorithm>
#include <numeric>

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
using sym::Expr;
using sym::Subset;

namespace {

/// Free symbols of every begin, end and step in `ranges`.
std::set<std::string> range_symbols(const std::vector<sym::Range>& ranges) {
  std::set<std::string> out;
  for (const auto& r : ranges) {
    r.begin.free_symbols(out);
    r.end.free_symbols(out);
    r.step.free_symbols(out);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// MapCollapse
// ---------------------------------------------------------------------------

bool map_collapse(SDFG& sdfg) {
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int outer : st.node_ids()) {
      auto* m1 = st.node_as<MapEntry>(outer);
      if (!m1) continue;
      // Direct children must be exactly one nested map (entry + exit).
      std::vector<int> scope = st.scope_nodes(outer);
      int inner = -1;
      bool clean = true;
      for (int id : scope) {
        if (st.scope_of(id) != outer) continue;
        const ir::Node* n = st.node(id);
        if (n->kind == NodeKind::MapEntry) {
          if (inner != -1) clean = false;
          inner = id;
        } else if (n->kind != NodeKind::MapExit) {
          clean = false;
        }
      }
      if (!clean || inner < 0) continue;
      auto* m2 = st.node_as<MapEntry>(inner);
      // Inner range must not depend on outer parameters (rectangular).
      std::set<std::string> fs = range_symbols(m2->range.ranges());
      bool rect = true;
      for (const auto& p : m1->params) rect &= !fs.count(p);
      if (!rect) continue;
      int exit1 = m1->exit_node;
      int exit2 = m2->exit_node;

      // Parameter name collisions: rename the inner map's params first.
      {
        std::set<std::string> outer_params(m1->params.begin(),
                                           m1->params.end());
        bool collide = false;
        for (const auto& p : m2->params) collide |= outer_params.count(p) > 0;
        if (collide) {
          std::vector<std::string> fresh;
          for (size_t i = 0; i < m2->params.size(); ++i) {
            std::string c;
            int k = 0;
            do {
              c = "__c" + std::to_string(k++) + "_" + m2->params[i];
            } while (outer_params.count(c));
            fresh.push_back(c);
          }
          rename_map_params(st, inner, fresh);
        }
      }

      // Merge parameters and ranges into m1.
      std::vector<sym::Range> rs = m1->range.ranges();
      for (const auto& r : m2->range.ranges()) rs.push_back(r);
      for (const auto& p : m2->params) m1->params.push_back(p);
      m1->range = Subset(rs);

      // Drop the pass-through edges m1 -> m2 and exit2 -> exit1; then
      // redirect m2's inner edges to m1 (and exit2's to exit1).
      st.remove_edges_if([&](const Edge& e) {
        return (e.src == outer && e.dst == inner) ||
               (e.src == exit2 && e.dst == exit1);
      });
      for (auto& e : st.edges()) {
        if (e.src == inner) e.src = outer;
        if (e.dst == inner) e.dst = outer;
        if (e.src == exit2) e.src = exit1;
        if (e.dst == exit2) e.dst = exit1;
      }
      st.remove_node(inner);
      st.remove_node(exit2);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tile WCR maps (scalar accumulation targets)
// ---------------------------------------------------------------------------

bool tile_wcr_map(SDFG& sdfg, int64_t tile_size) {
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int entry : st.node_ids()) {
      auto* me = st.node_as<MapEntry>(entry);
      if (!me || st.scope_of(entry) != -1) continue;
      if (me->params.empty()) continue;
      int exit = me->exit_node;
      // All output edges of the exit must be WCR-sum writes to scalars.
      std::vector<const Edge*> outs = st.out_edges(exit);
      if (outs.empty()) continue;
      bool all_scalar_wcr = true;
      for (const auto* e : outs) {
        const ir::DataDesc& d = sdfg.array(e->memlet.data);
        all_scalar_wcr &= d.is_scalar() && e->memlet.wcr != ir::WCR::None;
      }
      if (!all_scalar_wcr) continue;
      // Already tiled? Heuristic: skip maps whose first param is a tile.
      if (me->params[0].rfind("__tile_", 0) == 0) continue;
      // The outer dimension must be a unit-step range.
      const sym::Range& r0 = me->range.range(0);
      if (!r0.step.is_one()) continue;

      // Build: tile map [t: begin .. end : T] around the existing map,
      // whose dim-0 range becomes [t, min(t+T, end)).
      std::string tparam = "__tile_" + me->params[0];
      Expr T((int64_t)tile_size);
      auto [tentry, texit] = st.add_map(
          me->name + "_tiled", {tparam},
          Subset({sym::Range(r0.begin, r0.end, T)}));
      auto* tme = st.node_as<MapEntry>(tentry);
      tme->schedule = me->schedule;
      me->schedule = ir::Schedule::Sequential;
      me->range.range(0) = sym::Range(
          Expr::symbol(tparam), sym::min(Expr::symbol(tparam) + T, r0.end));

      // Per WCR output: private scalar transient accumulator.
      struct Out {
        Edge inner;   // tasklet -> exit edge
        Edge outer;   // exit -> access edge
      };
      // Collect and rewrite.
      std::vector<Edge> outer_edges;
      for (const auto* e : outs) outer_edges.push_back(*e);

      // Route map inputs through the tile map.
      for (auto& e : st.edges()) {
        if (e.dst == entry && !e.dst_conn.empty()) {
          // access -> entry becomes access -> tentry; new edge added below.
        }
      }
      std::vector<Edge> in_edges_copy;
      for (const auto* e : st.in_edges(entry)) in_edges_copy.push_back(*e);
      st.remove_edges_if([&](const Edge& e) { return e.dst == entry; });
      for (const auto& e : in_edges_copy) {
        st.add_edge(e.src, e.src_conn, tentry, e.dst_conn, e.memlet);
        st.add_edge(tentry, e.dst_conn.empty()
                                ? ""
                                : "OUT_" + e.dst_conn.substr(3),
                    entry, e.dst_conn, e.memlet);
      }

      // For each scalar WCR output: acc init tasklet + register WCR +
      // single flush per tile.
      st.remove_edges_if([&](const Edge& e) {
        for (const auto& oe : outer_edges) {
          if (e.src == exit && e.dst == oe.dst &&
              e.memlet.data == oe.memlet.data)
            return true;
        }
        return false;
      });
      for (const auto& oe : outer_edges) {
        const std::string& data = oe.memlet.data;
        std::string accname = sdfg.unique_name("__acc_" + data);
        sdfg.add_scalar(accname, sdfg.array(data).dtype, /*transient=*/true);
        double identity = oe.memlet.wcr == ir::WCR::Prod ? 1.0 : 0.0;
        DACE_CHECK(oe.memlet.wcr == ir::WCR::Sum ||
                       oe.memlet.wcr == ir::WCR::Prod,
                   "tile_wcr: min/max tiling not supported");
        int init = st.add_tasklet("init_" + accname, {},
                                  ir::CodeExpr::constant(identity));
        int acc_access = st.add_access(accname);
        st.add_edge(tentry, "", init, "", Memlet());
        st.add_edge(init, "__out", acc_access, "", Memlet(accname, Subset{}));
        // Order the inner map after the accumulator init.
        st.add_edge(acc_access, "", entry, "", Memlet());
        // Rewrite inner WCR edges targeting `data` to write the
        // accumulator instead.
        for (auto& e : st.edges()) {
          if (e.dst == exit && e.memlet.data == data) {
            e.memlet = Memlet(accname, Subset{}, e.memlet.wcr);
          }
        }
        // exit -> acc access #2 -> flush tasklet -> texit -> outer access.
        int acc_access2 = st.add_access(accname);
        st.add_edge(exit, "OUT_" + data, acc_access2, "",
                    Memlet(accname, Subset{}, oe.memlet.wcr));
        int flush = st.add_tasklet("flush_" + accname, {"__acc"},
                                   ir::CodeExpr::input("__acc"));
        st.add_edge(acc_access2, "", flush, "__acc",
                    Memlet(accname, Subset{}));
        st.add_edge(flush, "__out", texit, "IN_" + data,
                    Memlet(data, oe.memlet.subset, oe.memlet.wcr));
        st.add_edge(texit, "OUT_" + data, oe.dst, "",
                    Memlet(data, oe.memlet.subset, oe.memlet.wcr));
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Interchange WCR maps
// ---------------------------------------------------------------------------

bool interchange_wcr_maps(SDFG& sdfg) {
  bool changed = false;
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int entry : st.node_ids()) {
      auto* me = st.node_as<MapEntry>(entry);
      if (!me || me->params.size() < 2) continue;
      // Parameters each WCR target indexes by.
      std::vector<std::set<std::string>> targets;
      for (const Edge* e : st.in_edges(me->exit_node)) {
        if (e->memlet.empty() || e->memlet.wcr == ir::WCR::None) continue;
        targets.push_back(range_symbols(e->memlet.subset.ranges()));
      }
      auto in_every_target = [&](const std::string& p) {
        for (const auto& t : targets)
          if (!t.count(p)) return false;
        return true;
      };
      if (in_every_target(me->params[0])) continue;
      // Rectangular, with no nested map, at the top level.
      std::set<std::string> fs = range_symbols(me->range.ranges());
      bool movable = st.scope_of(entry) == -1;
      for (const auto& p : me->params) movable &= !fs.count(p);
      for (int id : st.scope_nodes(entry))
        movable &= st.node(id)->kind != NodeKind::MapEntry;
      if (!movable) continue;

      // Parameters present in every target first, the rest innermost,
      // each group in its original order.
      std::vector<size_t> order(me->params.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_partition(order.begin(), order.end(), [&](size_t d) {
        return in_every_target(me->params[d]);
      });
      if (std::is_sorted(order.begin(), order.end())) continue;
      std::vector<std::string> params;
      std::vector<sym::Range> ranges;
      for (size_t d : order) {
        params.push_back(me->params[d]);
        ranges.push_back(me->range.range(d));
      }
      me->params = std::move(params);
      me->range = Subset(std::move(ranges));
      changed = true;
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

bool set_toplevel_schedules(SDFG& sdfg, ir::Schedule schedule,
                            bool omp_collapse) {
  bool changed = false;
  for (int sid : sdfg.state_ids()) {
    State& st = sdfg.state(sid);
    for (int id : st.node_ids()) {
      auto* me = st.node_as<MapEntry>(id);
      if (!me || st.scope_of(id) != -1) continue;
      bool collapse = omp_collapse && me->params.size() > 1;
      changed |= me->schedule != schedule || me->omp_collapse != collapse;
      me->schedule = schedule;
      me->omp_collapse = collapse;
    }
  }
  return changed;
}

}  // namespace dace::xf
