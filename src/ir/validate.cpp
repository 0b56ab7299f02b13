// SDFG structural validation.
//
// Throws dace::Error on malformed graphs. Called by the frontend after
// lowering, by every transformation test, and by the executor before
// running, so that graph surgery bugs surface early.
//
// Only *structure* is checked here; semantic properties (race freedom of
// map scopes, memlet bounds, def-use over the state machine) are
// delegated to the analyses in analysis/analysis.hpp, which return
// three-valued verdicts instead of throwing.
#include "ir/sdfg.hpp"

namespace dace::ir {

namespace {

/// First dimension of `s` whose step is the constant 0, or -1.  Such a
/// range has no size, so neither the VM nor codegen can iterate it.
int zero_step_dim(const sym::Subset& s) {
  for (size_t d = 0; d < s.dims(); ++d) {
    if (s.range(d).step.is_zero()) return static_cast<int>(d);
  }
  return -1;
}

void validate_state(const SDFG& sdfg, const State& st) {
  auto ctx = [&](auto&&... parts) {
    return err("validate: SDFG '", sdfg.name(), "', state '", st.label(),
               "': ", parts...);
  };

  for (const auto& e : st.edges()) {
    if (!st.alive(e.src)) throw ctx("edge from dead node ", e.src);
    if (!st.alive(e.dst)) throw ctx("edge to dead node ", e.dst);
    if (!e.memlet.empty()) {
      if (!sdfg.has_array(e.memlet.data))
        throw ctx("memlet references unknown container '", e.memlet.data, "'");
      const DataDesc& d = sdfg.array(e.memlet.data);
      if (!d.is_stream && e.memlet.subset.dims() != d.rank())
        throw ctx("memlet ", e.memlet.to_string(), " has rank ",
                  e.memlet.subset.dims(), " but container has rank ",
                  d.rank());
      if (int dim = zero_step_dim(e.memlet.subset); dim >= 0)
        throw ctx("memlet ", e.memlet.to_string(), " has step 0 in dimension ",
                  dim);
      // WCR resolves *write* conflicts; a memlet flowing out of a map
      // entry is a read and must not carry one.
      if (e.memlet.wcr != WCR::None &&
          st.node(e.src)->kind == NodeKind::MapEntry)
        throw ctx("read memlet ", e.memlet.to_string(),
                  " out of a map entry carries WCR");
    }
  }

  for (int id : st.node_ids()) {
    const Node* n = st.node(id);
    switch (n->kind) {
      case NodeKind::Access: {
        const auto* a = static_cast<const AccessNode*>(n);
        if (!sdfg.has_array(a->data))
          throw ctx("access node for unknown container '", a->data, "'");
        break;
      }
      case NodeKind::Tasklet: {
        const auto* t = static_cast<const Tasklet*>(n);
        std::set<std::string> have;
        for (const auto* e : st.in_edges(id)) have.insert(e->dst_conn);
        for (const auto& in : t->code.free_inputs()) {
          if (!have.count(in))
            throw ctx("tasklet '", t->name, "' reads connector '", in,
                      "' with no incoming edge");
        }
        if (st.out_degree(id) < 1)
          throw ctx("tasklet '", t->name, "' has no output edge");
        break;
      }
      case NodeKind::MapEntry: {
        const auto* m = static_cast<const MapEntry*>(n);
        if (!st.alive(m->exit_node) ||
            st.node(m->exit_node)->kind != NodeKind::MapExit)
          throw ctx("map '", m->name, "' has no paired exit");
        if (m->params.size() != m->range.dims())
          throw ctx("map '", m->name, "' parameter/range rank mismatch");
        if (int dim = zero_step_dim(m->range); dim >= 0)
          throw ctx("map '", m->name, "' has step 0 in dimension ", dim);
        // Every OUT_x on the inside must have a matching IN_x outside
        // (dynamic-range maps excepted -- not used).
        std::set<std::string> in_conns, out_conns;
        for (const auto* e : st.in_edges(id)) in_conns.insert(e->dst_conn);
        for (const auto* e : st.out_edges(id)) out_conns.insert(e->src_conn);
        for (const auto& oc : out_conns) {
          if (oc.rfind("OUT_", 0) == 0 && !in_conns.count("IN_" + oc.substr(4)))
            throw ctx("map '", m->name, "' connector ", oc,
                      " has no matching input");
        }
        break;
      }
      case NodeKind::MapExit: {
        const auto* m = static_cast<const MapExit*>(n);
        if (!st.alive(m->entry_node) ||
            st.node(m->entry_node)->kind != NodeKind::MapEntry)
          throw ctx("map exit without paired entry");
        // Symmetric to the MapEntry check: every IN_x arriving from the
        // inside must leave through a matching OUT_x.
        const auto* me = static_cast<const MapEntry*>(st.node(m->entry_node));
        std::set<std::string> in_conns, out_conns;
        for (const auto* e : st.in_edges(id)) in_conns.insert(e->dst_conn);
        for (const auto* e : st.out_edges(id)) out_conns.insert(e->src_conn);
        for (const auto& ic : in_conns) {
          if (ic.rfind("IN_", 0) == 0 && !out_conns.count("OUT_" + ic.substr(3)))
            throw ctx("map '", me->name, "' exit connector ", ic,
                      " has no matching output");
        }
        break;
      }
      case NodeKind::Library:
        break;
      case NodeKind::NestedSDFG: {
        const auto* nn = static_cast<const NestedSDFGNode*>(n);
        if (!nn->sdfg) throw ctx("nested SDFG node without callee");
        for (const auto* e : st.in_edges(id)) {
          if (!nn->in_connectors.count(e->dst_conn))
            throw ctx("nested SDFG edge into unknown connector '", e->dst_conn,
                      "'");
        }
        for (const auto* e : st.out_edges(id)) {
          if (!nn->out_connectors.count(e->src_conn))
            throw ctx("nested SDFG edge out of unknown connector '",
                      e->src_conn, "'");
        }
        break;
      }
    }
  }

  // The dataflow graph must be acyclic.
  (void)st.topological_order();
}

}  // namespace

void SDFG::validate() const {
  DACE_CHECK(state_alive(start_state_), "validate: SDFG '", name_,
             "' has no live start state");
  for (const auto& e : istate_edges_) {
    DACE_CHECK(state_alive(e.src) && state_alive(e.dst),
               "validate: interstate edge references dead state");
  }
  for (const auto& an : arg_names_) {
    DACE_CHECK(arrays_.count(an), "validate: argument '", an,
               "' has no container");
    DACE_CHECK(!arrays_.at(an).transient, "validate: argument '", an,
               "' is transient");
  }
  for (int sid : state_ids()) {
    validate_state(*this, state(sid));
    // Recurse into nested SDFGs.
    for (int nid : state(sid).node_ids()) {
      if (const auto* nn = state(sid).node_as<NestedSDFGNode>(nid)) {
        nn->sdfg->validate();
      }
    }
  }
}

}  // namespace dace::ir
