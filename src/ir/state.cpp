#include <algorithm>
#include <deque>

#include "ir/sdfg.hpp"

namespace dace::ir {

std::string Memlet::to_string() const {
  if (empty()) return "(empty)";
  std::string out = data + subset.to_string();
  if (wcr != WCR::None) {
    out += " (wcr: ";
    out += wcr_name(wcr);
    out += ')';
  }
  return out;
}

std::string MapEntry::label() const {
  std::string out = name + "[";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i) out += ", ";
    out += params[i];
    out += '=';
    out += range.range(i).to_string();
  }
  out += ']';
  return out;
}

// ---------------------------------------------------------------------------
// Node management
// ---------------------------------------------------------------------------

int State::add_node(std::unique_ptr<Node> n) {
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int State::add_access(const std::string& data) {
  return add_node(std::make_unique<AccessNode>(data));
}

int State::add_tasklet(const std::string& name,
                       std::vector<std::string> inputs, CodeExpr code) {
  return add_node(
      std::make_unique<Tasklet>(name, std::move(inputs), std::move(code)));
}

std::pair<int, int> State::add_map(const std::string& name,
                                   std::vector<std::string> params,
                                   sym::Subset range, Schedule sched) {
  DACE_CHECK(params.size() == range.dims(), "map '", name,
             "': parameter/range rank mismatch");
  auto entry =
      std::make_unique<MapEntry>(name, std::move(params), std::move(range));
  entry->schedule = sched;
  int eid = add_node(std::move(entry));
  int xid = add_node(std::make_unique<MapExit>());
  node_as<MapEntry>(eid)->exit_node = xid;
  node_as<MapExit>(xid)->entry_node = eid;
  return {eid, xid};
}

int State::add_library(const std::string& op) {
  return add_node(std::make_unique<LibraryNode>(op));
}

int State::add_nested(std::shared_ptr<SDFG> sdfg) {
  return add_node(std::make_unique<NestedSDFGNode>(std::move(sdfg)));
}

int State::absorb(State& other) {
  int offset = static_cast<int>(nodes_.size());
  for (auto& np : other.nodes_) nodes_.push_back(std::move(np));
  for (auto& e : other.edges_) {
    Edge ne = e;
    ne.src += offset;
    ne.dst += offset;
    // Re-pair map entry/exit ids.
    edges_.push_back(std::move(ne));
  }
  for (int i = offset; i < (int)nodes_.size(); ++i) {
    if (!nodes_[i]) continue;
    if (auto* m = dynamic_cast<MapEntry*>(nodes_[i].get())) {
      m->exit_node += offset;
    } else if (auto* m = dynamic_cast<MapExit*>(nodes_[i].get())) {
      m->entry_node += offset;
    }
  }
  other.nodes_.clear();
  other.edges_.clear();
  return offset;
}

void State::redirect_node(int from, int to) {
  for (auto& e : edges_) {
    if (e.src == from) e.src = to;
    if (e.dst == from) e.dst = to;
  }
}

bool State::has_path(int a, int b) const {
  if (a == b) return true;
  std::set<int> seen{a};
  std::deque<int> work{a};
  while (!work.empty()) {
    int id = work.front();
    work.pop_front();
    for (const auto& e : edges_) {
      if (e.src != id) continue;
      if (e.dst == b) return true;
      if (seen.insert(e.dst).second) work.push_back(e.dst);
    }
  }
  return false;
}

void State::remove_node(int id) {
  DACE_CHECK(alive(id), "remove_node: dead node ", id);
  for (const auto& e : edges_) {
    DACE_CHECK(e.src != id && e.dst != id,
               "remove_node: node ", id, " still has edges");
  }
  nodes_[id].reset();
}

void State::remove_node_and_edges(int id) {
  remove_edges_if([&](const Edge& e) { return e.src == id || e.dst == id; });
  remove_node(id);
}

std::vector<int> State::node_ids() const {
  std::vector<int> out;
  for (int i = 0; i < (int)nodes_.size(); ++i) {
    if (nodes_[i]) out.push_back(i);
  }
  return out;
}

int State::num_nodes() const {
  int n = 0;
  for (const auto& p : nodes_) n += (p != nullptr);
  return n;
}

// ---------------------------------------------------------------------------
// Edge management
// ---------------------------------------------------------------------------

void State::add_edge(int src, const std::string& src_conn, int dst,
                     const std::string& dst_conn, Memlet memlet) {
  DACE_CHECK(alive(src), "add_edge: dead source node ", src);
  DACE_CHECK(alive(dst), "add_edge: dead destination node ", dst);
  edges_.push_back(Edge{src, src_conn, dst, dst_conn, std::move(memlet)});
}

void State::remove_edge(size_t index) {
  DACE_CHECK(index < edges_.size(), "remove_edge: bad index");
  edges_.erase(edges_.begin() + static_cast<long>(index));
}

void State::remove_edges_if(const std::function<bool(const Edge&)>& pred) {
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(), pred),
               edges_.end());
}

std::vector<size_t> State::in_edge_ids(int node) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].dst == node) out.push_back(i);
  }
  return out;
}

std::vector<size_t> State::out_edge_ids(int node) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].src == node) out.push_back(i);
  }
  return out;
}

std::vector<const Edge*> State::in_edges(int node) const {
  std::vector<const Edge*> out;
  for (const auto& e : edges_) {
    if (e.dst == node) out.push_back(&e);
  }
  return out;
}

std::vector<const Edge*> State::out_edges(int node) const {
  std::vector<const Edge*> out;
  for (const auto& e : edges_) {
    if (e.src == node) out.push_back(&e);
  }
  return out;
}

int State::in_degree(int node) const {
  int n = 0;
  for (const auto& e : edges_) n += (e.dst == node);
  return n;
}

int State::out_degree(int node) const {
  int n = 0;
  for (const auto& e : edges_) n += (e.src == node);
  return n;
}

// ---------------------------------------------------------------------------
// Structure queries
// ---------------------------------------------------------------------------

std::vector<int> State::topological_order() const {
  std::map<int, int> indeg;
  for (int id : node_ids()) indeg[id] = 0;
  for (const auto& e : edges_) indeg[e.dst]++;
  std::deque<int> ready;
  for (auto& [id, d] : indeg) {
    if (d == 0) ready.push_back(id);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    int id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const auto& e : edges_) {
      if (e.src == id && --indeg[e.dst] == 0) ready.push_back(e.dst);
    }
  }
  DACE_CHECK(order.size() == indeg.size(), "state '", label_,
             "': dataflow graph has a cycle");
  return order;
}

std::vector<int> State::source_nodes() const {
  std::vector<int> out;
  for (int id : node_ids()) {
    if (in_degree(id) == 0) out.push_back(id);
  }
  return out;
}

std::vector<int> State::sink_nodes() const {
  std::vector<int> out;
  for (int id : node_ids()) {
    if (out_degree(id) == 0) out.push_back(id);
  }
  return out;
}

std::vector<int> State::scope_nodes(int map_entry) const {
  const auto* entry = node_as<MapEntry>(map_entry);
  DACE_CHECK(entry != nullptr, "scope_nodes: node is not a MapEntry");
  int exit = entry->exit_node;
  // BFS from entry along edges, not crossing the exit.
  std::set<int> seen;
  std::deque<int> work{map_entry};
  while (!work.empty()) {
    int id = work.front();
    work.pop_front();
    for (const auto& e : edges_) {
      if (e.src != id || e.dst == exit) continue;
      if (seen.insert(e.dst).second) {
        work.push_back(e.dst);
        // Nested maps: jump over their scope via the paired exit too.
        if (const auto* me = node_as<MapEntry>(e.dst)) {
          if (seen.insert(me->exit_node).second) work.push_back(me->exit_node);
        }
      }
    }
  }
  return {seen.begin(), seen.end()};
}

int State::scope_of(int node) const {
  // Walk backwards: a node's scope is determined by the innermost map
  // entry on any path to it whose exit has not been crossed. Compute by
  // checking membership in each map's scope (graphs are small).
  int best = -1;
  size_t best_size = SIZE_MAX;
  for (int id : node_ids()) {
    if (node_as<MapEntry>(id) == nullptr || id == node) continue;
    std::vector<int> scope = scope_nodes(id);
    if (std::find(scope.begin(), scope.end(), node) != scope.end()) {
      if (scope.size() < best_size) {
        best = id;
        best_size = scope.size();
      }
    }
  }
  return best;
}

State::AccessSets State::access_sets() const {
  AccessSets s;
  for (const auto& e : edges_) {
    if (e.memlet.empty()) continue;
    // Read if source is an access node of this container; write if dest is.
    if (const auto* a = node_as<AccessNode>(e.src)) {
      if (a->data == e.memlet.data)
        s.reads[e.memlet.data].push_back(e.memlet.subset);
    }
    if (const auto* a = node_as<AccessNode>(e.dst)) {
      if (a->data == e.memlet.data)
        s.writes[e.memlet.data].push_back(e.memlet.subset);
    }
  }
  return s;
}

}  // namespace dace::ir
