#include <algorithm>
#include <deque>

#include "ir/sdfg.hpp"

namespace dace::ir {

std::unique_ptr<Node> NestedSDFGNode::clone() const {
  auto n = std::make_unique<NestedSDFGNode>(sdfg);
  n->in_connectors = in_connectors;
  n->out_connectors = out_connectors;
  n->symbol_mapping = symbol_mapping;
  n->instrument = instrument;
  return n;
}

std::string NestedSDFGNode::label() const {
  return sdfg ? sdfg->name() : "<nested>";
}

std::string InterstateEdge::to_string() const {
  std::string out;
  if (condition.valid()) out = "if " + condition.to_string();
  for (const auto& [k, v] : assignments) {
    out += ' ';
    out += k;
    out += '=';
    out += v.to_string();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

DataDesc& SDFG::add_array(const std::string& name, DType dtype,
                          std::vector<sym::Expr> shape, bool transient) {
  DACE_CHECK(!arrays_.count(name), "SDFG '", name_, "': duplicate container '",
             name, "'");
  DataDesc d;
  d.name = name;
  d.dtype = dtype;
  d.shape = std::move(shape);
  d.transient = transient;
  for (const auto& s : d.shape) {
    for (const auto& fs : s.free_symbols()) symbols_.insert(fs);
  }
  return arrays_.emplace(name, std::move(d)).first->second;
}

DataDesc& SDFG::add_scalar(const std::string& name, DType dtype,
                           bool transient) {
  auto& d = add_array(name, dtype, {}, transient);
  if (transient) d.storage = Storage::Register;
  return d;
}

DataDesc& SDFG::add_temp(const std::string& prefix, DType dtype,
                         std::vector<sym::Expr> shape) {
  return add_array(unique_name(prefix), dtype, std::move(shape),
                   /*transient=*/true);
}

DataDesc& SDFG::array(const std::string& name) {
  auto it = arrays_.find(name);
  DACE_CHECK(it != arrays_.end(), "SDFG '", name_, "': unknown container '",
             name, "'");
  return it->second;
}

const DataDesc& SDFG::array(const std::string& name) const {
  auto it = arrays_.find(name);
  DACE_CHECK(it != arrays_.end(), "SDFG '", name_, "': unknown container '",
             name, "'");
  return it->second;
}

void SDFG::remove_array(const std::string& name) {
  DACE_CHECK(arrays_.erase(name) == 1, "SDFG '", name_,
             "': removing unknown container '", name, "'");
}

void SDFG::rename_array(const std::string& old_name,
                        const std::string& new_name) {
  DACE_CHECK(arrays_.count(old_name), "rename: unknown container ", old_name);
  DACE_CHECK(!arrays_.count(new_name), "rename: target exists ", new_name);
  DataDesc d = arrays_.at(old_name);
  d.name = new_name;
  arrays_.erase(old_name);
  arrays_.emplace(new_name, std::move(d));
  for (auto& sp : states_) {
    if (!sp) continue;
    for (int id : sp->node_ids()) {
      if (auto* a = sp->node_as<AccessNode>(id)) {
        if (a->data == old_name) a->data = new_name;
      }
    }
    for (auto& e : sp->edges()) {
      if (e.memlet.data == old_name) e.memlet.data = new_name;
    }
  }
  for (auto& an : arg_names_) {
    if (an == old_name) an = new_name;
  }
}

// ---------------------------------------------------------------------------
// States and interstate edges
// ---------------------------------------------------------------------------

State& SDFG::add_state(const std::string& label, bool is_start) {
  states_.push_back(std::make_unique<State>(label));
  if (is_start || states_.size() == 1)
    start_state_ = static_cast<int>(states_.size()) - 1;
  return *states_.back();
}

State& SDFG::add_state_between(int src, int dst, const std::string& label) {
  State& s = add_state(label);
  int sid = static_cast<int>(states_.size()) - 1;
  for (auto& e : istate_edges_) {
    if (e.src == src && e.dst == dst) {
      e.dst = sid;
      add_interstate_edge(sid, dst);
      return s;
    }
  }
  add_interstate_edge(src, sid);
  add_interstate_edge(sid, dst);
  return s;
}

int SDFG::num_states() const {
  int n = 0;
  for (const auto& s : states_) n += (s != nullptr);
  return n;
}

State& SDFG::state(int id) {
  DACE_CHECK(state_alive(id), "SDFG '", name_, "': no state with id ", id);
  return *states_[id];
}

const State& SDFG::state(int id) const {
  DACE_CHECK(state_alive(id), "SDFG '", name_, "': no state with id ", id);
  return *states_[id];
}

std::vector<int> SDFG::state_ids() const {
  std::vector<int> out;
  for (int i = 0; i < (int)states_.size(); ++i) {
    if (states_[i]) out.push_back(i);
  }
  return out;
}

void SDFG::remove_state(int id) {
  DACE_CHECK(state_alive(id), "remove_state: dead state ", id);
  istate_edges_.erase(
      std::remove_if(istate_edges_.begin(), istate_edges_.end(),
                     [&](const InterstateEdge& e) {
                       return e.src == id || e.dst == id;
                     }),
      istate_edges_.end());
  states_[id].reset();
}

int SDFG::state_id(const State* s) const {
  for (int i = 0; i < (int)states_.size(); ++i) {
    if (states_[i].get() == s) return i;
  }
  return -1;
}

void SDFG::add_interstate_edge(
    int src, int dst, CodeExpr condition,
    std::vector<std::pair<std::string, sym::Expr>> assignments) {
  DACE_CHECK(state_alive(src) && state_alive(dst),
             "interstate edge references dead state");
  for (const auto& [k, v] : assignments) {
    symbols_.insert(k);
    for (const auto& fs : v.free_symbols()) symbols_.insert(fs);
  }
  istate_edges_.push_back(
      InterstateEdge{src, dst, std::move(condition), std::move(assignments)});
}

std::vector<size_t> SDFG::out_interstate(int state) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < istate_edges_.size(); ++i) {
    if (istate_edges_[i].src == state) out.push_back(i);
  }
  return out;
}

std::vector<size_t> SDFG::in_interstate(int state) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < istate_edges_.size(); ++i) {
    if (istate_edges_[i].dst == state) out.push_back(i);
  }
  return out;
}

std::vector<int> SDFG::state_order() const {
  std::vector<int> order;
  std::set<int> seen;
  std::deque<int> work;
  if (state_alive(start_state_)) {
    work.push_back(start_state_);
    seen.insert(start_state_);
  }
  while (!work.empty()) {
    int id = work.front();
    work.pop_front();
    order.push_back(id);
    for (size_t ei : out_interstate(id)) {
      int nxt = istate_edges_[ei].dst;
      if (seen.insert(nxt).second) work.push_back(nxt);
    }
  }
  for (int id : state_ids()) {
    if (!seen.count(id)) order.push_back(id);
  }
  return order;
}

std::string SDFG::unique_name(const std::string& prefix) {
  std::string name;
  do {
    name = prefix + "_" + std::to_string(name_counter_++);
  } while (arrays_.count(name));
  return name;
}

std::set<std::string> SDFG::free_symbols() const {
  std::set<std::string> used;
  for (const auto& [name, desc] : arrays_) {
    for (const auto& s : desc.shape) s.free_symbols(used);
  }
  for (const auto& sp : states_) {
    if (!sp) continue;
    for (int id : sp->node_ids()) {
      if (const auto* m = sp->node_as<MapEntry>(id)) {
        for (const auto& r : m->range.ranges()) {
          r.begin.free_symbols(used);
          r.end.free_symbols(used);
          r.step.free_symbols(used);
        }
      } else if (const auto* t = sp->node_as<Tasklet>(id)) {
        t->code.free_symbols(used);
      } else if (const auto* l = sp->node_as<LibraryNode>(id)) {
        for (const auto& [k, v] : l->sym_attrs) {
          (void)k;
          v.free_symbols(used);
        }
      }
    }
    for (const auto& e : sp->edges()) {
      for (const auto& r : e.memlet.subset.ranges()) {
        r.begin.free_symbols(used);
        r.end.free_symbols(used);
        r.step.free_symbols(used);
      }
    }
  }
  std::set<std::string> assigned;
  for (const auto& e : istate_edges_) {
    if (e.condition.valid()) e.condition.free_symbols(used);
    for (const auto& [k, v] : e.assignments) {
      assigned.insert(k);
      v.free_symbols(used);
    }
  }
  // Map parameters are bound inside their scope, not free.
  for (const auto& sp : states_) {
    if (!sp) continue;
    for (int id : sp->node_ids()) {
      if (const auto* m = sp->node_as<MapEntry>(id)) {
        for (const auto& p : m->params) assigned.insert(p);
      }
    }
  }
  std::set<std::string> out;
  for (const auto& s : used) {
    if (!assigned.count(s)) out.insert(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Clone
// ---------------------------------------------------------------------------

std::unique_ptr<SDFG> SDFG::clone() const {
  auto out = std::make_unique<SDFG>(name_);
  out->arrays_ = arrays_;
  out->arg_names_ = arg_names_;
  out->symbols_ = symbols_;
  out->istate_edges_ = istate_edges_;
  out->start_state_ = start_state_;
  out->name_counter_ = name_counter_;
  out->states_.reserve(states_.size());
  for (const auto& sp : states_) {
    if (!sp) {
      out->states_.push_back(nullptr);
      continue;
    }
    auto ns = std::make_unique<State>(sp->label());
    ns->instrument = sp->instrument;
    ns->nodes_.reserve(sp->nodes_.size());
    for (const auto& np : sp->nodes_) {
      ns->nodes_.push_back(np ? np->clone() : nullptr);
    }
    ns->edges_ = sp->edges_;
    out->states_.push_back(std::move(ns));
  }
  return out;
}

void SDFG::swap(SDFG& other) noexcept {
  std::swap(name_, other.name_);
  std::swap(arrays_, other.arrays_);
  std::swap(arg_names_, other.arg_names_);
  std::swap(symbols_, other.symbols_);
  std::swap(states_, other.states_);
  std::swap(istate_edges_, other.istate_edges_);
  std::swap(start_state_, other.start_state_);
  std::swap(name_counter_, other.name_counter_);
}

}  // namespace dace::ir
