// Built-in library node implementations (Section 3.2).
//
// These are the "fast library call" expansions of the specialization
// priority list: MatMul dispatches to the register-tiled products of
// tensor_ops (standing in for MKL), Reduce to the native reductions.
// Additional expansions (PBLAS, comm::*, device-specific) are registered
// by their modules.
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"

namespace dace::rt {

namespace {

const ir::Edge* edge_by_dst_conn(const ir::State& st, int node,
                                 const std::string& conn) {
  for (const auto* e : st.in_edges(node)) {
    if (e->dst_conn == conn) return e;
  }
  throw err("library: missing input connector '", conn, "'");
}

const ir::Edge* edge_by_src_conn(const ir::State& st, int node,
                                 const std::string& conn) {
  for (const auto* e : st.out_edges(node)) {
    if (e->src_conn == conn) return e;
  }
  throw err("library: missing output connector '", conn, "'");
}

std::string attr_or(const ir::LibraryNode& l, const std::string& key,
                    const std::string& fallback) {
  auto it = l.attrs.find(key);
  return it == l.attrs.end() ? fallback : it->second;
}

void matmul_handler(Executor& ex, const ir::State& st, int node) {
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const ir::Edge* ea = edge_by_dst_conn(st, node, "_a");
  const ir::Edge* eb = edge_by_dst_conn(st, node, "_b");
  const ir::Edge* ec = edge_by_src_conn(st, node, "_c");
  Tensor a = ex.view(ea->memlet, attr_or(*l, "viewdims_a", ""));
  Tensor b = ex.view(eb->memlet, attr_or(*l, "viewdims_b", ""));
  Tensor out = ex.view(ec->memlet);
  Tensor res = ops::matmul(a, b);
  out.assign_from(res);
  // Account FLOPs in the executor statistics (2mnk).
  int64_t m = a.rank() == 2 ? a.shape()[0] : 1;
  int64_t k = a.rank() == 2 ? a.shape()[1] : a.shape()[0];
  int64_t n = b.rank() == 2 ? b.shape()[1] : 1;
  ex.stats().flops += 2 * m * n * k;
  ex.stats().loads += m * k + k * n;
  ex.stats().stores += m * n;
}

void reduce_handler(Executor& ex, const ir::State& st, int node) {
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const ir::Edge* ein = edge_by_dst_conn(st, node, "_in");
  const ir::Edge* eout = edge_by_src_conn(st, node, "_out");
  Tensor in = ex.view(ein->memlet, attr_or(*l, "viewdims_in", ""));
  Tensor out = ex.view(eout->memlet);
  std::string op = attr_or(*l, "op", "sum");
  auto axis_it = l->attrs.find("axis");
  if (axis_it != l->attrs.end()) {
    int axis = std::stoi(axis_it->second);
    if (axis < 0) axis += (int)in.rank();
    DACE_CHECK(op == "sum", "library: axis reduction supports sum only");
    out.assign_from(ops::sum_axis(in, axis));
  } else {
    double v;
    if (op == "sum") {
      v = ops::sum_all(in);
    } else if (op == "max") {
      v = ops::max_all(in);
    } else if (op == "min") {
      v = ops::min_all(in);
    } else {
      throw err("library: unknown reduction '", op, "'");
    }
    out.set_flat(0, v);
  }
  ex.stats().flops += in.size();
  ex.stats().loads += in.size();
  ex.stats().stores += out.size();
}

}  // namespace

namespace detail {
void register_builtin_kernels(LibraryRegistry& reg) {
  reg.register_op("MatMul", matmul_handler);
  reg.register_op("Reduce", reduce_handler);
}
}  // namespace detail

}  // namespace dace::rt
