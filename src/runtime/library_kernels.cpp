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

const std::string& attr_or(const ir::LibraryNode& l, const std::string& key,
                           const std::string& fallback) {
  auto it = l.attrs.find(key);
  return it == l.attrs.end() ? fallback : it->second;
}

void matmul_handler(Executor& ex, const ir::State&, int) {
  const Tensor& a = ex.input("_a");
  const Tensor& b = ex.input("_b");
  Tensor& c = ex.output("_c");
  // Straight into the output view when it can take the product; a view
  // that is strided, of another dtype or aliases an operand gets a copy.
  if (ops::can_matmul_into(c, a, b)) {
    ops::matmul_into(c, a, b);
  } else {
    c.assign_from(ops::matmul(a, b));
  }
  // Account FLOPs in the executor statistics (2mnk).
  int64_t m = a.rank() == 2 ? a.shape()[0] : 1;
  int64_t k = a.rank() == 2 ? a.shape()[1] : a.shape()[0];
  int64_t n = b.rank() == 2 ? b.shape()[1] : 1;
  ex.stats().flops += 2 * m * n * k;
  ex.stats().loads += m * k + k * n;
  ex.stats().stores += m * n;
}

void reduce_handler(Executor& ex, const ir::State& st, int node) {
  static const std::string kSum = "sum";
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  const Tensor& in = ex.input("_in");
  Tensor& out = ex.output("_out");
  const std::string& op = attr_or(*l, "op", kSum);
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
