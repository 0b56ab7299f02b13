// Handlers for the comm::* library nodes (dace.comm.* in DaCeLang).
#include "distributed/dist_executor.hpp"
#include <cmath>

#include "distributed/process_grid.hpp"

namespace dace::dist {

namespace {

RankCtx& ctx_of(rt::Executor& ex) {
  DACE_CHECK(ex.comm_context != nullptr,
             "comm: SDFG uses dace.comm.* but is not running under "
             "run_distributed_sdfg");
  return *static_cast<RankCtx*>(ex.comm_context);
}

int64_t sym_attr(rt::Executor& ex, const ir::LibraryNode& l,
                 const std::string& key) {
  auto it = l.sym_attrs.find(key);
  DACE_CHECK(it != l.sym_attrs.end(), "comm: missing attribute ", key);
  return ex.eval(it->second);
}

void isend_handler(rt::Executor& ex, const ir::State& st, int node) {
  RankCtx& ctx = ctx_of(ex);
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  int64_t peer = sym_attr(ex, *l, "peer");
  int64_t tag = sym_attr(ex, *l, "tag");
  rt::Tensor buf = ex.input("_buf");
  rt::Tensor req = ex.output("_req_out");
  if (peer < 0) {  // boundary neighbor: no-op
    req.set_flat(0, -1);
    return;
  }
  // Contiguous staging (the generated MPI vector datatype's payload).
  OpContext oc(*ctx.comm, "comm::Isend");
  RankCtx::Pending p;
  p.staging.resize((size_t)buf.size());
  for (int64_t i = 0; i < buf.size(); ++i) p.staging[(size_t)i] = buf.get_flat(i);
  ctx.comm->send(p.staging.data(), buf.size(), (int)peer, (int)tag);
  p.active = false;  // eager send completes immediately
  ctx.requests.push_back(std::move(p));
  req.set_flat(0, (double)(ctx.requests.size() - 1));
}

void irecv_handler(rt::Executor& ex, const ir::State& st, int node) {
  RankCtx& ctx = ctx_of(ex);
  const auto* l = st.node_as<const ir::LibraryNode>(node);
  int64_t peer = sym_attr(ex, *l, "peer");
  int64_t tag = sym_attr(ex, *l, "tag");
  rt::Tensor buf = ex.output("_buf");
  rt::Tensor req = ex.output("_req_out");
  if (peer < 0) {
    req.set_flat(0, -1);
    return;
  }
  RankCtx::Pending p;
  p.view = buf;
  p.staging.resize((size_t)buf.size());
  p.req.peer = (int)peer;
  p.req.tag = (int)tag;
  p.active = true;
  p.is_recv = true;
  ctx.requests.push_back(std::move(p));
  req.set_flat(0, (double)(ctx.requests.size() - 1));
}

void waitall_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  OpContext oc(*ctx.comm, "comm::Waitall");
  rt::Tensor req = ex.input("_req_in");
  for (int64_t i = 0; i < req.size(); ++i) {
    int64_t h = (int64_t)req.get_flat(i);
    if (h < 0 || h >= (int64_t)ctx.requests.size()) continue;
    RankCtx::Pending& p = ctx.requests[(size_t)h];
    if (!p.active) continue;
    if (p.is_recv) {
      ctx.comm->recv(p.staging.data(), (int64_t)p.staging.size(), p.req.peer,
                     p.req.tag);
      for (int64_t j = 0; j < (int64_t)p.staging.size(); ++j)
        p.view.set_flat(j, p.staging[(size_t)j]);
    }
    p.active = false;
  }
}

void barrier_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  OpContext oc(*ctx.comm, "comm::Barrier");
  ctx.comm->barrier();
}

/// Grid block offsets of this rank for a local view shape.
std::pair<int64_t, int64_t> block_offsets(rt::Executor& ex,
                                          const rt::Tensor& local) {
  RankCtx& ctx = ctx_of(ex);
  if (local.rank() == 2)
    return {ctx.px * local.shape()[0], ctx.py * local.shape()[1]};
  return {ctx.comm->rank() * local.shape()[0], 0};
}

void block_scatter_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  rt::Tensor global = ex.input("_in");
  rt::Tensor local = ex.output("_out");
  auto [ox, oy] = block_offsets(ex, local);
  if (local.rank() == 2) {
    for (int64_t i = 0; i < local.shape()[0]; ++i) {
      for (int64_t j = 0; j < local.shape()[1]; ++j)
        local.at({i, j}) = global.at({ox + i, oy + j});
    }
  } else {
    for (int64_t i = 0; i < local.size(); ++i)
      local.set_flat(i, global.get_flat(ox + i));
  }
  int p = ctx.comm->size();
  double cost = ctx.comm->world_net().alpha_s * (p > 1 ? std::log2((double)p) : 1) +
                (double)(p - 1) / p * (double)(global.size() * 8) /
                    ctx.comm->world_net().bandwidth;
  ctx.comm->charge_sync(cost);
}

void block_gather_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  rt::Tensor local = ex.input("_in");
  rt::Tensor global = ex.output("_out");
  auto [ox, oy] = block_offsets(ex, local);
  if (local.rank() == 2) {
    for (int64_t i = 0; i < local.shape()[0]; ++i) {
      for (int64_t j = 0; j < local.shape()[1]; ++j)
        global.at({ox + i, oy + j}) = local.at({i, j});
    }
  } else {
    for (int64_t i = 0; i < local.size(); ++i)
      global.set_flat(ox + i, local.get_flat(i));
  }
  int p = ctx.comm->size();
  double cost = ctx.comm->world_net().alpha_s * (p > 1 ? std::log2((double)p) : 1) +
                (double)(p - 1) / p * (double)(global.size() * 8) /
                    ctx.comm->world_net().bandwidth;
  ctx.comm->charge_sync(cost);
}

void allreduce_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  OpContext oc(*ctx.comm, "comm::Allreduce");
  rt::Tensor in = ex.input("_in");
  rt::Tensor out = ex.output("_out");
  std::vector<double> buf((size_t)in.size());
  for (int64_t i = 0; i < in.size(); ++i) buf[(size_t)i] = in.get_flat(i);
  ctx.comm->allreduce_sum(buf.data(), (int64_t)buf.size());
  for (int64_t i = 0; i < out.size(); ++i) out.set_flat(i, buf[(size_t)i]);
}

void bcast_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  OpContext oc(*ctx.comm, "comm::Bcast");
  rt::Tensor in = ex.input("_in");
  rt::Tensor out = ex.output("_out");
  std::vector<double> buf((size_t)in.size());
  for (int64_t i = 0; i < in.size(); ++i) buf[(size_t)i] = in.get_flat(i);
  ctx.comm->bcast(buf.data(), (int64_t)buf.size(), 0);
  for (int64_t i = 0; i < out.size(); ++i) out.set_flat(i, buf[(size_t)i]);
}

void scatter1d_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  rt::Tensor global = ex.input("_in");
  rt::Tensor local = ex.output("_out");
  int64_t lsz = local.size();
  int64_t g = global.size();
  int64_t o = ctx.comm->rank() * lsz;
  for (int64_t i = 0; i < lsz; ++i)
    local.set_flat(i, o + i < g ? global.get_flat(o + i) : 0.0);
  int p = ctx.comm->size();
  double cost = ctx.comm->world_net().alpha_s *
                    (p > 1 ? std::log2((double)p) : 1) +
                (double)(p - 1) / p * (double)(g * 8) /
                    ctx.comm->world_net().bandwidth;
  ctx.comm->charge_sync(cost);
}

void gather1d_handler(rt::Executor& ex, const ir::State&, int) {
  RankCtx& ctx = ctx_of(ex);
  rt::Tensor local = ex.input("_in");
  rt::Tensor global = ex.output("_out");
  int64_t lsz = local.size();
  int64_t g = global.size();
  int64_t o = ctx.comm->rank() * lsz;
  for (int64_t i = 0; i < lsz && o + i < g; ++i)
    global.set_flat(o + i, local.get_flat(i));
  int p = ctx.comm->size();
  double cost = ctx.comm->world_net().alpha_s *
                    (p > 1 ? std::log2((double)p) : 1) +
                (double)(p - 1) / p * (double)(g * 8) /
                    ctx.comm->world_net().bandwidth;
  ctx.comm->charge_sync(cost);
}

}  // namespace

void ensure_comm_handlers() {
  static bool done = [] {
    auto& reg = rt::LibraryRegistry::global();
    reg.register_op("comm::Isend", isend_handler);
    reg.register_op("comm::Irecv", irecv_handler);
    reg.register_op("comm::Waitall", waitall_handler);
    reg.register_op("comm::Barrier", barrier_handler);
    reg.register_op("comm::BlockScatter", block_scatter_handler);
    reg.register_op("comm::BlockGather", block_gather_handler);
    reg.register_op("comm::Allreduce", allreduce_handler);
    reg.register_op("comm::Bcast", bcast_handler);
    reg.register_op("comm::Scatter1D", scatter1d_handler);
    reg.register_op("comm::Gather1D", gather1d_handler);
    return true;
  }();
  (void)done;
}

}  // namespace dace::dist
