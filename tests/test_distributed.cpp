// Distributed substrate tests: simMPI semantics, PBLAS, the Table-2
// distributed kernels vs. the shared-memory reference, the explicit
// local-view DSL path (Section 4.3), and the implicit distribution
// transformations (Sections 4.1-4.2).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/env.hpp"
#include "distributed/dasklike.hpp"
#include "distributed/dist_executor.hpp"
#include "distributed/dist_kernels.hpp"
#include "distributed/dist_transforms.hpp"
#include "distributed/pblas.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/tensor_ops.hpp"
#include "transforms/map_fusion.hpp"
#include "transforms/simplify.hpp"

namespace dace {
namespace {

using dist::Comm;
using dist::NetModel;
using dist::World;
using rt::Bindings;
using rt::Tensor;

TEST(SimMpi, PointToPointMovesData) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      double data[3] = {1, 2, 3};
      c.send(data, 3, 1, 7);
    } else {
      double buf[3] = {0, 0, 0};
      c.recv(buf, 3, 0, 7);
      EXPECT_EQ(buf[2], 3.0);
    }
  });
  EXPECT_EQ(w.total_messages(), 1);
  EXPECT_EQ(w.total_bytes(), 24);
  EXPECT_GT(w.max_clock(), 0.0);
}

TEST(SimMpi, VectorDatatypeStrides) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      // 3 blocks of 2, stride 4: elements 0,1, 4,5, 8,9.
      double data[12];
      for (int i = 0; i < 12; ++i) data[i] = i;
      c.send_vector(data, 3, 2, 4, 1, 1);
    } else {
      double buf[12] = {0};
      c.recv_vector(buf, 3, 2, 4, 0, 1);
      EXPECT_EQ(buf[0], 0.0);
      EXPECT_EQ(buf[4], 4.0);
      EXPECT_EQ(buf[9], 9.0);
    }
  });
}

TEST(SimMpi, CollectivesComputeAndAdvanceClocks) {
  const int P = 4;
  World w(P);
  std::vector<double> gathered(P, 0);
  w.run([&](Comm& c) {
    double v = 1.0 + c.rank();
    double sum = v;
    c.allreduce_sum(&sum, 1);
    EXPECT_DOUBLE_EQ(sum, 10.0);
    double root_buf[P];
    c.gather(&v, root_buf, 1, 0);
    if (c.rank() == 0) {
      for (int i = 0; i < P; ++i) EXPECT_DOUBLE_EQ(root_buf[i], 1.0 + i);
    }
    double bc = c.rank() == 2 ? 42.0 : 0.0;
    c.bcast(&bc, 1, 2);
    EXPECT_DOUBLE_EQ(bc, 42.0);
  });
  EXPECT_GT(w.max_clock(), 0.0);
}

TEST(SimMpi, ScatterDistributesBlocks) {
  const int P = 4;
  World w(P);
  std::vector<double> src(P * 2);
  for (size_t i = 0; i < src.size(); ++i) src[i] = (double)i;
  w.run([&](Comm& c) {
    double mine[2] = {-1, -1};
    c.scatter(src.data(), mine, 2, 0);
    EXPECT_DOUBLE_EQ(mine[0], 2.0 * c.rank());
    EXPECT_DOUBLE_EQ(mine[1], 2.0 * c.rank() + 1);
  });
}

TEST(Pblas, RingGemmMatchesLocal) {
  const int P = 3;
  const int64_t m = 9, k = 7, n = 6;
  Tensor A(ir::DType::f64, {m, k});
  Tensor B(ir::DType::f64, {k, n});
  kernels::fill_pattern(A, 1);
  kernels::fill_pattern(B, 2);
  Tensor ref = rt::ops::matmul(A, B);
  Tensor C(ir::DType::f64, {m, n});
  World w(P);
  dist::NodeModel node;
  w.run([&](Comm& c) {
    Tensor a_rows = dist::local_rows(A, P, c.rank());
    int64_t nb = dist::block_size(n, P);
    Tensor b_col(ir::DType::f64, {k, nb});
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < nb; ++j) {
        int64_t gj = c.rank() * nb + j;
        if (gj < n) b_col.at({i, j}) = B.at({i, gj});
      }
    }
    int64_t mb = dist::block_size(m, P);
    Tensor c_rows(ir::DType::f64, {mb, nb * P});
    dist::pgemm(c, dist::Grid2D::square(P), node, a_rows, b_col, c_rows);
    for (int64_t i = 0; i < mb; ++i) {
      int64_t gi = c.rank() * mb + i;
      if (gi >= m) break;
      for (int64_t j = 0; j < n; ++j) C.at({gi, j}) = c_rows.at({i, j});
    }
  });
  EXPECT_TRUE(rt::allclose(C, ref, 1e-9, 1e-12));
}

// Every Table-2 kernel, distributed, must reproduce the shared-memory
// reference at several rank counts.
class DistKernels
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DistKernels, MatchesReference) {
  const auto& [name, P] = GetParam();
  const kernels::Kernel& k = kernels::kernel(name);
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  World w(P);
  Bindings out;
  dist::DistResult res = dist::run_dist_kernel(name, w, sizes,
                                               dist::NodeModel(), &out);
  for (const auto& o : k.outputs) {
    EXPECT_TRUE(rt::allclose(out.at(o), ref.at(o), 1e-9, 1e-11))
        << name << " P=" << P << " output " << o << " max diff "
        << rt::max_abs_diff(out.at(o), ref.at(o));
  }
  EXPECT_GT(res.time_s, 0.0);
  if (P > 1 && name != "doitgen") EXPECT_GT(res.bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    All, DistKernels,
    ::testing::Combine(::testing::ValuesIn(dist::distributed_kernels()),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DistKernels, WeakScalingBeatsTaskingBaselines) {
  // gesummv at 4 ranks: DaCe-style MPI should be far faster than the
  // dask-like baseline (TCP + central scheduler).
  const auto& k = kernels::kernel("gesummv");
  sym::SymbolMap sizes{{"N", 64}};
  World w(4);
  dist::DistResult dace_res =
      dist::run_dist_kernel("gesummv", w, sizes, dist::NodeModel(), nullptr);
  Bindings args = k.init(sizes);
  fe::Module m = fe::parse(k.source);
  dist::TaskingResult dask = dist::run_tasking(
      m.functions[0], args, sizes, 4, dist::TaskingModel::dask());
  EXPECT_LT(dace_res.time_s, dask.time_s);
}

TEST(Tasking, BaselinesComputeCorrectValues) {
  const auto& k = kernels::kernel("gemm");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);
  for (auto model : {dist::TaskingModel::dask(), dist::TaskingModel::legate()}) {
    Bindings args = k.init(sizes);
    fe::Module m = fe::parse(k.source);
    auto res = dist::run_tasking(m.functions[0], args, sizes, 4, model);
    EXPECT_TRUE(rt::allclose(args.at("C"), ref.at("C"), 1e-9, 1e-11));
    EXPECT_GT(res.tasks, 0);
  }
}

TEST(Tasking, DaskSchedulerSerializesWithWorkers) {
  const auto& k = kernels::kernel("jacobi_1d");
  sym::SymbolMap sizes{{"N", 512}, {"TSTEPS", 4}};
  fe::Module m = fe::parse(k.source);
  double t4, t16;
  {
    Bindings args = k.init(sizes);
    t4 = dist::run_tasking(m.functions[0], args, sizes, 4,
                           dist::TaskingModel::dask())
             .time_s;
  }
  {
    Bindings args = k.init(sizes);
    t16 = dist::run_tasking(m.functions[0], args, sizes, 16,
                            dist::TaskingModel::dask())
              .time_s;
  }
  // More workers => more scheduler work: no speedup on this size.
  EXPECT_GE(t16, t4 * 0.9);
}

// ---------------------------------------------------------------------------
// Explicit local-view programming (Section 4.3)
// ---------------------------------------------------------------------------

constexpr const char* kJacobiDistSrc = R"(
@dace.program
def half_step(inpbuf: dace.float64[lNx + 2, lNy + 2],
              outbuf: dace.float64[lNx + 2, lNy + 2]):
    req = np.empty((8,), dtype=MPI_Request)
    dace.comm.Isend(inpbuf[1, 1:-1], nn, 0, req[0])
    dace.comm.Isend(inpbuf[lNx, 1:-1], ns, 1, req[1])
    dace.comm.Isend(inpbuf[1:-1, 1], nw, 2, req[2])
    dace.comm.Isend(inpbuf[1:-1, lNy], ne, 3, req[3])
    dace.comm.Irecv(inpbuf[0, 1:-1], nn, 1, req[4])
    dace.comm.Irecv(inpbuf[lNx + 1, 1:-1], ns, 0, req[5])
    dace.comm.Irecv(inpbuf[1:-1, 0], nw, 3, req[6])
    dace.comm.Irecv(inpbuf[1:-1, lNy + 1], ne, 2, req[7])
    dace.comm.Waitall(req)
    outbuf[1+noff:lNx+1-soff, 1+woff:lNy+1-eoff] = 0.2 * (
        inpbuf[1+noff:lNx+1-soff, 1+woff:lNy+1-eoff] +
        inpbuf[noff:lNx-soff, 1+woff:lNy+1-eoff] +
        inpbuf[2+noff:lNx+2-soff, 1+woff:lNy+1-eoff] +
        inpbuf[1+noff:lNx+1-soff, woff:lNy-eoff] +
        inpbuf[1+noff:lNx+1-soff, 2+woff:lNy+2-eoff])

@dace.program
def j2d_dist(TSTEPS: dace.int32, A: dace.float64[N, N],
             B: dace.float64[N, N]):
    lA = np.zeros((lNx + 2, lNy + 2), dtype=A.dtype)
    lB = np.zeros((lNx + 2, lNy + 2), dtype=B.dtype)
    lA[1:-1, 1:-1] = dace.comm.BlockScatter(A)
    lB[1:-1, 1:-1] = dace.comm.BlockScatter(B)
    for t in range(1, TSTEPS):
        half_step(lA, lB)
        half_step(lB, lA)
    A[:] = dace.comm.BlockGather(lA[1:-1, 1:-1])
    B[:] = dace.comm.BlockGather(lB[1:-1, 1:-1])
)";

TEST(LocalView, ExplicitJacobi2dMatchesReference) {
  const int64_t n = 16, tsteps = 4;
  const int P = 4;  // 2x2 grid
  auto sdfg = fe::compile_to_sdfg(kJacobiDistSrc, "j2d_dist");

  // Reference.
  Bindings ref;
  ref.emplace("A", Tensor(ir::DType::f64, {n, n}));
  ref.emplace("B", Tensor(ir::DType::f64, {n, n}));
  kernels::fill_pattern(ref.at("A"), 1);
  kernels::fill_pattern(ref.at("B"), 2);
  Bindings shared;
  shared.emplace("A", ref.at("A").copy());
  shared.emplace("B", ref.at("B").copy());
  kernels::kernel("jacobi_2d")
      .reference(ref, {{"N", n}, {"TSTEPS", tsteps}});

  World w(P);
  dist::Grid2D grid = dist::Grid2D::square(P);
  auto rank_syms = [&](int rank, int world_p) {
    (void)world_p;
    int px = grid.row_of(rank), py = grid.col_of(rank);
    sym::SymbolMap s;
    s["N"] = n;
    s["TSTEPS"] = tsteps;
    s["lNx"] = n / grid.Pr;
    s["lNy"] = n / grid.Pc;
    s["nn"] = px > 0 ? grid.rank_of(px - 1, py) : -1;
    s["ns"] = px + 1 < grid.Pr ? grid.rank_of(px + 1, py) : -1;
    s["nw"] = py > 0 ? grid.rank_of(px, py - 1) : -1;
    s["ne"] = py + 1 < grid.Pc ? grid.rank_of(px, py + 1) : -1;
    s["noff"] = px == 0 ? 1 : 0;
    s["soff"] = px + 1 == grid.Pr ? 1 : 0;
    s["woff"] = py == 0 ? 1 : 0;
    s["eoff"] = py + 1 == grid.Pc ? 1 : 0;
    return s;
  };
  auto res = dist::run_distributed_sdfg(w, *sdfg, shared, rank_syms);
  EXPECT_TRUE(rt::allclose(shared.at("A"), ref.at("A"), 1e-9, 1e-11))
      << rt::max_abs_diff(shared.at("A"), ref.at("A"));
  EXPECT_TRUE(rt::allclose(shared.at("B"), ref.at("B"), 1e-9, 1e-11));
  EXPECT_GT(res.messages, 0);
  EXPECT_GT(res.time_s, 0.0);
}

// ---------------------------------------------------------------------------
// Implicit distribution transformations (Sections 4.1-4.2)
// ---------------------------------------------------------------------------

TEST(DistTransforms, ElementwiseScatterComputeGather) {
  auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def f(x: dace.float64[N], y: dace.float64[N], out: dace.float64[N]):
    out[:] = 2.0 * x + y
)");
  xf::simplify(*sdfg);
  // Fuse into a single elementwise map first.
  while (xf::map_fusion(*sdfg)) {
  }
  xf::simplify(*sdfg);
  int applied = xf::apply_repeated(*sdfg, dist::distribute_elementwise);
  EXPECT_GE(applied, 1);
  int scatters = 0, gathers = 0;
  for (int sid : sdfg->state_ids()) {
    for (int nid : sdfg->state(sid).node_ids()) {
      if (const auto* l =
              sdfg->state(sid).node_as<const ir::LibraryNode>(nid)) {
        scatters += l->op == "comm::Scatter1D";
        gathers += l->op == "comm::Gather1D";
      }
    }
  }
  EXPECT_GE(scatters, 2);
  EXPECT_EQ(gathers, 1);

  // Execute distributed and compare.
  const int64_t n = 37;
  Bindings shared;
  shared.emplace("x", Tensor(ir::DType::f64, {n}));
  shared.emplace("y", Tensor(ir::DType::f64, {n}));
  shared.emplace("out", Tensor(ir::DType::f64, {n}));
  kernels::fill_pattern(shared.at("x"), 3);
  kernels::fill_pattern(shared.at("y"), 4);
  Tensor expect = rt::ops::add(
      rt::ops::mul(Tensor::scalar(2.0), shared.at("x")), shared.at("y"));
  World w(3);
  dist::run_distributed_sdfg(w, *sdfg, shared, [&](int, int P) {
    return sym::SymbolMap{{"N", n}, {"__P", P}};
  });
  EXPECT_TRUE(rt::allclose(shared.at("out"), expect, 1e-12, 1e-12));
}

TEST(DistTransforms, RedundantCommElimination) {
  // Two chained elementwise ops: distributing both leaves a gather
  // immediately followed by a scatter on the transient (Fig. 11); the
  // elimination removes the pair.
  auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def f(x: dace.float64[N], out: dace.float64[N]):
    t = np.zeros((N,), dtype=x.dtype)
    t[:] = x * 3.0
    out[:] = t + 1.0
)");
  // Operate on the -O0 translation: one state per operation, so the
  // per-op distributions produce the redundant gather/scatter pairs.
  int applied = xf::apply_repeated(*sdfg, dist::distribute_elementwise);
  EXPECT_GE(applied, 2);
  int removed = xf::apply_repeated(*sdfg, dist::remove_redundant_comm);
  EXPECT_GE(removed, 1);
  sdfg->validate();

  const int64_t n = 20;
  Bindings shared;
  shared.emplace("x", Tensor(ir::DType::f64, {n}));
  shared.emplace("out", Tensor(ir::DType::f64, {n}));
  kernels::fill_pattern(shared.at("x"), 5);
  World w(4);
  dist::run_distributed_sdfg(w, *sdfg, shared, [&](int, int P) {
    return sym::SymbolMap{{"N", n}, {"__P", P}};
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(shared.at("out").get_flat(i),
                shared.at("x").get_flat(i) * 3.0 + 1.0, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Chaos: seeded fault injection, timeouts, degradation, replay
// (distributed/faults.hpp).  The whole suite runs under several seeds via
// `ctest -L chaos` (DACE_FAULT_SEED), so assertions must hold for ANY
// seed, not just the default.
// ---------------------------------------------------------------------------

uint64_t chaos_seed() { return env::integer("DACE_FAULT_SEED", 42, 0); }

TEST(ChaosPlan, ParseRoundTrip) {
  dist::FaultPlan p = dist::FaultPlan::parse(
      "seed=9,drop=0.25,dup=0.1,reorder=0.05,delay=0.2,delay_s=0.001,"
      "stall_rank=1,stall_at=3,stall_s=0.5,crash_rank=2,crash_at=7");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(p.dup_prob, 0.1);
  EXPECT_DOUBLE_EQ(p.reorder_prob, 0.05);
  EXPECT_DOUBLE_EQ(p.delay_prob, 0.2);
  EXPECT_DOUBLE_EQ(p.delay_s, 0.001);
  EXPECT_EQ(p.stall_rank, 1);
  EXPECT_EQ(p.stall_at_op, 3);
  EXPECT_DOUBLE_EQ(p.stall_s, 0.5);
  EXPECT_EQ(p.crash_rank, 2);
  EXPECT_EQ(p.crash_at_op, 7);
  EXPECT_TRUE(p.active());

  dist::FaultPlan q = dist::FaultPlan::parse(p.to_string());
  EXPECT_EQ(q.to_string(), p.to_string());

  EXPECT_FALSE(dist::FaultPlan().active());
  EXPECT_THROW(dist::FaultPlan::parse("drop"), Error);
  EXPECT_THROW(dist::FaultPlan::parse("bogus=1"), Error);
  for (const char* bad : {"drop=x", "drop=1e999", "drop=-0.5", "drop=0.5x",
                          "delay=1.5", "seed=-1", "stall_at=2.5"})
    EXPECT_THROW(dist::FaultPlan::parse(bad), Error) << bad;
}

TEST(ChaosPlan, DecisionsAreDeterministicInSeed) {
  dist::FaultPlan p;
  p.seed = chaos_seed();
  p.drop_prob = 0.3;
  p.dup_prob = 0.2;
  // Same coordinates, same verdict -- and across the channel the verdicts
  // are not all identical (the draw actually depends on the coordinates).
  bool saw_fault = false, saw_none = false;
  for (uint64_t seq = 0; seq < 200; ++seq) {
    dist::FaultKind a = p.decide_message(0, 1, 5, seq, 0);
    dist::FaultKind b = p.decide_message(0, 1, 5, seq, 0);
    EXPECT_EQ(a, b);
    (a == dist::FaultKind::None ? saw_none : saw_fault) = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_none);
}

TEST(ChaosDrop, JacobiRetriesStayBitIdentical) {
  // ~1300 halo messages at 1% drop: retransmissions are all but certain
  // for any seed, results must not change by a single bit, and the
  // backoff must show up in the modeled time (the Fig. 12 penalty).
  sym::SymbolMap sizes{{"N", 400}, {"TSTEPS", 160}};
  const kernels::Kernel& k = kernels::kernel("jacobi_1d");

  World clean(4);
  Bindings clean_out;
  dist::DistResult clean_res =
      dist::run_dist_kernel("jacobi_1d", clean, sizes, dist::NodeModel(),
                            &clean_out);
  ASSERT_EQ(clean.total_retries(), 0);
  ASSERT_TRUE(clean.fault_events().empty());

  World chaos(4);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.drop_prob = 0.01;
  chaos.set_fault_plan(plan);
  Bindings chaos_out;
  dist::DistResult chaos_res =
      dist::run_dist_kernel("jacobi_1d", chaos, sizes, dist::NodeModel(),
                            &chaos_out);

  EXPECT_GT(chaos.total_retries(), 0);
  for (const auto& o : k.outputs) {
    EXPECT_TRUE(rt::allclose(chaos_out.at(o), clean_out.at(o), 0, 0))
        << "output '" << o << "' not bit-identical under drops";
  }
  EXPECT_GT(chaos_res.time_s, clean_res.time_s)
      << "retry backoff must be charged to the virtual clock";
  // Every retransmission stems from a recorded drop.
  int64_t drops = 0;
  for (const auto& e : chaos.fault_events()) {
    if (e.kind == dist::FaultKind::Drop) ++drops;
  }
  EXPECT_GE(drops, chaos.total_retries());
}

TEST(ChaosDrop, GemmRingSurvivesDrops) {
  const kernels::Kernel& k = kernels::kernel("gemm");
  const sym::SymbolMap& sizes = k.presets.at("test");

  World clean(4);
  Bindings clean_out;
  dist::run_dist_kernel("gemm", clean, sizes, dist::NodeModel(), &clean_out);

  World chaos(4);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.drop_prob = 0.05;
  chaos.set_fault_plan(plan);
  Bindings chaos_out;
  dist::run_dist_kernel("gemm", chaos, sizes, dist::NodeModel(), &chaos_out);

  for (const auto& o : k.outputs) {
    EXPECT_TRUE(rt::allclose(chaos_out.at(o), clean_out.at(o), 0, 0))
        << "output '" << o << "' not bit-identical under drops";
  }
}

TEST(ChaosDupReorder, NoCorruptionOnStencil) {
  // Duplicated, reordered and delayed halo messages must be absorbed by
  // the sequence-numbered channels without corrupting the stencil.
  const kernels::Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");

  World clean(4);
  Bindings clean_out;
  dist::run_dist_kernel("jacobi_2d", clean, sizes, dist::NodeModel(),
                        &clean_out);

  World chaos(4);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.dup_prob = 0.2;
  plan.reorder_prob = 0.2;
  plan.delay_prob = 0.2;
  chaos.set_fault_plan(plan);
  Bindings chaos_out;
  dist::run_dist_kernel("jacobi_2d", chaos, sizes, dist::NodeModel(),
                        &chaos_out);

  EXPECT_FALSE(chaos.fault_events().empty());
  EXPECT_EQ(chaos.total_retries(), 0);  // nothing was dropped
  for (const auto& o : k.outputs) {
    EXPECT_TRUE(rt::allclose(chaos_out.at(o), clean_out.at(o), 0, 0))
        << "output '" << o << "' corrupted by duplicate/reorder/delay";
  }
}

TEST(ChaosStall, TimeoutNamesStalledPeer) {
  // Rank 1 goes silent before its first send; rank 0's recv deadline
  // turns the would-be hang into a CommTimeout naming rank, peer and tag.
  World w(2);
  dist::CommConfig cfg;
  cfg.timeout_s = 0.05;
  w.set_comm_config(cfg);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.stall_rank = 1;
  plan.stall_at_op = 0;
  plan.stall_s = 0.5;
  w.set_fault_plan(plan);

  try {
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        double buf[4];
        c.recv(buf, 4, 1, 3);
      } else {
        double data[4] = {1, 2, 3, 4};
        c.send(data, 4, 0, 3);
      }
    });
    FAIL() << "expected DistError";
  } catch (const dist::DistError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peer 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 3"), std::string::npos) << msg;
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].rank, 0);
  }
  std::vector<int> failed = w.failed_ranks();
  EXPECT_NE(std::find(failed.begin(), failed.end(), 0), failed.end());
  // The stall itself is in the fault log.
  bool stalled = false;
  for (const auto& e : w.fault_events()) {
    if (e.kind == dist::FaultKind::Stall && e.rank == 1) stalled = true;
  }
  EXPECT_TRUE(stalled);
}

TEST(ChaosCrash, TolerantAllreduceReformsOverSurvivors) {
  // Rank 2 crashes before contributing; allreduce is algebraically
  // tolerant, so the survivors' sum completes over {0, 1, 3}.
  const int P = 4;
  World w(P);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.crash_rank = 2;
  plan.crash_at_op = 0;
  w.set_fault_plan(plan);

  std::vector<double> sums(P, 0.0);
  try {
    w.run([&](Comm& c) {
      double v = 1.0 + c.rank();
      c.allreduce_sum(&v, 1);
      sums[(size_t)c.rank()] = v;
    });
    FAIL() << "expected DistError";
  } catch (const dist::DistError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("injected crash on rank 2"), std::string::npos) << msg;
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].rank, 2);
  }
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{2});
  for (int r : {0, 1, 3}) {
    EXPECT_DOUBLE_EQ(sums[(size_t)r], 1.0 + 2.0 + 4.0)
        << "rank " << r << " did not re-form over the survivors";
  }
}

TEST(ChaosCrash, IntolerantBcastFailsFast) {
  // The bcast root crashes before publishing: the survivors cannot get
  // complete data, so they must fail fast with a PeerFailed diagnosis
  // instead of hanging or broadcasting garbage.
  const int P = 4;
  World w(P);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.crash_rank = 0;
  plan.crash_at_op = 0;
  w.set_fault_plan(plan);

  try {
    w.run([](Comm& c) {
      double buf[4] = {0, 0, 0, 0};
      if (c.rank() == 0) {
        for (int i = 0; i < 4; ++i) buf[i] = 10.0 + i;
      }
      c.bcast(buf, 4, 0);
    });
    FAIL() << "expected DistError";
  } catch (const dist::DistError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("injected crash on rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot complete"), std::string::npos) << msg;
    EXPECT_EQ(e.failures().size(), (size_t)P)
        << "all survivors must diagnose the dead root";
  }
}

TEST(ChaosCrash, PointToPointDetectsDeadPeer) {
  // A recv posted to a crashed rank reports PeerFailed instead of waiting
  // out the full timeout.
  World w(2);
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.crash_rank = 1;
  plan.crash_at_op = 0;
  w.set_fault_plan(plan);

  try {
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        double buf[2];
        c.recv(buf, 2, 1, 9);
      } else {
        double data[2] = {1, 2};
        c.send(data, 2, 0, 9);
      }
    });
    FAIL() << "expected DistError";
  } catch (const dist::DistError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("peer 1 has failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 9"), std::string::npos) << msg;
  }
}

TEST(ChaosReplay, SameSeedSameFaults) {
  // The whole point of the seeded plan: a chaos run is reproducible.
  sym::SymbolMap sizes{{"N", 200}, {"TSTEPS", 40}};
  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.drop_prob = 0.02;
  plan.dup_prob = 0.05;

  auto run_once = [&] {
    World w(4);
    w.set_fault_plan(plan);
    dist::run_dist_kernel("jacobi_1d", w, sizes, dist::NodeModel(), nullptr);
    std::vector<std::string> ev;
    for (const auto& e : w.fault_events()) ev.push_back(e.to_string());
    // Injection interleaving across rank threads is nondeterministic;
    // the per-channel decisions are not.
    std::sort(ev.begin(), ev.end());
    return ev;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ChaosTrace, RecordsMessageSchedule) {
  World w(2);
  w.enable_trace("");  // in-memory
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      double d[3] = {1, 2, 3};
      c.send(d, 3, 1, 7);
    } else {
      double b[3];
      c.recv(b, 3, 0, 7);
    }
    c.barrier();
  });
  const auto& lines = w.trace_lines();
  // Header + send + recv + one barrier line per rank.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("# dacepp-comm-trace v1", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("nranks=2"), std::string::npos);
  int sends = 0, recvs = 0, colls = 0;
  std::string send_line;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("send ", 0) == 0) ++sends, send_line = lines[i];
    if (lines[i].rfind("recv ", 0) == 0) ++recvs;
    if (lines[i].rfind("coll ", 0) == 0) ++colls;
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
  EXPECT_EQ(colls, 2);
  // send <rank> <peer> <tag> <count> <block> <stride>; Comm::send maps to
  // one block of n contiguous elements.
  EXPECT_EQ(send_line, "send 0 1 7 1 3 3") << send_line;
}

TEST(ChaosExecutor, LocalViewHaloSurvivesDropsAndReportsRetries) {
  // The SDFG-level entry point plumbs the fault plan through to the
  // explicit local-view halo exchange (real Isend/Waitall traffic) and
  // surfaces retry/fault counts in its result (Fig. 12-style sweeps).
  const int64_t n = 16, tsteps = 4;
  const int P = 4;
  auto sdfg = fe::compile_to_sdfg(kJacobiDistSrc, "j2d_dist");
  dist::Grid2D grid = dist::Grid2D::square(P);
  auto rank_syms = [&](int rank, int world_p) {
    (void)world_p;
    int px = grid.row_of(rank), py = grid.col_of(rank);
    sym::SymbolMap s;
    s["N"] = n;
    s["TSTEPS"] = tsteps;
    s["lNx"] = n / grid.Pr;
    s["lNy"] = n / grid.Pc;
    s["nn"] = px > 0 ? grid.rank_of(px - 1, py) : -1;
    s["ns"] = px + 1 < grid.Pr ? grid.rank_of(px + 1, py) : -1;
    s["nw"] = py > 0 ? grid.rank_of(px, py - 1) : -1;
    s["ne"] = py + 1 < grid.Pc ? grid.rank_of(px, py + 1) : -1;
    s["noff"] = px == 0 ? 1 : 0;
    s["soff"] = px + 1 == grid.Pr ? 1 : 0;
    s["woff"] = py == 0 ? 1 : 0;
    s["eoff"] = py + 1 == grid.Pc ? 1 : 0;
    return s;
  };
  auto make_inputs = [&] {
    Bindings b;
    b.emplace("A", Tensor(ir::DType::f64, {n, n}));
    b.emplace("B", Tensor(ir::DType::f64, {n, n}));
    kernels::fill_pattern(b.at("A"), 1);
    kernels::fill_pattern(b.at("B"), 2);
    return b;
  };

  Bindings clean_b = make_inputs();
  World clean(P);
  dist::DistRunResult clean_res =
      dist::run_distributed_sdfg(clean, *sdfg, clean_b, rank_syms);
  EXPECT_EQ(clean_res.retries, 0);
  EXPECT_EQ(clean_res.faults, 0);

  dist::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.drop_prob = 0.15;
  Bindings chaos_b = make_inputs();
  World chaos(P);
  dist::CommConfig cfg;
  cfg.max_retries = 8;  // 15% loss per hop: keep permanent loss negligible
  chaos.set_comm_config(cfg);
  dist::DistRunResult chaos_res =
      dist::run_distributed_sdfg(chaos, *sdfg, chaos_b, rank_syms,
                                 dist::NodeModel(), &plan);

  EXPECT_GT(chaos_res.faults, 0);
  EXPECT_GT(chaos_res.retries, 0);
  EXPECT_GT(chaos_res.time_s, clean_res.time_s);
  EXPECT_TRUE(rt::allclose(chaos_b.at("A"), clean_b.at("A"), 0, 0));
  EXPECT_TRUE(rt::allclose(chaos_b.at("B"), clean_b.at("B"), 0, 0));
}

}  // namespace
}  // namespace dace
