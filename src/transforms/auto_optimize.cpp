#include "transforms/auto_optimize.hpp"

#include "transforms/loop_to_map.hpp"
#include "transforms/map_fusion.hpp"
#include "transforms/map_transforms.hpp"
#include "transforms/memory.hpp"
#include "transforms/pass.hpp"
#include "transforms/simplify.hpp"

namespace dace::xf {

// Registered by the device modules (gpu/fpga); CPU needs no extra pass.
// Each returns true if it changed the graph.
bool gpu_transform_sdfg(ir::SDFG& sdfg);   // gpu_transform.cpp
bool fpga_transform_sdfg(ir::SDFG& sdfg);  // fpga_transform.cpp

void auto_optimize(ir::SDFG& sdfg, ir::DeviceType device,
                   const AutoOptOptions& opts) {
  Pipeline pipe("auto_optimize");
  if (opts.verify.has_value()) pipe.set_verify(*opts.verify);

  // Dataflow coarsening ("-O1").
  pipe.add("coarsen", simplify);

  // (1)+(2) Map-scope cleanup and greedy subgraph fusion. LoopToMap needs
  // fused single-map loop bodies; fusion needs the states LoopToMap and
  // state fusion produce -- iterate the passes jointly to fixpoint.
  pipe.add_fixpoint("trivial-map-elimination", trivial_map_elimination);
  // Captures are by value: with a pass timeout the body runs on a worker
  // thread that may outlive this frame if abandoned.
  pipe.add("fusion+loop-to-map", [fusion = opts.fusion](ir::SDFG& g) {
    bool any = false;
    bool changed = true;
    while (changed) {
      changed = false;
      if (fusion) changed |= apply_repeated(g, map_fusion) > 0;
      if (changed) simplify(g);
      bool converted = apply_repeated(g, loop_to_map) > 0;
      changed |= converted;
      if (converted) simplify(g);
      any |= changed;
    }
    return any;
  });
  pipe.add_fixpoint("map-collapse", map_collapse);

  // (3) Tile WCR maps to reduce atomic updates.
  if (opts.tile_wcr) {
    pipe.add("wcr-tiling", [device](ir::SDFG& g) {
      // Schedules must be known before tiling decides atomicity; set the
      // target schedule first.
      ir::Schedule sched = ir::Schedule::CPUParallel;
      if (device == ir::DeviceType::GPU) sched = ir::Schedule::GPUDevice;
      if (device == ir::DeviceType::FPGA) sched = ir::Schedule::FPGAPipeline;
      bool changed =
          set_toplevel_schedules(g, sched, device == ir::DeviceType::CPU);
      // On the CPU a launch splits the first map parameter across
      // workers: move reductions innermost so chunks write disjoint
      // elements.  GPU and FPGA maps keep their order.
      if (device == ir::DeviceType::CPU) changed |= interchange_wcr_maps(g);
      changed |=
          apply_repeated(g, [](ir::SDFG& gg) { return tile_wcr_map(gg); }) > 0;
      return changed;
    });
  }

  // (4) Transient allocation mitigation.
  if (opts.transient_mitigation) {
    pipe.add("transient-mitigation", [](ir::SDFG& g) {
      return mitigate_transient_allocation(g);
    });
  }

  // Injected passes (tests, fuzzer fault injection).
  for (const Pass& p : opts.extra_passes) pipe.add(p.name, p.apply);

  // Device specialization.
  pipe.add("device-specialize", [device](ir::SDFG& g) {
    bool changed = false;
    switch (device) {
      case ir::DeviceType::CPU:
        changed = set_toplevel_schedules(g, ir::Schedule::CPUParallel,
                                         /*omp_collapse=*/true);
        break;
      case ir::DeviceType::GPU:
        changed = set_toplevel_schedules(g, ir::Schedule::GPUDevice, false);
        changed |= gpu_transform_sdfg(g);
        break;
      case ir::DeviceType::FPGA:
        changed = set_toplevel_schedules(g, ir::Schedule::FPGAPipeline, false);
        changed |= fpga_transform_sdfg(g);
        break;
    }
    return changed;
  });

  PassReport report = pipe.run_transactional(sdfg);

  if (opts.report) *opts.report = std::move(report);
  sdfg.validate();
}

}  // namespace dace::xf
