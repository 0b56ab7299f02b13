// Enumerations shared across the SDFG IR.
#pragma once

#include <string>

#include "common/common.hpp"

namespace dace::ir {

/// Element types of data containers (NumPy-compatible, Section 2 of the
/// paper). All arithmetic is performed in double precision internally;
/// narrower types round on store.
enum class DType { f32, f64, i32, i64, b8 };

inline bool dtype_is_integer(DType t) {
  return t == DType::i32 || t == DType::i64 || t == DType::b8;
}

inline const char* dtype_name(DType t) {
  switch (t) {
    case DType::f32: return "float32";
    case DType::f64: return "float64";
    case DType::i32: return "int32";
    case DType::i64: return "int64";
    case DType::b8: return "bool";
  }
  return "?";
}

/// Where a data container lives.
enum class Storage {
  Default,      // host heap
  Register,     // scalar register / stack variable
  CPUStack,     // small fixed-size array on the stack
  CPUHeap,      // host heap (explicit)
  GPUGlobal,    // device global memory (simulated)
  GPUShared,    // device shared memory (simulated)
  FPGAGlobal,   // device DRAM (simulated)
  FPGALocal,    // on-chip memory (simulated)
};

inline const char* storage_name(Storage s) {
  switch (s) {
    case Storage::Default: return "Default";
    case Storage::Register: return "Register";
    case Storage::CPUStack: return "CPU_Stack";
    case Storage::CPUHeap: return "CPU_Heap";
    case Storage::GPUGlobal: return "GPU_Global";
    case Storage::GPUShared: return "GPU_Shared";
    case Storage::FPGAGlobal: return "FPGA_Global";
    case Storage::FPGALocal: return "FPGA_Local";
  }
  return "?";
}

/// Allocation lifetime of transients (Section 3.1, transient allocation
/// mitigation: persistent transients are allocated once per SDFG).
enum class Lifetime { Scope, Persistent };

/// Execution schedule of a map scope.
enum class Schedule {
  Sequential,    // plain loop nest
  CPUParallel,   // OpenMP-style parallel for over the outer dimension
  GPUDevice,     // kernel launch over a grid (simulated GPU)
  FPGAPipeline,  // pipelined loop on the simulated FPGA fabric
};

inline const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::Sequential: return "Sequential";
    case Schedule::CPUParallel: return "CPU_Multicore";
    case Schedule::GPUDevice: return "GPU_Device";
    case Schedule::FPGAPipeline: return "FPGA_Pipeline";
  }
  return "?";
}

/// Write-conflict resolution operators on memlets (Section 2.3).
enum class WCR { None, Sum, Prod, Min, Max };

inline const char* wcr_name(WCR w) {
  switch (w) {
    case WCR::None: return "none";
    case WCR::Sum: return "sum";
    case WCR::Prod: return "prod";
    case WCR::Min: return "min";
    case WCR::Max: return "max";
  }
  return "?";
}

/// Per-node instrumentation (the paper's InstrumentationType attribute):
/// how the runtime measures this map/tasklet/state/library node.
///   Off     -- not instrumented (a process-wide default can still apply,
///              see DACE_INSTRUMENT in docs/OBSERVABILITY.md)
///   Timer   -- wall-clock span per execution (self/total time)
///   Counter -- iteration counter track instead of spans
enum class Instrument { Off, Timer, Counter };

/// Device targets of the auto-optimizer (Section 3.1).
enum class DeviceType { CPU, GPU, FPGA };

inline const char* device_name(DeviceType d) {
  switch (d) {
    case DeviceType::CPU: return "CPU";
    case DeviceType::GPU: return "GPU";
    case DeviceType::FPGA: return "FPGA";
  }
  return "?";
}

}  // namespace dace::ir
