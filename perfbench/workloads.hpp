// The benchmark's workloads.  Each drives the library only through its
// public entry points and records what it measured into an Outcome; the
// metric names are those of report.hpp's catalogs.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Steady-state runs of the kernel suite against the C++ references.
void run_kernels(const Options& o, Outcome& out);
/// Source text to first result for programs never compiled before.
void run_compile(const Options& o, Outcome& out);
/// sdfg-serve requests for programs the daemon has not seen.
void run_serve(const Options& o, Outcome& out);

}  // namespace perfbench
