// Umbrella header: the whole OFTEC library through one include.
//
//   #include "oftec.h"
//
// Fine-grained headers remain available (and preferable inside the library
// itself); this exists for downstream applications and quick experiments.
#pragma once

#include "core/baselines.h"        // IWYU pragma: export
#include "core/cooling_system.h"   // IWYU pragma: export
#include "core/deployment.h"       // IWYU pragma: export
#include "core/dtm_loop.h"         // IWYU pragma: export
#include "core/lut_controller.h"   // IWYU pragma: export
#include "core/multizone.h"        // IWYU pragma: export
#include "core/oftec.h"            // IWYU pragma: export
#include "core/pareto.h"           // IWYU pragma: export
#include "core/problems.h"         // IWYU pragma: export
#include "core/reactive_controllers.h"  // IWYU pragma: export
#include "core/throttle.h"         // IWYU pragma: export
#include "core/transient_boost.h"  // IWYU pragma: export
#include "floorplan/cmp.h"         // IWYU pragma: export
#include "floorplan/ev6.h"         // IWYU pragma: export
#include "floorplan/flp_io.h"      // IWYU pragma: export
#include "floorplan/grid_map.h"    // IWYU pragma: export
#include "package/config_io.h"     // IWYU pragma: export
#include "package/package_config.h"  // IWYU pragma: export
#include "power/dynamic.h"         // IWYU pragma: export
#include "power/leakage.h"         // IWYU pragma: export
#include "power/mcpat_like.h"      // IWYU pragma: export
#include "tec/array.h"             // IWYU pragma: export
#include "tec/device.h"            // IWYU pragma: export
#include "thermal/model.h"         // IWYU pragma: export
#include "thermal/solve_engine.h"  // IWYU pragma: export
#include "thermal/stack_report.h"  // IWYU pragma: export
#include "thermal/steady.h"        // IWYU pragma: export
#include "thermal/thermal_map.h"   // IWYU pragma: export
#include "thermal/transient.h"     // IWYU pragma: export
#include "thermal/transient_engine.h"  // IWYU pragma: export
#include "util/units.h"            // IWYU pragma: export
#include "workload/benchmarks.h"   // IWYU pragma: export
#include "workload/trace.h"        // IWYU pragma: export
