// Numerical interpreter for fused SpaceFusion schedules.
//
// Executes the temporal intra-block loop exactly as the generated kernel
// would (paper Fig. 7): per intra-block, operators compute on slices of the
// temporal dim; running reductions aggregate with Simple Aggregate or
// Update-then-Aggregate (applying the generated update functions to the old
// running values before combining); downstream operators always consume the
// freshest running values. After the final intra-block the outputs are the
// exact fused results — this is how the repository *proves* that UTA (e.g.
// online softmax in MHA) is numerically equivalent to the reference.
//
// Spatial slicing is not materialized here: spatially sliced dims carry no
// non-input directional mappings by construction (Sec. 4.2), so per-block
// results are bit-identical to computing all blocks at once. The interpreter
// therefore executes the whole spatial extent and slices only the temporal
// dim, which exercises every aggregation/update path.
#ifndef SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_
#define SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_

#include <functional>

#include "src/exec/reference_executor.h"
#include "src/schedule/schedule_ir.h"
#include "src/support/status.h"

namespace spacefusion {

// Executes one fused kernel's schedule over `env` (inputs must be defined;
// outputs/intermediates are written).
Status RunSchedule(const SmgSchedule& schedule, TensorEnv* env);

// One fused kernel's execution over its own env (RunSchedule, or a native
// backend's kernel step).
using KernelStep = std::function<Status(const SmgSchedule&, TensorEnv*)>;

// The program walker every backend shares. Checks `original_inputs` against
// `original` (InvalidArgument naming the tensor when the env is the wrong
// size, or an input or weight is undefined or wrongly shaped; undefined
// constants are splatted), then runs `program.kernels` in sequence through
// `step`, handing cut tensors from one kernel's outputs to the next kernel's
// inputs by name, and fills the graph outputs of *final_outputs. The whole
// walk is one `span_name` trace span.
Status RunProgramKernels(const char* span_name, const ScheduledProgram& program,
                         const Graph& original, const TensorEnv& original_inputs,
                         const KernelStep& step, TensorEnv* final_outputs);

// Executes a partitioned program through the interpreter: RunProgramKernels
// with RunSchedule as the step.
Status RunScheduledProgram(const ScheduledProgram& program, const Graph& original,
                           const TensorEnv& original_inputs, TensorEnv* final_outputs);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_
