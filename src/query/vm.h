// The batch VM: executes a lowered ExecProgram (query/lower.h)
// column-at-a-time over an extent or over WHEN boundaries.
//
// Execution model. A batch is up to kBatchSize rows; every virtual
// register is a column (one Value per row). The VM runs each
// instruction once per batch over the rows named by the current
// *selection vector* (an ascending list of row indices) — one opcode
// dispatch per instruction per batch instead of one tree-node visit per
// row, which is where the compiled speedup comes from. Mask
// instructions push a restricted selection (the rows whose lhs was
// truthy, etc.); the instructions inside the mask window run only over
// those rows, so data-dependent errors (integer division by zero,
// dangling references, snapshot's lazily evaluated instant argument)
// fire on exactly the rows the tree-walking evaluator would evaluate —
// per-value semantics are shared outright (the scalar kernels in
// query/evaluator.h), so the two paths cannot drift.
//
// The only intentional observable difference: when several rows of one
// statement would each produce an error, the tree-walker reports the
// first in row order interleaved with projections, while the VM reports
// the first in (instruction, row) order. WHICH rows error is identical;
// only the tie-break among multiple erroring rows can differ.
//
// RunSelect evaluates WHERE for the whole batch, compacts the selection
// to the surviving rows, and only then evaluates projections (the
// tree-walker projects per passing row — same set of evaluations).
// RunWhen evaluates the condition once per boundary (the boundaries are
// the batch rows, ascending), and walks temporal attribute histories
// *linearly* alongside them — a merge-walk, not a binary search per
// boundary.
#ifndef TCHIMERA_QUERY_VM_H_
#define TCHIMERA_QUERY_VM_H_

#include "common/result.h"
#include "core/db/database.h"
#include "core/temporal/interval_set.h"
#include "query/evaluator.h"
#include "query/lower.h"

namespace tchimera {

// Batch size bounds the per-batch column working set: every live
// register costs kVmBatchSize x sizeof(Value) bytes, and the hot loops
// stream over several columns at once. 256 keeps a recycled program's
// handful of registers (16 bytes/Value) within L1/L2 reach; measured on
// the WHEN history sweep, 256 more than halved per-row cost vs. 1024.
inline constexpr size_t kVmBatchSize = 256;

// Runs a compiled SELECT program: scans pi(class, at) in batches,
// filters with the WHERE fragment, evaluates projections over the
// survivors. Row order matches the tree-walker (extent order).
Result<std::vector<SelectRow>> RunSelect(const ExecProgram& prog,
                                         const Database& db);

// Runs a compiled WHEN program: collects the (sorted, deduplicated)
// boundaries for the program's requirements, evaluates the condition
// per boundary in batches, and returns the coalesced interval set —
// intersected with the program's `during` window when present.
Result<IntervalSet> RunWhen(const ExecProgram& prog, const Database& db);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_VM_H_
