#ifndef SQLINK_SQL_BATCH_KERNELS_H_
#define SQLINK_SQL_BATCH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "table/column_batch.h"

namespace sqlink {

/// Builds a selection vector from an evaluated predicate column: the indices
/// of rows whose value is boolean TRUE, in row order. SQL filter semantics —
/// NULL and FALSE drop the row; a non-bool predicate column selects nothing
/// (IsTruthy treats non-bool values as false).
void FilterToSelection(const Column& pred, size_t num_rows,
                       std::vector<int32_t>* sel);

/// Hashes rows [0, n) over `columns` (each holding at least n rows) into
/// `*hashes` (resized to n), column at a time. Rows whose cells are
/// pairwise CellsEqual hash equal, even across columns with different
/// dictionaries (strings hash by content, NULLs by a fixed constant, +/-0.0
/// alike). Internally consistent only — not comparable with Value::Hash.
void HashColumns(const std::vector<const Column*>& columns, size_t n,
                 std::vector<uint64_t>* hashes);

/// Typed equality of two cells: NULL equals NULL, strings compare by
/// content, cells of different types are unequal (as boxed Value ==).
bool CellsEqual(const Column& a, size_t ra, const Column& b, size_t rb);

/// Three-way compare of two cells in Value's total order: NULL first, int64
/// and double numerically across types, other type pairs by type, then by
/// value.
int CompareCells(const Column& a, size_t ra, const Column& b, size_t rb);

}  // namespace sqlink

#endif  // SQLINK_SQL_BATCH_KERNELS_H_
