#include "sql/batch_kernels.h"

#include <functional>
#include <string_view>

namespace sqlink {

void FilterToSelection(const Column& pred, size_t num_rows,
                       std::vector<int32_t>* sel) {
  sel->clear();
  if (pred.type != DataType::kBool) return;
  for (size_t i = 0; i < num_rows; ++i) {
    if (pred.bools[i] != 0 && !pred.IsNull(i)) {
      sel->push_back(static_cast<int32_t>(i));
    }
  }
}

namespace {

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

inline uint64_t Mix(uint64_t h, uint64_t v) {
  // boost::hash_combine-style mixing keeps per-column order significant.
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

uint64_t ColumnCellHash(const Column& c, size_t row) {
  if (c.IsNull(row)) return kNullHash;
  switch (c.type) {
    case DataType::kBool:
      return c.bools[row] != 0 ? 1 : 0;
    case DataType::kInt64:
      return std::hash<int64_t>{}(c.ints[row]);
    case DataType::kDouble: {
      const double d = c.doubles[row];
      // +0.0 and -0.0 compare equal, so they must hash equal.
      return d == 0.0 ? 0 : std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string_view>{}(c.dict[c.codes[row]]);
  }
  return 0;
}

}  // namespace

void HashColumns(const std::vector<const Column*>& columns, size_t n,
                 std::vector<uint64_t>* hashes) {
  hashes->assign(n, 0);
  uint64_t* h = hashes->data();
  for (const Column* col : columns) {
    if (col->has_nulls() || col->type == DataType::kString) {
      for (size_t r = 0; r < n; ++r) h[r] = Mix(h[r], ColumnCellHash(*col, r));
      continue;
    }
    // Null-free fixed-width columns: the same hashes, without the per-row
    // null test and type dispatch.
    switch (col->type) {
      case DataType::kBool:
        for (size_t r = 0; r < n; ++r) h[r] = Mix(h[r], col->bools[r] != 0);
        break;
      case DataType::kInt64:
        for (size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r], std::hash<int64_t>{}(col->ints[r]));
        }
        break;
      case DataType::kDouble:
        for (size_t r = 0; r < n; ++r) {
          const double d = col->doubles[r];
          h[r] = Mix(h[r], d == 0.0 ? 0 : std::hash<double>{}(d));
        }
        break;
      case DataType::kString:
        break;
    }
  }
}

bool CellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  const bool na = a.IsNull(ra);
  const bool nb = b.IsNull(rb);
  if (na || nb) return na && nb;
  if (a.type != b.type) return false;
  switch (a.type) {
    case DataType::kBool:
      return (a.bools[ra] != 0) == (b.bools[rb] != 0);
    case DataType::kInt64:
      return a.ints[ra] == b.ints[rb];
    case DataType::kDouble:
      return a.doubles[ra] == b.doubles[rb];
    case DataType::kString:
      return a.dict[a.codes[ra]] == b.dict[b.codes[rb]];
  }
  return false;
}

namespace {

template <typename T>
int ThreeWay(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

}  // namespace

int CompareCells(const Column& a, size_t ra, const Column& b, size_t rb) {
  const bool na = a.IsNull(ra);
  const bool nb = b.IsNull(rb);
  if (na || nb) return na ? (nb ? 0 : -1) : 1;
  if (a.type != b.type) {
    auto numeric = [](DataType t) {
      return t == DataType::kInt64 || t == DataType::kDouble;
    };
    if (!numeric(a.type) || !numeric(b.type)) {
      return ThreeWay(static_cast<int>(a.type), static_cast<int>(b.type));
    }
    const double x = a.type == DataType::kInt64
                         ? static_cast<double>(a.ints[ra])
                         : a.doubles[ra];
    const double y = b.type == DataType::kInt64
                         ? static_cast<double>(b.ints[rb])
                         : b.doubles[rb];
    return ThreeWay(x, y);
  }
  switch (a.type) {
    case DataType::kBool:
      return ThreeWay(a.bools[ra] != 0, b.bools[rb] != 0);
    case DataType::kInt64:
      return ThreeWay(a.ints[ra], b.ints[rb]);
    case DataType::kDouble:
      return ThreeWay(a.doubles[ra], b.doubles[rb]);
    case DataType::kString:
      return ThreeWay(a.dict[a.codes[ra]], b.dict[b.codes[rb]]);
  }
  return 0;
}

}  // namespace sqlink
