#include "ml/dataset.h"

#include "common/status_macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sqlink::ml {

namespace {

/// The cell as a double; NULLs and strings are 0.
double NumericAt(const Column& col, size_t row) {
  if (col.IsNull(row)) return 0.0;
  switch (col.type) {
    case DataType::kBool:
      return col.bools[row] != 0 ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(col.ints[row]);
    case DataType::kDouble:
      return col.doubles[row];
    case DataType::kString:
      return 0.0;
  }
  return 0.0;
}

/// Validates the label/feature selection against `schema` and resolves the
/// feature indices.
Result<std::vector<int>> ResolveFeatures(
    const SchemaPtr& schema, const std::vector<std::string>& feature_columns) {
  std::vector<int> feature_indices;
  feature_indices.reserve(feature_columns.size());
  for (const std::string& name : feature_columns) {
    ASSIGN_OR_RETURN(int index, schema->RequireField(name));
    const DataType type = schema->field(index).type;
    if (type == DataType::kString) {
      return Status::InvalidArgument(
          "feature column '" + name +
          "' is categorical (STRING); recode it first (see In-SQL "
          "transformations)");
    }
    feature_indices.push_back(index);
  }
  return feature_indices;
}

std::vector<std::string> AutoFeatures(const SchemaPtr& schema,
                                      const std::string& label_column) {
  std::vector<std::string> features;
  for (const Field& field : schema->fields()) {
    if (!EqualsIgnoreCase(field.name, label_column)) {
      features.push_back(field.name);
    }
  }
  return features;
}

}  // namespace

Result<Dataset> Dataset::FromColumns(
    const ColumnDataset& columns, const std::string& label_column,
    const std::vector<std::string>& feature_columns) {
  if (columns.schema == nullptr) {
    return Status::InvalidArgument("column dataset has no schema");
  }
  ASSIGN_OR_RETURN(int label_index, columns.schema->RequireField(label_column));
  ASSIGN_OR_RETURN(std::vector<int> feature_indices,
                   ResolveFeatures(columns.schema, feature_columns));

  const size_t width = feature_indices.size();
  std::vector<std::vector<LabeledPoint>> partitions(columns.partitions.size());
  ParallelFor(columns.partitions.size(), [&](size_t p) {
    const ColumnBatch& batch = columns.partitions[p];
    const size_t rows = batch.num_rows();
    std::vector<LabeledPoint>& out = partitions[p];
    out.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      out[r].features.resize(width);
    }
    // Column-major gathers: one type dispatch per column, then a tight pass
    // over its contiguous vector.
    const Column& label = batch.column(static_cast<size_t>(label_index));
    for (size_t r = 0; r < rows; ++r) {
      out[r].label = NumericAt(label, r);
    }
    for (size_t j = 0; j < width; ++j) {
      const Column& col =
          batch.column(static_cast<size_t>(feature_indices[j]));
      switch (col.type) {
        case DataType::kBool:
          for (size_t r = 0; r < rows; ++r) {
            out[r].features[j] =
                !col.IsNull(r) && col.bools[r] != 0 ? 1.0 : 0.0;
          }
          break;
        case DataType::kInt64:
          for (size_t r = 0; r < rows; ++r) {
            out[r].features[j] =
                col.IsNull(r) ? 0.0 : static_cast<double>(col.ints[r]);
          }
          break;
        case DataType::kDouble:
          for (size_t r = 0; r < rows; ++r) {
            out[r].features[j] = col.IsNull(r) ? 0.0 : col.doubles[r];
          }
          break;
        case DataType::kString:
          break;  // Rejected by ResolveFeatures.
      }
    }
  });
  return Dataset(std::move(partitions), width);
}

Result<Dataset> Dataset::FromColumnsAutoFeatures(
    const ColumnDataset& columns, const std::string& label_column) {
  if (columns.schema == nullptr) {
    return Status::InvalidArgument("column dataset has no schema");
  }
  return FromColumns(columns, label_column,
                     AutoFeatures(columns.schema, label_column));
}

}  // namespace sqlink::ml
