#include "exttool/external_transform.h"

#include <functional>
#include <optional>
#include <set>

#include "common/status_macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/text_input_format.h"
#include "table/csv.h"

namespace sqlink {

namespace {

/// Feeds every row of a text split to `visit`, one parsed batch at a time.
Status ForEachRow(ml::RecordReader* reader,
                  const std::function<Status(Row&)>& visit) {
  ColumnBatch batch;
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, reader->NextBatch(&batch));
    if (!has) return Status::OK();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      batch.EmitRow(r, &row);
      RETURN_IF_ERROR(visit(row));
    }
  }
}

}  // namespace

Result<ExternalTransformTool::Result_> ExternalTransformTool::Run(
    const std::string& input_path, SchemaPtr input_schema,
    const std::vector<std::string>& recode_columns,
    const std::map<std::string, CodingScheme>& codings,
    const std::string& output_path) {
  // Resolve columns.
  std::vector<int> recode_indices;
  for (const std::string& column : recode_columns) {
    ASSIGN_OR_RETURN(int index, input_schema->RequireField(column));
    if (input_schema->field(index).type != DataType::kString) {
      return Status::InvalidArgument("recode column is not categorical: " +
                                     column);
    }
    recode_indices.push_back(index);
  }
  for (const auto& [column, scheme] : codings) {
    (void)scheme;
    bool recoded = false;
    for (const std::string& name : recode_columns) {
      recoded = recoded || EqualsIgnoreCase(name, column);
    }
    if (!recoded) {
      return Status::InvalidArgument("coded column must be recoded: " + column);
    }
  }

  ml::JobContext context;
  context.cluster = cluster_;
  ml::TextFileInputFormat format(dfs_, input_path, input_schema);
  ASSIGN_OR_RETURN(std::vector<ml::InputSplitPtr> splits,
                   format.GetSplits(context));
  const size_t m = splits.size();

  // --- Pass 1: global distinct values per recoded column. ---
  std::vector<std::vector<std::set<std::string>>> local(m);
  std::vector<Status> statuses(m);
  ParallelFor(m, [&](size_t i) {
    auto run = [&]() -> Status {
      local[i].resize(recode_indices.size());
      ASSIGN_OR_RETURN(std::unique_ptr<ml::RecordReader> reader,
                       format.CreateReader(context, *splits[i],
                                           static_cast<int>(i)));
      return ForEachRow(reader.get(), [&](Row& row) {
        for (size_t c = 0; c < recode_indices.size(); ++c) {
          const Value& v = row[static_cast<size_t>(recode_indices[c])];
          if (!v.is_null()) local[i][c].insert(v.string_value());
        }
        return Status::OK();
      });
    };
    statuses[i] = run();
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);

  RecodeMap map;
  for (size_t c = 0; c < recode_indices.size(); ++c) {
    std::set<std::string> merged;
    for (size_t i = 0; i < m; ++i) {
      merged.insert(local[i][c].begin(), local[i][c].end());
    }
    const std::string& column =
        input_schema->field(recode_indices[c]).name;
    int code = 0;
    for (const std::string& value : merged) {
      RETURN_IF_ERROR(map.Add(column, value, ++code));
    }
  }

  // Output schema: recoded columns become INT64; coded columns expand.
  std::vector<Field> out_fields;
  struct ColumnPlan {
    bool recode = false;
    std::optional<CodingScheme> scheme;
    std::vector<std::vector<double>> matrix;
  };
  std::vector<ColumnPlan> plans(static_cast<size_t>(input_schema->num_fields()));
  for (int i = 0; i < input_schema->num_fields(); ++i) {
    const Field& field = input_schema->field(i);
    ColumnPlan& plan = plans[static_cast<size_t>(i)];
    for (const std::string& column : recode_columns) {
      if (EqualsIgnoreCase(column, field.name)) plan.recode = true;
    }
    std::optional<CodingScheme> scheme;
    for (const auto& [column, s] : codings) {
      if (EqualsIgnoreCase(column, field.name)) scheme = s;
    }
    if (!plan.recode) {
      out_fields.push_back(field);
      continue;
    }
    if (!scheme.has_value()) {
      out_fields.push_back(Field{field.name, DataType::kInt64});
      continue;
    }
    plan.scheme = scheme;
    ASSIGN_OR_RETURN(std::vector<std::string> labels, map.Labels(field.name));
    ASSIGN_OR_RETURN(plan.matrix,
                     CodingMatrix(*scheme, static_cast<int>(labels.size())));
    CodedColumnSpec spec{field.name, static_cast<int>(labels.size()), labels};
    const DataType generated = *scheme == CodingScheme::kOrthogonal
                                   ? DataType::kDouble
                                   : DataType::kInt64;
    for (const std::string& name : CodedColumnNames(spec, *scheme)) {
      out_fields.push_back(Field{name, generated});
    }
  }
  SchemaPtr output_schema = Schema::Make(std::move(out_fields));

  // --- Pass 2: apply and write part files back to DFS. ---
  std::vector<uint64_t> row_counts(m, 0);
  ParallelFor(m, [&](size_t i) {
    auto run = [&]() -> Status {
      ASSIGN_OR_RETURN(std::unique_ptr<ml::RecordReader> reader,
                       format.CreateReader(context, *splits[i],
                                           static_cast<int>(i)));
      // Place the first replica on the worker's node, like an MR reducer.
      const int node =
          cluster_ != nullptr
              ? static_cast<int>(i) % cluster_->num_nodes()
              : -1;
      ASSIGN_OR_RETURN(
          std::unique_ptr<DfsWriter> writer,
          dfs_->Create(output_path + "/part-" + std::to_string(i), node));
      CsvCodec codec;
      std::string buffer;
      RETURN_IF_ERROR(ForEachRow(reader.get(), [&](Row& row) -> Status {
        Row out;
        for (size_t col = 0; col < row.size(); ++col) {
          const ColumnPlan& plan = plans[col];
          if (!plan.recode) {
            out.push_back(std::move(row[col]));
            continue;
          }
          if (row[col].is_null()) {
            return Status::InvalidArgument("NULL categorical value");
          }
          ASSIGN_OR_RETURN(
              int code, map.Code(input_schema->field(static_cast<int>(col)).name,
                                 row[col].string_value()));
          if (!plan.scheme.has_value()) {
            out.push_back(Value::Int64(code));
            continue;
          }
          for (double v : plan.matrix[static_cast<size_t>(code - 1)]) {
            out.push_back(*plan.scheme == CodingScheme::kOrthogonal
                              ? Value::Double(v)
                              : Value::Int64(static_cast<int64_t>(v)));
          }
        }
        codec.AppendRow(out, &buffer);
        ++row_counts[i];
        if (buffer.size() >= 1 << 20) {
          RETURN_IF_ERROR(writer->Append(buffer));
          buffer.clear();
        }
        return Status::OK();
      }));
      if (!buffer.empty()) RETURN_IF_ERROR(writer->Append(buffer));
      return writer->Close();
    };
    statuses[i] = run();
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);

  Result_ result;
  result.recode_map = std::move(map);
  result.output_schema = std::move(output_schema);
  result.output_path = output_path;
  for (uint64_t count : row_counts) result.rows += count;
  return result;
}

}  // namespace sqlink
