#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sql/catalog.h"
#include "table/column_batch.h"
#include "table/csv.h"
#include "table/pretty_print.h"
#include "table/row_codec.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace sqlink {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(7).type(), DataType::kInt64);
}

TEST(ValueTest, AsDoubleWidens) {
  EXPECT_DOUBLE_EQ(*Value::Int64(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(*Value::Double(3.5).AsDouble(), 3.5);
  EXPECT_TRUE(Value::String("x").AsDouble().status().IsInvalidArgument());
}

TEST(ValueTest, OrderingNullFirst) {
  EXPECT_TRUE(Value::Null() < Value::Int64(0));
  EXPECT_TRUE(Value::Int64(1) < Value::Int64(2));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  // Cross-numeric comparison is numeric.
  EXPECT_TRUE(Value::Int64(1) < Value::Double(1.5));
  EXPECT_TRUE(Value::Double(0.5) < Value::Int64(1));
}

TEST(ValueTest, ParseByType) {
  EXPECT_EQ(*Value::Parse("42", DataType::kInt64), Value::Int64(42));
  EXPECT_EQ(*Value::Parse("2.5", DataType::kDouble), Value::Double(2.5));
  EXPECT_EQ(*Value::Parse("hi", DataType::kString), Value::String("hi"));
  EXPECT_EQ(*Value::Parse("true", DataType::kBool), Value::Bool(true));
  EXPECT_EQ(*Value::Parse("", DataType::kInt64), Value::Null());
  EXPECT_TRUE(Value::Parse("xyz", DataType::kInt64).status().IsParseError());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Int64(5).Hash());
}

TEST(DataTypeTest, NamesRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                     DataType::kString}) {
    auto parsed = DataTypeFromString(DataTypeToString(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_EQ(*DataTypeFromString("varchar"), DataType::kString);
  EXPECT_EQ(*DataTypeFromString("bigint"), DataType::kInt64);
  EXPECT_TRUE(DataTypeFromString("blob").status().IsParseError());
}

TEST(SchemaTest, LookupCaseInsensitive) {
  Schema schema({{"age", DataType::kInt64}, {"Gender", DataType::kString}});
  EXPECT_EQ(schema.FieldIndex("AGE"), 0);
  EXPECT_EQ(schema.FieldIndex("gender"), 1);
  EXPECT_EQ(schema.FieldIndex("height"), -1);
  EXPECT_TRUE(schema.RequireField("height").status().IsNotFound());
  EXPECT_EQ(*schema.RequireField("gender"), 1);
}

TEST(SchemaTest, ToStringRendersTypes) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(schema.ToString(), "a:INT64, b:DOUBLE");
}

TEST(TableTest, PartitionedAppendAndGather) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  Table table("t", schema, 4);
  for (int i = 0; i < 10; ++i) {
    table.AppendRow(static_cast<size_t>(i % 4), Row{Value::Int64(i)});
  }
  EXPECT_EQ(table.TotalRows(), 10u);
  EXPECT_EQ(table.partition(0).size(), 3u);
  EXPECT_EQ(table.GatherRows().size(), 10u);
}

/// Appends `n` rows to partition 0 of a fresh table and checks the chunk
/// invariants: every chunk is non-empty and at most kSqlBatchRows rows, and
/// the chunk rows add up to TotalRows.
void ExpectChunkInvariants(size_t n) {
  SCOPED_TRACE("rows=" + std::to_string(n));
  auto schema =
      Schema::Make({{"x", DataType::kInt64}, {"s", DataType::kString}});
  Table table("t", schema, 2);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table
                    .AppendRow(0, Row{Value::Int64(static_cast<int64_t>(i)),
                                      Value::String(std::to_string(i % 7))})
                    .ok());
  }
  size_t chunk_rows = 0;
  for (const ColumnBatch& chunk : table.batches(0)) {
    EXPECT_GT(chunk.num_rows(), 0u);
    EXPECT_LE(chunk.num_rows(), kSqlBatchRows);
    chunk_rows += chunk.num_rows();
  }
  EXPECT_EQ(chunk_rows, n);
  EXPECT_EQ(table.TotalRows(), n);
  EXPECT_EQ(table.batches(0).size(), (n + kSqlBatchRows - 1) / kSqlBatchRows);
  EXPECT_TRUE(table.batches(1).empty());
  const std::vector<Row> rows = table.partition(0);
  ASSERT_EQ(rows.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i][0], Value::Int64(static_cast<int64_t>(i)));
  }
}

TEST(TableTest, ChunksStayWithinTheBatchSize) {
  for (const size_t n : {size_t{0}, size_t{1}, kSqlBatchRows - 1,
                         kSqlBatchRows, kSqlBatchRows + 1}) {
    ExpectChunkInvariants(n);
  }
}

TEST(TableTest, AppendBatchKeepsChunksWithinTheBatchSize) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  Table table("t", schema, 1);
  for (const size_t n : {size_t{3}, kSqlBatchRows + 5, size_t{1000},
                         size_t{20}, 3 * kSqlBatchRows}) {
    ColumnBatch batch(schema);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          batch.AppendRow(Row{Value::Int64(static_cast<int64_t>(i))}).ok());
    }
    ASSERT_TRUE(table.AppendBatch(0, std::move(batch)).ok());
  }
  size_t total = 0;
  for (const ColumnBatch& chunk : table.batches(0)) {
    EXPECT_GT(chunk.num_rows(), 0u);
    EXPECT_LE(chunk.num_rows(), kSqlBatchRows);
    total += chunk.num_rows();
  }
  EXPECT_EQ(total, 3 + kSqlBatchRows + 5 + 1000 + 20 + 3 * kSqlBatchRows);
  EXPECT_EQ(table.TotalRows(), total);
  // A batch of the wrong column types is rejected.
  ColumnBatch strings(Schema::Make({{"x", DataType::kString}}));
  ASSERT_TRUE(strings.AppendRow(Row{Value::String("a")}).ok());
  EXPECT_TRUE(table.AppendBatch(0, std::move(strings)).IsInvalidArgument());
  EXPECT_EQ(table.TotalRows(), total);
}

TEST(TableTest, ChunksCutFromABigBatchKeepOnlyTheirOwnStrings) {
  // One batch of unique strings, NULL every 7th row: slicing it into
  // chunks, or gathering a few of its rows, must not copy its whole
  // dictionary into each piece.
  auto schema = Schema::Make({{"s", DataType::kString}});
  const size_t n = 3 * kSqlBatchRows + 100;
  ColumnBatch big(schema);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(big.AppendRow(Row{i % 7 == 0 ? Value::Null()
                                             : Value::String("value-" +
                                                             std::to_string(i))})
                    .ok());
  }
  Table table("t", schema, 1);
  ASSERT_TRUE(table.AppendBatch(0, big).ok());
  ASSERT_EQ(table.batches(0).size(), 4u);
  for (const ColumnBatch& chunk : table.batches(0)) {
    EXPECT_LE(static_cast<size_t>(chunk.column(0).dict.size()),
              chunk.num_rows());
  }
  EXPECT_EQ(table.partition(0), big.ToRows());

  const std::vector<int32_t> rows = {5, 7, 2000, 5, static_cast<int32_t>(n - 2)};
  ColumnBatch gathered(schema);
  ASSERT_TRUE(gathered.AppendGather(big, rows.data(), rows.size()).ok());
  EXPECT_EQ(gathered.column(0).dict.size(), 3);  // 7 is NULL, 5 repeats.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(gathered.ValueAt(i, 0),
              big.ValueAt(static_cast<size_t>(rows[i]), 0));
  }
}

TEST(TableTest, RejectedRowLeavesThePartitionUnchanged) {
  auto schema =
      Schema::Make({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
  Table table("t", schema, 1);
  ASSERT_TRUE(table.AppendRow(0, Row{Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_FALSE(
      table.AppendRow(0, Row{Value::Int64(3), Value::String("no")}).ok());
  EXPECT_FALSE(table.AppendRow(0, Row{Value::Int64(3)}).ok());
  ASSERT_TRUE(table.AppendRow(0, Row{Value::Int64(4), Value::Int64(5)}).ok());
  const std::vector<Row> rows = table.partition(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (Row{Value::Int64(4), Value::Int64(5)}));
}

/// Bit pattern of a double, so -0.0 and NaN compare exactly.
uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(TableTest, RowViewReturnsEveryCellBitForBit) {
  auto schema = Schema::Make({{"i", DataType::kInt64},
                              {"d", DataType::kDouble},
                              {"s", DataType::kString},
                              {"b", DataType::kBool}});
  const std::vector<double> doubles = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.0, 0.0, 1.5};
  const std::vector<int64_t> ints = {std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(), 0,
                                     -1};
  const std::vector<std::string> strings = {"", std::string(1000, 'q'), "x"};
  std::vector<Row> expected;
  for (size_t i = 0; i < 2 * kSqlBatchRows + 3; ++i) {
    Row row;
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Int64(ints[i % 4]));
    row.push_back(i % 7 == 0 ? Value::Null()
                             : Value::Double(doubles[i % doubles.size()]));
    row.push_back(i % 3 == 0 ? Value::Null()
                             : Value::String(strings[i % strings.size()]));
    row.push_back(i % 11 == 0 ? Value::Null() : Value::Bool(i % 2 == 0));
    expected.push_back(std::move(row));
  }
  Table table("t", schema, 1);
  for (const Row& row : expected) ASSERT_TRUE(table.AppendRow(0, row).ok());
  const std::vector<Row> got = table.partition(0);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size());
    for (size_t c = 0; c < got[i].size(); ++c) {
      const Value& a = got[i][c];
      const Value& b = expected[i][c];
      ASSERT_EQ(a.is_null(), b.is_null()) << "row " << i << " col " << c;
      if (a.is_null()) continue;
      ASSERT_EQ(a.type(), b.type()) << "row " << i << " col " << c;
      if (a.is_double()) {
        EXPECT_EQ(Bits(a.double_value()), Bits(b.double_value()))
            << "row " << i;
      } else {
        EXPECT_EQ(a, b) << "row " << i << " col " << c;
      }
    }
  }
  EXPECT_EQ(table.GatherRows().size(), expected.size());
}

TEST(TableTest, CatalogStatsMatchABoxedRecount) {
  auto schema = Schema::Make({{"i", DataType::kInt64},
                              {"d", DataType::kDouble},
                              {"s", DataType::kString},
                              {"b", DataType::kBool}});
  auto table = std::make_shared<Table>("stats", schema, 3);
  for (size_t i = 0; i < 3 * kSqlBatchRows + 17; ++i) {
    Row row;
    row.push_back(i % 9 == 0 ? Value::Null()
                             : Value::Int64(static_cast<int64_t>(i % 301)));
    row.push_back(i % 4 == 0 ? Value::Null()
                             : Value::Double(static_cast<double>(i % 97) / 8));
    row.push_back(i % 6 == 0 ? Value::Null()
                             : Value::String(std::string(i % 13, 'v')));
    row.push_back(i % 10 == 0 ? Value::Null() : Value::Bool(i % 3 == 0));
    ASSERT_TRUE(table->AppendRow(i % 3, row).ok());
  }
  Catalog catalog;
  catalog.PutTable(table);
  auto stats = catalog.GetStats("stats");
  ASSERT_TRUE(stats.ok()) << stats.status();

  // The recount the stats stood for when partitions were boxed rows.
  const size_t width = static_cast<size_t>(schema->num_fields());
  std::vector<std::unordered_set<size_t>> hashes(width);
  std::vector<double> nulls(width, 0);
  std::vector<double> bytes(width, 0);
  double rows = 0;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    for (const Row& row : table->partition(p)) {
      rows += 1;
      for (size_t c = 0; c < width; ++c) {
        if (row[c].is_null()) {
          nulls[c] += 1;
          continue;
        }
        hashes[c].insert(row[c].Hash());
        bytes[c] += row[c].is_string()
                        ? 16.0 + static_cast<double>(
                                     row[c].string_value().size())
                        : 16.0;
      }
    }
  }
  EXPECT_EQ((*stats)->row_count, rows);
  for (size_t c = 0; c < width; ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const ColumnStats& col = (*stats)->columns[c];
    EXPECT_EQ(col.distinct_values, static_cast<double>(hashes[c].size()));
    EXPECT_EQ(col.null_fraction, nulls[c] / rows);
    EXPECT_EQ(col.avg_bytes, bytes[c] / (rows - nulls[c]));
  }
}

TEST(CsvTest, SimpleRoundTrip) {
  CsvCodec codec;
  Schema schema({{"age", DataType::kInt64},
                 {"gender", DataType::kString},
                 {"amount", DataType::kDouble}});
  Row row{Value::Int64(57), Value::String("F"), Value::Double(123.75)};
  const std::string line = codec.FormatRow(row);
  auto parsed = codec.ParseRow(line, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, row);
}

TEST(CsvTest, QuotingDelimiterAndQuotes) {
  CsvCodec codec;
  Schema schema({{"s", DataType::kString}});
  for (const std::string s :
       {"a,b", "say \"hi\"", "line1\nline2", "trailing,", ",,"}) {
    Row row{Value::String(s)};
    auto parsed = codec.ParseRow(codec.FormatRow(row), schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, row) << "for string: " << s;
  }
}

TEST(CsvTest, NullVsEmptyString) {
  CsvCodec codec;
  Schema schema({{"a", DataType::kString}, {"b", DataType::kString}});
  Row row{Value::Null(), Value::String("")};
  const std::string line = codec.FormatRow(row);
  EXPECT_EQ(line, ",\"\"");
  auto parsed = codec.ParseRow(line, schema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)[0].is_null());
  EXPECT_EQ((*parsed)[1], Value::String(""));
}

TEST(CsvTest, FieldCountMismatchErrors) {
  CsvCodec codec;
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  EXPECT_TRUE(codec.ParseRow("1", schema).status().IsParseError());
  EXPECT_TRUE(codec.ParseRow("1,2,3", schema).status().IsParseError());
}

TEST(CsvTest, TypeErrorsSurfaceFieldName) {
  CsvCodec codec;
  Schema schema({{"age", DataType::kInt64}});
  auto status = codec.ParseRow("abc", schema).status();
  EXPECT_TRUE(status.IsParseError());
  EXPECT_NE(status.message().find("age"), std::string::npos);
}

TEST(CsvTest, AppendRowMatchesFormatRow) {
  CsvCodec codec;
  Row row{Value::Int64(1), Value::String("x,y")};
  std::string buf;
  codec.AppendRow(row, &buf);
  EXPECT_EQ(buf, codec.FormatRow(row) + "\n");
}

TEST(RowCodecTest, AllTypesRoundTrip) {
  std::vector<Row> rows;
  rows.push_back(Row{Value::Null(), Value::Bool(true), Value::Int64(-42),
                     Value::Double(3.25), Value::String("hello")});
  rows.push_back(Row{});
  rows.push_back(Row{Value::String(std::string(10000, 'z'))});
  const std::string encoded = RowCodec::EncodeRows(rows);
  auto decoded = RowCodec::DecodeRows(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, rows);
}

TEST(RowCodecTest, TruncationDetected) {
  std::vector<Row> rows{Row{Value::String("abcdefgh")}};
  const std::string encoded = RowCodec::EncodeRows(rows);
  auto decoded = RowCodec::DecodeRows(encoded.substr(0, encoded.size() - 3));
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

TEST(PrettyPrintTest, AlignedGridWithTruncation) {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"amount", DataType::kDouble}});
  Table table("t", schema, 2);
  table.AppendRow(0, Row{Value::Int64(1), Value::String("alice"),
                         Value::Double(10.5)});
  table.AppendRow(1, Row{Value::Int64(22), Value::Null(), Value::Double(3.0)});
  const std::string out = PrettyPrintTable(table);
  EXPECT_NE(out.find("| id | name  | amount |"), std::string::npos) << out;
  EXPECT_NE(out.find("alice"), std::string::npos);
  EXPECT_NE(out.find("NULL"), std::string::npos);
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
}

TEST(PrettyPrintTest, RowLimitNoted) {
  auto schema = Schema::Make({{"x", DataType::kInt64}});
  Table table("t", schema, 1);
  for (int i = 0; i < 50; ++i) table.AppendRow(0, Row{Value::Int64(i)});
  PrettyPrintOptions options;
  options.max_rows = 5;
  const std::string out = PrettyPrintTable(table, options);
  EXPECT_NE(out.find("(50 rows, showing first 5)"), std::string::npos) << out;
}

TEST(PrettyPrintTest, LongStringsTruncated) {
  auto schema = Schema::Make({{"s", DataType::kString}});
  Table table("t", schema, 1);
  table.AppendRow(0, Row{Value::String(std::string(100, 'z'))});
  PrettyPrintOptions options;
  options.max_column_width = 10;
  const std::string out = PrettyPrintTable(table, options);
  EXPECT_NE(out.find("zzzzzzz..."), std::string::npos) << out;
}

}  // namespace
}  // namespace sqlink
