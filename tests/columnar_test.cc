#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "ml/dataset.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "table/column_batch.h"
#include "table/row_codec.h"
#include "transform/coding.h"
#include "transform/kernels.h"
#include "transform/recode_map.h"

namespace sqlink {
namespace {

// Value::operator== compares doubles with ==, under which NaN != NaN. Edge
// and property tests compare doubles by bit pattern instead so NaN survives
// every round trip.
bool BitEqual(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return BitEqual(a.double_value(), b.double_value());
  }
  return a == b;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameValue(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

SchemaPtr EdgeSchema() {
  return Schema::Make({{"flag", DataType::kBool},
                       {"count", DataType::kInt64},
                       {"ratio", DataType::kDouble},
                       {"name", DataType::kString}});
}

std::vector<Row> EdgeRows() {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {Value::Bool(true), Value::Int64(0), Value::Double(0.0),
       Value::String("")},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Bool(false), Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Double(kNan), Value::String("repeated")},
      {Value::Bool(true), Value::Int64(std::numeric_limits<int64_t>::max()),
       Value::Double(kInf), Value::String("repeated")},
      {Value::Null(), Value::Int64(-1), Value::Double(-kInf),
       Value::String(std::string(1000, 'x'))},
      {Value::Bool(false), Value::Null(), Value::Double(-0.0),
       Value::String("")},
  };
}

// --- ColumnBatch <-> rows ----------------------------------------------------

TEST(ColumnBatchTest, RoundTripsEdgeValues) {
  auto batch = ColumnBatch::FromRows(EdgeSchema(), EdgeRows());
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->num_rows(), 6u);
  EXPECT_TRUE(SameRows(batch->ToRows(), EdgeRows()));
  // NULL string rows must not pollute the dictionary; "" and "repeated" are
  // stored once each.
  EXPECT_EQ(batch->column(3).dict.size(), 3);
}

TEST(ColumnBatchTest, HighCardinalityDictionaryRoundTrips) {
  auto schema = Schema::Make({{"key", DataType::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) {
    rows.push_back({Value::String("key-" + std::to_string(i))});
  }
  // Repeats after the distinct run must reuse existing dictionary ids.
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::String("key-" + std::to_string(i * 7 % 10000))});
  }
  auto batch = ColumnBatch::FromRows(schema, rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->column(0).dict.size(), 10000);
  EXPECT_TRUE(SameRows(batch->ToRows(), rows));
}

TEST(ColumnBatchTest, AppendBatchRemapsDictionaryCodes) {
  auto schema = Schema::Make({{"name", DataType::kString}});
  auto first = ColumnBatch::FromRows(
      schema, {{Value::String("a")}, {Value::String("b")}});
  auto second = ColumnBatch::FromRows(
      schema, {{Value::String("b")}, {Value::String("c")}, {Value::Null()}});
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(first->AppendBatch(*second).ok());
  const std::vector<Row> got = first->ToRows();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[2][0], Value::String("b"));
  EXPECT_EQ(got[3][0], Value::String("c"));
  EXPECT_TRUE(got[4][0].is_null());
  // "b" was remapped onto the existing entry, not duplicated.
  EXPECT_EQ(first->column(0).dict.size(), 3);
}

TEST(ColumnBatchTest, TruncateClearsTrailingNullBits) {
  auto schema = Schema::Make({{"v", DataType::kInt64}});
  ColumnBatch batch(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Null()}).ok());
  }
  batch.Truncate(3);
  EXPECT_EQ(batch.num_rows(), 3u);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Int64(i)}).ok());
  }
  const std::vector<Row> got = batch.ToRows();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(got[static_cast<size_t>(i)][0].is_null());
  for (int i = 3; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)][0], Value::Int64(i - 3));
  }
}

/// A one-column INT64 batch of `rows` rows; row r is NULL when
/// (r * 7 + seed) % 3 == 0 — mixed NULLs at every word position.
ColumnBatch MixedNullBatch(size_t rows, size_t seed) {
  ColumnBatch batch(Schema::Make({{"v", DataType::kInt64}}));
  for (size_t r = 0; r < rows; ++r) {
    const bool null = (r * 7 + seed) % 3 == 0;
    EXPECT_TRUE(batch
                    .AppendRow({null ? Value::Null()
                                     : Value::Int64(static_cast<int64_t>(r))})
                    .ok());
  }
  return batch;
}

/// The per-row reference: the bitmap AppendNullBit builds for the rows
/// [begin, end) of `src` appended after `dst`'s rows.
std::vector<uint64_t> ReferenceBits(const ColumnBatch& dst,
                                    const ColumnBatch& src, size_t begin) {
  Column col;
  for (size_t r = 0; r < dst.num_rows(); ++r) {
    col.AppendNullBit(r, dst.column(0).IsNull(r));
  }
  for (size_t r = begin; r < src.num_rows(); ++r) {
    col.AppendNullBit(dst.num_rows() + r - begin, src.column(0).IsNull(r));
  }
  col.null_words.resize((dst.num_rows() + src.num_rows() - begin + 63) / 64);
  return col.null_words;
}

TEST(ColumnBatchTest, WordWiseNullAppendMatchesPerRowReference) {
  for (const size_t dst_rows : {0u, 1u, 63u, 64u, 65u}) {
    for (const size_t src_rows : {0u, 1u, 63u, 64u, 65u, 1025u}) {
      SCOPED_TRACE("dst " + std::to_string(dst_rows) + " src " +
                   std::to_string(src_rows));
      const ColumnBatch src = MixedNullBatch(src_rows, 1);
      ColumnBatch dst = MixedNullBatch(dst_rows, 2);
      const std::vector<uint64_t> expected = ReferenceBits(dst, src, 0);
      ASSERT_TRUE(dst.AppendBatch(src).ok());
      EXPECT_EQ(dst.column(0).null_words, expected);
      EXPECT_EQ(dst.num_rows(), dst_rows + src_rows);

      // Reading the source bitmap at a bit offset.
      const size_t begin = dst_rows;  // Reuse the offsets as read starts.
      if (begin < src_rows) {
        std::vector<uint64_t> tail;
        AppendNullWords(&tail, 0, src.column(0).null_words, begin,
                        src_rows - begin);
        EXPECT_EQ(tail, ReferenceBits(MixedNullBatch(0, 0), src, begin));
      }
    }
  }
}

TEST(ColumnBatchTest, AppendRowRejectsMismatches) {
  auto schema = Schema::Make({{"v", DataType::kInt64}});
  ColumnBatch batch(schema);
  EXPECT_TRUE(batch.AppendRow({Value::String("no")}).IsInvalidArgument());
  EXPECT_TRUE(
      batch.AppendRow({Value::Int64(1), Value::Int64(2)}).IsInvalidArgument());
}

// --- Columnar wire encoding --------------------------------------------------

TEST(ColumnarWireTest, EncodeDecodeRoundTripsEdgeValues) {
  auto schema = EdgeSchema();
  auto batch = ColumnBatch::FromRows(schema, EdgeRows());
  ASSERT_TRUE(batch.ok());

  ColumnarChannelEncoder encoder(schema);
  std::string payload;
  ASSERT_TRUE(encoder.EncodeBatch(*batch, &payload).ok());

  ColumnarChannelDecoder decoder;
  ColumnBatch decoded;
  ASSERT_TRUE(decoder.DecodeBatch(payload, schema, &decoded).ok());
  EXPECT_TRUE(SameRows(decoded.ToRows(), EdgeRows()));
}

TEST(ColumnarWireTest, DictionaryDeltasAccumulateAcrossFrames) {
  auto schema = Schema::Make({{"name", DataType::kString}});
  ColumnarChannelEncoder encoder(schema);

  auto first = ColumnBatch::FromRows(
      schema, {{Value::String("a")}, {Value::String("b")}});
  auto second = ColumnBatch::FromRows(
      schema, {{Value::String("b")}, {Value::String("c")}});
  ASSERT_TRUE(first.ok() && second.ok());

  std::string payload1;
  std::string payload2;
  ASSERT_TRUE(encoder.EncodeBatch(*first, &payload1).ok());
  ASSERT_TRUE(encoder.EncodeBatch(*second, &payload2).ok());
  // The second frame's delta carries only "c"; it rides on the channel dict.
  EXPECT_LT(payload2.size(), payload1.size() + 2);

  ColumnarChannelDecoder decoder;
  ColumnBatch out;
  ASSERT_TRUE(decoder.DecodeBatch(payload1, schema, &out).ok());
  EXPECT_TRUE(SameRows(out.ToRows(), first->ToRows()));
  ASSERT_TRUE(decoder.DecodeBatch(payload2, schema, &out).ok());
  EXPECT_TRUE(SameRows(out.ToRows(), second->ToRows()));
}

TEST(ColumnarWireTest, SnapshotMakesReplayedDeltasIdempotent) {
  auto schema = Schema::Make({{"name", DataType::kString}});
  ColumnarChannelEncoder encoder(schema);
  auto first = ColumnBatch::FromRows(
      schema, {{Value::String("a")}, {Value::String("b")}});
  auto second = ColumnBatch::FromRows(
      schema, {{Value::String("c")}, {Value::String("a")}});
  ASSERT_TRUE(first.ok() && second.ok());
  std::string payload1;
  std::string payload2;
  ASSERT_TRUE(encoder.EncodeBatch(*first, &payload1).ok());
  ASSERT_TRUE(encoder.EncodeBatch(*second, &payload2).ok());

  // A replacement reader reconnects: it gets the full snapshot, then the
  // sink replays BOTH frames. Their deltas overlap the snapshot entirely;
  // decode must treat the overlap as a no-op.
  ColumnarChannelDecoder fresh;
  ASSERT_TRUE(fresh.ApplySnapshot(encoder.SnapshotDicts(), schema).ok());
  ColumnBatch out;
  ASSERT_TRUE(fresh.DecodeBatch(payload1, schema, &out).ok());
  EXPECT_TRUE(SameRows(out.ToRows(), first->ToRows()));
  ASSERT_TRUE(fresh.DecodeBatch(payload2, schema, &out).ok());
  EXPECT_TRUE(SameRows(out.ToRows(), second->ToRows()));
  // Replaying the same frame twice (duplicate delivery) is also harmless.
  ASSERT_TRUE(fresh.DecodeBatch(payload2, schema, &out).ok());
  EXPECT_TRUE(SameRows(out.ToRows(), second->ToRows()));
}

TEST(ColumnarWireTest, DecodeErrorPaths) {
  auto schema = Schema::Make({{"name", DataType::kString}});
  ColumnarChannelDecoder decoder;
  ColumnBatch out;
  // No schema yet (reader got data before kSchema).
  EXPECT_TRUE(
      decoder.DecodeBatch("", nullptr, &out).IsFailedPrecondition());
  EXPECT_TRUE(decoder.ApplySnapshot("", nullptr).IsFailedPrecondition());

  // A delta that skips ahead of the channel dictionary (frame loss) is data
  // loss, not silent misdecoding.
  ColumnarChannelEncoder encoder(schema);
  auto first = ColumnBatch::FromRows(schema, {{Value::String("a")}});
  auto second = ColumnBatch::FromRows(schema, {{Value::String("b")}});
  ASSERT_TRUE(first.ok() && second.ok());
  std::string payload1;
  std::string payload2;
  ASSERT_TRUE(encoder.EncodeBatch(*first, &payload1).ok());
  ASSERT_TRUE(encoder.EncodeBatch(*second, &payload2).ok());
  EXPECT_TRUE(decoder.DecodeBatch(payload2, schema, &out).IsDataLoss());
}

TEST(ColumnarWireTest, RowAndColumnarEncodingsDecodeIdentically) {
  // Property: any row batch decodes to the same values whether it was
  // encoded as RowCodec rows (the broker and query-server encoding) or as a
  // kColData payload.
  auto schema = Schema::Make({{"flag", DataType::kBool},
                              {"count", DataType::kInt64},
                              {"ratio", DataType::kDouble},
                              {"name", DataType::kString}});
  Random rng(117);
  ColumnarChannelEncoder encoder(schema);
  ColumnarChannelDecoder decoder;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Row> rows;
    const size_t n = 1 + rng.NextUint64() % 200;
    for (size_t i = 0; i < n; ++i) {
      Row row;
      row.push_back(rng.NextUint64() % 8 == 0
                        ? Value::Null()
                        : Value::Bool(rng.NextUint64() % 2 == 0));
      row.push_back(rng.NextUint64() % 8 == 0
                        ? Value::Null()
                        : Value::Int64(static_cast<int64_t>(rng.NextUint64())));
      const uint64_t pick = rng.NextUint64() % 16;
      if (pick == 0) {
        row.push_back(Value::Null());
      } else if (pick == 1) {
        row.push_back(
            Value::Double(std::numeric_limits<double>::quiet_NaN()));
      } else if (pick == 2) {
        row.push_back(Value::Double(std::numeric_limits<double>::infinity()));
      } else {
        row.push_back(Value::Double(rng.NextDouble() * 1e6 - 5e5));
      }
      row.push_back(rng.NextUint64() % 8 == 0
                        ? Value::Null()
                        : Value::String("s" + std::to_string(rng.NextUint64() %
                                                             64)));
      rows.push_back(std::move(row));
    }

    const std::string row_payload = RowCodec::EncodeRows(rows);
    auto via_rows = RowCodec::DecodeRows(row_payload);
    ASSERT_TRUE(via_rows.ok()) << via_rows.status();

    auto batch = ColumnBatch::FromRows(schema, rows);
    ASSERT_TRUE(batch.ok()) << batch.status();
    std::string col_payload;
    ASSERT_TRUE(encoder.EncodeBatch(*batch, &col_payload).ok());
    ColumnBatch decoded;
    ASSERT_TRUE(decoder.DecodeBatch(col_payload, schema, &decoded).ok());

    EXPECT_TRUE(SameRows(*via_rows, rows));
    EXPECT_TRUE(SameRows(decoded.ToRows(), rows)) << "trial " << trial;
  }
}

TEST(FrameBufferPoolTest, ReusesBuffersAndCountsHitsAndMisses) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter* pooled = metrics.GetCounter("stream.wire.frames_pooled");
  Counter* miss = metrics.GetCounter("stream.wire.pool_miss");

  FrameBufferPool pool;
  const int64_t miss_before = miss->value();
  std::string buffer = pool.Acquire();  // Empty pool: allocates.
  EXPECT_GT(miss->value(), miss_before);

  buffer.assign(4096, 'z');
  const char* const data = buffer.data();
  pool.Release(std::move(buffer));

  const int64_t pooled_before = pooled->value();
  std::string reused = pool.Acquire();
  EXPECT_GT(pooled->value(), pooled_before);
  EXPECT_TRUE(reused.empty());  // Cleared, capacity kept.
  EXPECT_GE(reused.capacity(), 4096u);
  EXPECT_EQ(reused.data(), data);
}

// --- Vectorized transform kernels -------------------------------------------

TEST(KernelTest, RecodeKernelMatchesMapLookups) {
  RecodeMap map;
  ASSERT_TRUE(map.Add("city", "nyc", 1).ok());
  ASSERT_TRUE(map.Add("city", "sfo", 2).ok());
  ASSERT_TRUE(map.Add("city", "ber", 3).ok());

  auto schema = Schema::Make({{"city", DataType::kString}});
  std::vector<Row> rows = {{Value::String("sfo")}, {Value::String("nyc")},
                           {Value::Null()},        {Value::String("ber")},
                           {Value::String("sfo")}};
  auto batch = ColumnBatch::FromRows(schema, rows);
  ASSERT_TRUE(batch.ok());

  const RecodeMap::ColumnDict* dict = map.FindColumn("city");
  ASSERT_NE(dict, nullptr);
  Column out;
  ASSERT_TRUE(RecodeColumnKernel(batch->column(0), batch->num_rows(), "city",
                                 *dict, &out)
                  .ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{2, 1, 0, 3, 2}));
  EXPECT_TRUE(out.IsNull(2));
  EXPECT_FALSE(out.IsNull(0));
  // Per-row lookup latency landed in the histogram.
  EXPECT_GT(MetricsRegistry::Global()
                .GetHistogram("transform.recode_lookup_ns")
                ->count(),
            0);

  // A value outside the map is the row path's NotFound, not a bad code.
  auto bad = ColumnBatch::FromRows(schema, {{Value::String("lax")}});
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(
      RecodeColumnKernel(bad->column(0), 1, "city", *dict, &out).IsNotFound());
}

TEST(KernelTest, CodingKernelProducesContrastColumns) {
  auto matrix = CodingMatrix(CodingScheme::kDummy, 3);
  ASSERT_TRUE(matrix.ok());

  auto schema = Schema::Make({{"code", DataType::kInt64}});
  auto batch = ColumnBatch::FromRows(
      schema, {{Value::Int64(1)}, {Value::Int64(3)}, {Value::Int64(2)}});
  ASSERT_TRUE(batch.ok());

  std::vector<Column> out;
  ASSERT_TRUE(ApplyCodingKernel(batch->column(0), batch->num_rows(), 3,
                                *matrix, DataType::kInt64, &out)
                  .ok());
  ASSERT_EQ(out.size(), matrix->front().size());
  for (size_t j = 0; j < out.size(); ++j) {
    for (size_t r = 0; r < 3; ++r) {
      const auto level = static_cast<size_t>(batch->column(0).ints[r]);
      EXPECT_EQ(out[j].ints[r], static_cast<int64_t>((*matrix)[level - 1][j]))
          << "row " << r << " col " << j;
    }
  }

  // A level outside [1, cardinality] is OutOfRange, matching the row path.
  auto bad = ColumnBatch::FromRows(schema, {{Value::Int64(4)}});
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(ApplyCodingKernel(bad->column(0), 1, 3, *matrix,
                                DataType::kInt64, &out)
                  .IsOutOfRange());
}

// --- Columnar feature extraction --------------------------------------------

TEST(DatasetTest, FromColumnsMatchesCellOracle) {
  auto schema = Schema::Make({{"label", DataType::kInt64},
                              {"f1", DataType::kDouble},
                              {"f2", DataType::kBool},
                              {"f3", DataType::kInt64}});
  Random rng(9);
  ml::ColumnDataset columns;
  columns.schema = schema;
  for (int p = 0; p < 3; ++p) {
    std::vector<Row> partition;
    for (int i = 0; i < 50; ++i) {
      partition.push_back({Value::Int64(i % 2),
                           rng.NextUint64() % 10 == 0
                               ? Value::Null()
                               : Value::Double(rng.NextDouble()),
                           Value::Bool(rng.NextUint64() % 2 == 0),
                           Value::Int64(static_cast<int64_t>(
                               rng.NextUint64() % 1000))});
    }
    auto batch = ColumnBatch::FromRows(schema, partition);
    ASSERT_TRUE(batch.ok());
    columns.partitions.push_back(std::move(*batch));
  }

  // Oracle: labeled points built cell by cell from the boxed values, with
  // NULL as 0 and the label column left out of the features.
  auto numeric = [](const Value& v) {
    return v.is_null() ? 0.0 : *v.AsDouble();
  };
  std::vector<std::vector<ml::LabeledPoint>> expected;
  for (const ColumnBatch& batch : columns.partitions) {
    std::vector<ml::LabeledPoint>& points = expected.emplace_back();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      ml::LabeledPoint point;
      point.label = numeric(batch.ValueAt(r, 0));
      for (size_t c = 1; c < batch.num_columns(); ++c) {
        point.features.push_back(numeric(batch.ValueAt(r, c)));
      }
      points.push_back(std::move(point));
    }
  }

  auto from_columns = ml::Dataset::FromColumnsAutoFeatures(columns, "label");
  ASSERT_TRUE(from_columns.ok()) << from_columns.status();
  EXPECT_EQ(from_columns->dimension(), 3u);
  EXPECT_EQ(from_columns->partitions(), expected);
}

TEST(DatasetTest, FromColumnsRejectsCategoricalFeatures) {
  auto schema = Schema::Make(
      {{"label", DataType::kInt64}, {"city", DataType::kString}});
  ml::ColumnDataset columns;
  columns.schema = schema;
  auto batch = ColumnBatch::FromRows(
      schema, {{Value::Int64(1), Value::String("nyc")}});
  ASSERT_TRUE(batch.ok());
  columns.partitions.push_back(std::move(*batch));
  auto dataset = ml::Dataset::FromColumnsAutoFeatures(columns, "label");
  EXPECT_TRUE(dataset.status().IsInvalidArgument());
}

// --- End-to-end columnar transfer -------------------------------------------

class ColumnarTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("columnar_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble},
                                {"label", DataType::kInt64}});
    auto table = engine_->MakeTable("points", schema);
    Random rng(31);
    for (int64_t i = 0; i < 1000; ++i) {
      table->AppendRow(
          static_cast<size_t>(i) % 4,
          Row{Value::Int64(i), Value::Double(rng.NextDouble()),
              Value::Int64(i % 2)});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  void ExpectAllIds(const ml::ColumnDataset& dataset) {
    std::set<int64_t> ids;
    for (const ColumnBatch& partition : dataset.partitions) {
      for (size_t r = 0; r < partition.num_rows(); ++r) {
        EXPECT_TRUE(ids.insert(partition.ValueAt(r, 0).int64_value()).second);
      }
    }
    EXPECT_EQ(ids.size(), 1000u);
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(ColumnarTransferTest, ColumnarTransferDeliversEveryRowOnce) {
  Counter* pooled =
      MetricsRegistry::Global().GetCounter("stream.wire.frames_pooled");
  const int64_t pooled_before = pooled->value();
  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  EXPECT_EQ(result->rows_sent, 1000);
  EXPECT_EQ(result->stats.num_splits, 4);
  EXPECT_EQ(result->dataset.schema->ToString(),
            "id:INT64, feature:DOUBLE, label:INT64");
  ExpectAllIds(result->dataset);
  // The steady-state sender recycled frame buffers through the pool.
  EXPECT_GT(pooled->value(), pooled_before);
}

TEST_F(ColumnarTransferTest, TransferCarriesEdgeValuesExactly) {
  // NULLs in every column, NaN, infinities, -0.0, extreme INT64s, empty,
  // repeated and long strings: each must cross the kColData wire (null
  // bitmaps, dictionary deltas) bit for bit.
  const SchemaPtr edge_schema = EdgeSchema();
  std::vector<Field> fields = {{"id", DataType::kInt64}};
  for (const Field& field : edge_schema->fields()) fields.push_back(field);
  auto schema = Schema::Make(fields);
  auto table = engine_->MakeTable("edges", schema);
  std::vector<Row> expected;
  for (int64_t copy = 0; copy < 8; ++copy) {
    for (const Row& edge : EdgeRows()) {
      Row row{Value::Int64(static_cast<int64_t>(expected.size()))};
      row.insert(row.end(), edge.begin(), edge.end());
      table->AppendRow(expected.size() % 4, row);
      expected.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());

  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM edges");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.schema->ToString(), schema->ToString());
  std::vector<Row> received(expected.size());
  size_t count = 0;
  for (const ColumnBatch& partition : result->dataset.partitions) {
    for (Row& row : partition.ToRows()) {
      const int64_t id = row[0].int64_value();
      ASSERT_GE(id, 0);
      ASSERT_LT(static_cast<size_t>(id), expected.size());
      received[static_cast<size_t>(id)] = std::move(row);
      ++count;
    }
  }
  EXPECT_EQ(count, expected.size());
  EXPECT_TRUE(SameRows(received, expected));
}

TEST_F(ColumnarTransferTest, TransferFeedsSameTrainingDataAsDirectQuery) {
  // Oracle: the same query executed in place, its result partitions boxed
  // into batches without crossing the wire. Both sides must yield the same
  // labeled points; compare as sorted multisets since the transfer's
  // partitioning is by split, not by table partition.
  auto direct = engine_->ExecuteSql("SELECT * FROM points WHERE id >= 100");
  ASSERT_TRUE(direct.ok()) << direct.status();
  ml::ColumnDataset oracle;
  oracle.schema = (*direct)->schema();
  for (size_t p = 0; p < (*direct)->num_partitions(); ++p) {
    auto batch = ColumnBatch::FromRows(oracle.schema, (*direct)->partition(p));
    ASSERT_TRUE(batch.ok()) << batch.status();
    oracle.partitions.push_back(std::move(*batch));
  }
  auto transferred = StreamingTransfer::Run(
      engine_.get(), "SELECT * FROM points WHERE id >= 100");
  ASSERT_TRUE(transferred.ok()) << transferred.status();

  auto flatten = [](const ml::ColumnDataset& columns) {
    auto dataset = ml::Dataset::FromColumnsAutoFeatures(columns, "label");
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    std::vector<std::pair<ml::DenseVector, double>> points;
    if (!dataset.ok()) return points;
    for (const auto& partition : dataset->partitions()) {
      for (const ml::LabeledPoint& point : partition) {
        points.emplace_back(point.features, point.label);
      }
    }
    std::sort(points.begin(), points.end());
    return points;
  };
  const auto expected = flatten(oracle);
  EXPECT_EQ(expected.size(), 900u);
  EXPECT_EQ(flatten(transferred->dataset), expected);
}

}  // namespace
}  // namespace sqlink
