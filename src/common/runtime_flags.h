#ifndef SQLINK_COMMON_RUNTIME_FLAGS_H_
#define SQLINK_COMMON_RUNTIME_FLAGS_H_

#include <cstdint>

namespace sqlink {

/// Whether the columnar wire path is enabled (SQLINK_COLUMNAR=on|off,
/// default on). Gates the sink's columnar frame encoding and the stream
/// reader's whole-frame batch delivery; the row path stays as the fallback
/// and the two are wire-interoperable per channel (a sink picks one
/// encoding per query, readers understand both). The coding UDFs and the
/// ML ingest are columnar in either mode.
///
/// The environment is read once; tests flip the mode in-process with
/// SetColumnarEnabledForTest.
bool ColumnarEnabled();

/// Test hook: 1 = force on, 0 = force off, -1 = back to the environment.
void SetColumnarEnabledForTest(int enabled);

/// Whether the SQL engine runs the vectorized batch operators
/// (SQLINK_VECTORIZED_SQL=on|off, default on). Gates the executor's
/// ColumnBatch pipelines (scan/filter/project/hash join/DISTINCT); the
/// row-at-a-time operators stay as the fallback and both modes produce
/// identical results (enforced by tests/sql_differential_test.cc).
///
/// The environment is read once; tests flip the mode in-process with
/// SetVectorizedSqlEnabledForTest.
bool VectorizedSqlEnabled();

/// Test hook: 1 = force on, 0 = force off, -1 = back to the environment.
void SetVectorizedSqlEnabledForTest(int enabled);

/// Whether sink→reader transfers multiplex their logical channels over the
/// shared per-peer connection pool (SQLINK_MUX=on|off, default on). Off
/// keeps the one-socket-per-transfer path, wire-compatible for bisection.
///
/// The environment is read once; tests flip the mode in-process with
/// SetMuxEnabledForTest.
bool MuxEnabled();

/// Test hook: 1 = force on, 0 = force off, -1 = back to the environment.
void SetMuxEnabledForTest(int enabled);

/// Shared data connections per sink peer (SQLINK_MUX_CONNS_PER_PEER,
/// default 4). Channels map to a connection by hash of their split id, so
/// a channel reconnects onto the same socket.
int MuxConnsPerPeer();

/// Test hook: > 0 = forced pool size, <= 0 = back to the environment.
void SetMuxConnsPerPeerForTest(int conns);

/// Initial + replenished per-channel credit in bytes granted to a sink's
/// data frames (SQLINK_MUX_CHANNEL_WINDOW_BYTES, default 4 MiB). A channel
/// that exhausts its window parks alone; socket-mates keep flowing.
int64_t MuxChannelWindowBytes();

/// Test hook: > 0 = forced window, <= 0 = back to the environment.
void SetMuxChannelWindowBytesForTest(int64_t bytes);

}  // namespace sqlink

#endif  // SQLINK_COMMON_RUNTIME_FLAGS_H_
