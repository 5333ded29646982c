#ifndef SQLINK_STREAM_FRAME_LOG_H_
#define SQLINK_STREAM_FRAME_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>

#include "common/byte_budget.h"
#include "common/metrics.h"
#include "common/result.h"

namespace sqlink {

/// Disk file of length-prefixed records, appended to and read back by
/// offset. The file is created lazily on the first Append and is ALWAYS
/// removed once the SpillFile is destroyed (or explicitly Remove()d),
/// including when an abort struck between creating the file and completing
/// the first record. It counts its live records: once Release has retired
/// every record appended, the file is truncated to zero bytes, so its size
/// is bounded by the records still live since it last emptied, not by
/// everything ever spilled. Not thread-safe; the owning FrameLog holds its
/// lock around every call.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  ~SpillFile() { Remove(); }

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one fixed32-length-prefixed record, returning its offset for
  /// ReadAt. The file is flushed so a later ReadAt sees the record.
  Result<uint64_t> Append(std::string_view record);

  /// Reads the record at `offset` (a value returned by Append) into `out`.
  Status ReadAt(uint64_t offset, std::string* out);

  /// Retires one appended record (its offset must not be read again). When
  /// no live record is left, truncates the file and restarts offsets at 0.
  void Release();

  /// Closes and deletes the backing file if it was ever created. Idempotent.
  void Remove();

 private:
  std::string path_;
  bool created_ = false;
  uint64_t write_offset_ = 0;
  int64_t live_records_ = 0;  ///< Appended and not yet released.
  std::ofstream out_;
  std::ifstream in_;
};

/// The sink side of one data channel (§3 + §6): a sequenced log of encoded
/// frames with a send cursor and an ack cursor. The producer appends each
/// frame once and the log assigns its sequence number (from 1); the sender
/// sends the frame at its cursor; the reader's cumulative acks trim the
/// head. A (re)connecting reader rewinds the cursor to its resume point, so
/// replay and live sending are the same loop.
///
/// Every frame lives in exactly one place — its pooled buffer (returned to
/// FrameBufferPool::Global() once acked or spilled) or one offset
/// in the channel's single spill file — and reaches disk at most once:
///  - Admission (§3 send buffer): a frame stays in memory while the unsent
///    in-memory bytes fit `send_buffer_bytes` (an oversized frame is
///    admitted alone). Otherwise it spills, if spill is enabled, the
///    `stream.spill.write` failpoint is quiet and the per-query spill
///    budget takes the charge (released on the frame's first send or on
///    cancel). Otherwise the producer parks until the sender makes room.
///  - Retention (§6 replay): sent frames stay until acked. Sent in-memory
///    bytes are capped at kRetainedMemoryBytes; the oldest overflow into the
///    spill file. With spill disabled retention is unbounded, because an
///    unacked frame cannot be dropped without losing recovery.
///
/// Thread model: one producer thread (Append, CloseProducer), one sender
/// thread (Rewind, SendNext, Ack), and Cancel from anywhere.
class FrameLog {
 public:
  /// Cap on sent-but-unacked bytes held in memory.
  static constexpr size_t kRetainedMemoryBytes = 1 << 20;

  struct Options {
    size_t send_buffer_bytes = 4096;
    bool spill_enabled = true;
    std::string spill_path;  ///< Required when spill_enabled.
    /// Optional per-query spill quota shared by every log of the query.
    ByteBudgetPtr spill_budget;
  };

  /// Where a (re)connecting reader resumes: the last frame it keeps, and
  /// the rows in frames [1, seq].
  struct ResumePoint {
    uint64_t seq = 0;
    uint64_t rows = 0;
  };

  using SendFn = std::function<Status(uint64_t seq, const std::string& frame)>;

  explicit FrameLog(Options options);
  ~FrameLog();

  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  /// Appends one encoded frame holding `rows` rows. Parks while the send
  /// buffer is full and the frame cannot spill. Fails after Cancel().
  Status Append(std::string frame, uint64_t rows);

  /// Marks the producer done; SendNext reports the end once all is sent.
  void CloseProducer();

  /// Unblocks both sides with kCancelled, deletes the spill file and
  /// returns the budget charge (an aborted transfer leaves no .spill file).
  void Cancel();

  /// Moves the send cursor just past `requested` (negative: the ack
  /// cursor), clamped between the ack cursor and the last sent frame.
  ResumePoint Rewind(int64_t requested);

  /// Waits for the frame at the cursor and hands it to `send`; returns
  /// false once the producer closed and every frame was sent. A frame sent
  /// before (after a Rewind) counts in transfer.frames_replayed.
  Result<bool> SendNext(const SendFn& send);

  /// Cumulative ack: releases every sent frame with sequence <= `seq`.
  void Ack(uint64_t seq);

  uint64_t last_seq() const;
  /// Rows in every appended frame.
  uint64_t total_rows() const;
  /// Frames spilled at admission (the §3 send-buffer overflow).
  int64_t spilled_frames() const;
  /// Sent frames that overflowed the retention cap to disk.
  int64_t retention_spilled_frames() const;
  /// Bytes of sent, unacked frames held in memory.
  size_t retained_memory_bytes() const;

 private:
  struct Entry {
    std::string frame;  ///< Empty while the frame lives on disk.
    uint64_t rows = 0;
    size_t bytes = 0;
    bool on_disk = false;
    uint64_t offset = 0;  ///< Spill-file offset when on_disk.
  };

  Entry& EntryLocked(uint64_t seq) {
    return entries_[static_cast<size_t>(seq - acked_seq_ - 1)];
  }
  /// Writes the oldest sent in-memory frames to disk until the retained
  /// bytes fit kRetainedMemoryBytes.
  Status EnforceRetentionLocked();
  /// Charges `bytes` to the spill budget (if any); false, counting a budget
  /// park, when the quota is exhausted.
  bool ChargeBudgetLocked(int64_t bytes);
  /// Returns up to `bytes` of this log's outstanding charge.
  void ReleaseBudgetLocked(int64_t bytes);
  /// Hands a frame buffer no longer held in memory back to the pool.
  static void Recycle(std::string* frame);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable sender_cv_;

  std::deque<Entry> entries_;  ///< Frames acked_seq_+1 .. last_seq_.
  uint64_t acked_seq_ = 0;
  uint64_t acked_rows_ = 0;    ///< Rows in frames [1, acked_seq_].
  uint64_t sent_seq_ = 0;      ///< Highest sequence ever sent.
  uint64_t last_seq_ = 0;
  uint64_t total_rows_ = 0;
  uint64_t cursor_ = 1;        ///< Next sequence SendNext hands out.
  size_t unsent_memory_bytes_ = 0;
  size_t retained_memory_bytes_ = 0;
  int64_t unsent_frames_ = 0;
  int64_t spilled_frames_ = 0;
  int64_t retention_spilled_frames_ = 0;
  int64_t budget_outstanding_ = 0;  ///< Spill bytes charged, not yet sent.
  bool producer_closed_ = false;
  bool cancelled_ = false;
  SpillFile spill_;
  std::string read_buffer_;  ///< Sender-owned; holds a frame read from disk.

  // Shared instruments: every log aggregates into the same globals.
  Gauge* depth_frames_;  ///< Unsent frames (memory + disk).
  Gauge* depth_bytes_;   ///< Unsent bytes in memory.
  Counter* spill_frames_total_;
  Counter* spill_bytes_total_;
  Counter* drain_frames_total_;
  Counter* budget_parks_total_;
  Counter* retention_spill_total_;
  Counter* replayed_total_;
  Histogram* spill_write_micros_;
  Histogram* spill_read_micros_;
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_FRAME_LOG_H_
