#include "stream/frame_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "stream/wire.h"

namespace sqlink {

Result<uint64_t> SpillFile::Append(std::string_view record) {
  if (!out_.is_open()) {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      return Status::IoError("cannot open spill file " + path_);
    }
    created_ = true;
  }
  char header[4];
  const auto length = static_cast<uint32_t>(record.size());
  std::memcpy(header, &length, 4);
  out_.write(header, 4);
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) {
    return Status::IoError("spill write failed: " + path_);
  }
  const uint64_t offset = write_offset_;
  write_offset_ += 4 + record.size();
  ++live_records_;
  return offset;
}

void SpillFile::Release() {
  if (live_records_ > 0) --live_records_;
  if (live_records_ > 0 || !created_) return;
  // Nothing on disk is live: drop the bytes now and reopen (truncating) on
  // the next Append.
  if (out_.is_open()) out_.close();
  if (in_.is_open()) in_.close();
  std::ofstream(path_, std::ios::binary | std::ios::trunc);
  write_offset_ = 0;
}

Status SpillFile::ReadAt(uint64_t offset, std::string* out) {
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      return Status::IoError("cannot open spill file for read: " + path_);
    }
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  char header[4];
  in_.read(header, 4);
  uint32_t length = 0;
  std::memcpy(&length, header, 4);
  out->resize(length);
  in_.read(out->data(), static_cast<std::streamsize>(length));
  if (!in_) {
    return Status::IoError("spill read failed: " + path_);
  }
  return Status::OK();
}

void SpillFile::Remove() {
  if (out_.is_open()) out_.close();
  if (in_.is_open()) in_.close();
  if (created_) {
    std::remove(path_.c_str());
    created_ = false;
  }
  live_records_ = 0;
  write_offset_ = 0;
}

FrameLog::FrameLog(Options options)
    : options_(std::move(options)),
      spill_(options_.spill_path.empty() ? std::string()
                                         : options_.spill_path + ".spill") {
  SQLINK_CHECK(!options_.spill_enabled || !options_.spill_path.empty())
      << "spill enabled without a spill path";
  MetricsRegistry& metrics = MetricsRegistry::Global();
  depth_frames_ = metrics.GetGauge("stream.spill.queue_depth_frames");
  depth_bytes_ = metrics.GetGauge("stream.spill.queue_depth_bytes");
  spill_frames_total_ = metrics.GetCounter("stream.spill.spilled_frames");
  spill_bytes_total_ = metrics.GetCounter("stream.spill.spilled_bytes");
  drain_frames_total_ = metrics.GetCounter("stream.spill.drained_frames");
  budget_parks_total_ = metrics.GetCounter("stream.spill.budget_parks");
  retention_spill_total_ =
      metrics.GetCounter("stream.replay_window.spilled_frames");
  replayed_total_ = metrics.GetCounter("transfer.frames_replayed");
  spill_write_micros_ = metrics.GetHistogram("stream.spill.write_micros");
  spill_read_micros_ = metrics.GetHistogram("stream.spill.read_micros");
}

FrameLog::~FrameLog() {
  // Undo this log's share of the depth gauges for frames never sent
  // (cancelled or abandoned mid-stream). The SpillFile member deletes its
  // backing file unconditionally.
  if (unsent_frames_ > 0) depth_frames_->Add(-unsent_frames_);
  if (unsent_memory_bytes_ > 0) {
    depth_bytes_->Add(-static_cast<int64_t>(unsent_memory_bytes_));
  }
  ReleaseBudgetLocked(budget_outstanding_);
}

bool FrameLog::ChargeBudgetLocked(int64_t bytes) {
  if (!options_.spill_budget) return true;
  if (!options_.spill_budget->TryCharge(bytes)) {
    budget_parks_total_->Increment();
    return false;
  }
  budget_outstanding_ += bytes;
  return true;
}

void FrameLog::ReleaseBudgetLocked(int64_t bytes) {
  const int64_t release = std::min(bytes, budget_outstanding_);
  if (!options_.spill_budget || release <= 0) return;
  options_.spill_budget->Release(release);
  budget_outstanding_ -= release;
}

void FrameLog::Recycle(std::string* frame) {
  FrameBufferPool::Global()->Release(std::move(*frame));
  *frame = std::string();
}

Status FrameLog::Append(std::string frame, uint64_t rows) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry entry;
  entry.rows = rows;
  entry.bytes = frame.size();
  const auto bytes = static_cast<int64_t>(entry.bytes);
  for (;;) {
    if (cancelled_) return Status::Cancelled("frame log cancelled");
    if (producer_closed_) {
      return Status::FailedPrecondition("append after CloseProducer");
    }
    // An oversized frame is admitted alone so progress is possible.
    if (unsent_memory_bytes_ == 0 ||
        unsent_memory_bytes_ + entry.bytes <= options_.send_buffer_bytes) {
      unsent_memory_bytes_ += entry.bytes;
      depth_bytes_->Add(bytes);
      entry.frame = std::move(frame);
      break;
    }
    // An injected spill failure is evaluated before any bytes reach disk,
    // and the spill budget is charged up front, so either degrades this
    // Append to backpressure; genuine write failures below fail hard.
    if (options_.spill_enabled &&
        SQLINK_FAILPOINT("stream.spill.write") == FailpointOutcome::kNone &&
        ChargeBudgetLocked(bytes)) {
      TraceSpan span("spill.write");
      Stopwatch timer;
      auto offset = spill_.Append(frame);
      if (!offset.ok()) {
        span.SetError();
        ReleaseBudgetLocked(bytes);
        return offset.status();
      }
      entry.on_disk = true;
      entry.offset = *offset;
      Recycle(&frame);
      ++spilled_frames_;
      spill_write_micros_->Record(timer.ElapsedMicros());
      spill_frames_total_->Increment();
      spill_bytes_total_->Add(bytes);
      span.AddAttribute("bytes", bytes);
      break;
    }
    // Backpressure: wait for the sender. Under a spill budget the wake-up
    // may come from a sibling log of the same query releasing shared quota
    // (it signals its own condvar), so poll.
    if (options_.spill_budget && !options_.spill_budget->unlimited()) {
      producer_cv_.wait_for(lock, std::chrono::milliseconds(1));
    } else {
      producer_cv_.wait(lock);
    }
  }
  ++unsent_frames_;
  depth_frames_->Increment();
  ++last_seq_;
  total_rows_ += rows;
  entries_.push_back(std::move(entry));
  sender_cv_.notify_one();
  return Status::OK();
}

void FrameLog::CloseProducer() {
  std::lock_guard<std::mutex> lock(mu_);
  producer_closed_ = true;
  sender_cv_.notify_all();
}

void FrameLog::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  // An aborted query must not leave .spill files for the operator to clean
  // up, and its budget charge must return to neighbor queries.
  spill_.Remove();
  ReleaseBudgetLocked(budget_outstanding_);
  producer_cv_.notify_all();
  sender_cv_.notify_all();
}

FrameLog::ResumePoint FrameLog::Rewind(int64_t requested) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t seq = requested < 0 ? acked_seq_ : static_cast<uint64_t>(requested);
  // Acked frames are gone, and a reader cannot hold an unsent one.
  seq = std::min(std::max(seq, acked_seq_), sent_seq_);
  ResumePoint point{seq, acked_rows_};
  for (uint64_t s = acked_seq_ + 1; s <= seq; ++s) {
    point.rows += EntryLocked(s).rows;
  }
  cursor_ = seq + 1;
  return point;
}

Result<bool> FrameLog::SendNext(const SendFn& send) {
  uint64_t seq = 0;
  const std::string* frame = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    sender_cv_.wait(lock, [this] {
      return cancelled_ || producer_closed_ || cursor_ <= last_seq_;
    });
    if (cancelled_) return Status::Cancelled("frame log cancelled");
    if (cursor_ > last_seq_) return false;
    seq = cursor_;
    Entry& entry = EntryLocked(seq);
    const bool first_send = seq > sent_seq_;
    if (entry.on_disk && !first_send) {
      RETURN_IF_ERROR(spill_.ReadAt(entry.offset, &read_buffer_));
      frame = &read_buffer_;
    } else if (entry.on_disk) {
      if (SQLINK_FAILPOINT("stream.spill.read") != FailpointOutcome::kNone) {
        return Status::IoError("failpoint: injected spill read error");
      }
      TraceSpan span("spill.drain");
      Stopwatch timer;
      const Status read = spill_.ReadAt(entry.offset, &read_buffer_);
      if (!read.ok()) {
        span.SetError();
        return read;
      }
      spill_read_micros_->Record(timer.ElapsedMicros());
      drain_frames_total_->Increment();
      ReleaseBudgetLocked(static_cast<int64_t>(entry.bytes));
      span.AddAttribute("bytes", static_cast<int64_t>(entry.bytes));
      frame = &read_buffer_;
    } else {
      // The producer only appends, and only this thread trims or moves
      // entries, so the buffer stays put while it is sent unlocked.
      frame = &entry.frame;
      if (first_send) {
        unsent_memory_bytes_ -= entry.bytes;
        retained_memory_bytes_ += entry.bytes;
        depth_bytes_->Add(-static_cast<int64_t>(entry.bytes));
        producer_cv_.notify_one();
      }
    }
    if (first_send) {
      sent_seq_ = seq;
      --unsent_frames_;
      depth_frames_->Decrement();
    } else {
      replayed_total_->Increment();
    }
    ++cursor_;
  }
  RETURN_IF_ERROR(send(seq, *frame));
  std::lock_guard<std::mutex> lock(mu_);
  if (cancelled_) return Status::Cancelled("frame log cancelled");
  RETURN_IF_ERROR(EnforceRetentionLocked());
  return true;
}

Status FrameLog::EnforceRetentionLocked() {
  if (!options_.spill_enabled) return Status::OK();
  for (uint64_t seq = acked_seq_ + 1;
       seq <= sent_seq_ && retained_memory_bytes_ > kRetainedMemoryBytes;
       ++seq) {
    Entry& entry = EntryLocked(seq);
    if (entry.on_disk) continue;
    ASSIGN_OR_RETURN(entry.offset, spill_.Append(entry.frame));
    entry.on_disk = true;
    Recycle(&entry.frame);
    retained_memory_bytes_ -= entry.bytes;
    ++retention_spilled_frames_;
    retention_spill_total_->Increment();
  }
  return Status::OK();
}

void FrameLog::Ack(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  seq = std::min(seq, sent_seq_);
  while (acked_seq_ < seq) {
    Entry& front = entries_.front();
    acked_rows_ += front.rows;
    if (front.on_disk) {
      spill_.Release();
    } else {
      retained_memory_bytes_ -= front.bytes;
      Recycle(&front.frame);
    }
    entries_.pop_front();
    ++acked_seq_;
  }
  cursor_ = std::max(cursor_, acked_seq_ + 1);
}

uint64_t FrameLog::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

uint64_t FrameLog::total_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_rows_;
}

int64_t FrameLog::spilled_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spilled_frames_;
}

int64_t FrameLog::retention_spilled_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retention_spilled_frames_;
}

size_t FrameLog::retained_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_memory_bytes_;
}

}  // namespace sqlink
