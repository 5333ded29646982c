// Test helper for stream/frame_log.h: drives a FrameLog's sender side as a
// plain FIFO (send the frame at the cursor, ack it at once).

#ifndef SQLINK_TESTS_FRAME_LOG_UTIL_H_
#define SQLINK_TESTS_FRAME_LOG_UTIL_H_

#include <string>

#include "stream/frame_log.h"

namespace sqlink {

/// Sends the next frame into `*out` and acks it. False at the end of the
/// stream; an error after Cancel().
inline Result<bool> PopFrame(FrameLog* log, std::string* out) {
  uint64_t sent = 0;
  Result<bool> got =
      log->SendNext([&](uint64_t seq, const std::string& frame) {
        sent = seq;
        *out = frame;
        return Status::OK();
      });
  if (got.ok() && *got) log->Ack(sent);
  return got;
}

}  // namespace sqlink

#endif  // SQLINK_TESTS_FRAME_LOG_UTIL_H_
