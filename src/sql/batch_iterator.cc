#include "sql/batch_iterator.h"

#include "common/status_macros.h"

namespace sqlink {

Result<bool> BatchToRowIterator::Next(Row* row) {
  while (batch_ == nullptr || pos_ >= batch_->num_rows()) {
    if (done_) return false;
    ASSIGN_OR_RETURN(bool has, child_->NextView(&scratch_, &batch_));
    if (!has) {
      done_ = true;
      return false;
    }
    pos_ = 0;
  }
  batch_->EmitRow(pos_++, row);
  return true;
}

}  // namespace sqlink
