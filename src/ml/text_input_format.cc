#include "ml/text_input_format.h"

#include "common/status_macros.h"
#include "dfs/line_reader.h"

namespace sqlink::ml {

namespace {

/// Lines per NextBatch: amortizes the batch append into the partition.
constexpr size_t kTextBatchRows = 4096;

/// Parses a run of a split's lines straight into the typed column vectors
/// of a batch.
class TextRecordReader final : public RecordReader {
 public:
  TextRecordReader(std::unique_ptr<DfsLineReader> lines, const CsvCodec* codec,
                   SchemaPtr schema)
      : lines_(std::move(lines)), codec_(codec), schema_(std::move(schema)) {}

  bool SupportsBatches() const override { return true; }

  Result<bool> NextBatch(ColumnBatch* out) override {
    out->Reset(schema_);
    out->Reserve(kTextBatchRows);
    while (out->num_rows() < kTextBatchRows && lines_->Next(&line_)) {
      RETURN_IF_ERROR(codec_->ParseRowInto(line_, out));
    }
    RETURN_IF_ERROR(lines_->status());
    return !out->empty();
  }

 private:
  std::unique_ptr<DfsLineReader> lines_;
  const CsvCodec* codec_;
  SchemaPtr schema_;
  std::string line_;  // Reused across lines.
};

}  // namespace

TextFileInputFormat::TextFileInputFormat(DfsPtr dfs, std::string path,
                                         SchemaPtr schema, char delimiter)
    : dfs_(std::move(dfs)),
      path_(std::move(path)),
      schema_(std::move(schema)),
      codec_(delimiter) {}

Result<std::vector<InputSplitPtr>> TextFileInputFormat::GetSplits(
    const JobContext& context) {
  std::vector<std::string> files;
  if (dfs_->Exists(path_)) {
    files.push_back(path_);
  } else {
    files = dfs_->List(path_);
  }
  if (files.empty()) {
    return Status::NotFound("no DFS input at " + path_);
  }
  std::vector<InputSplitPtr> splits;
  for (const std::string& file : files) {
    ASSIGN_OR_RETURN(std::vector<BlockLocation> blocks,
                     dfs_->GetBlockLocations(file));
    for (const BlockLocation& block : blocks) {
      std::vector<std::string> hosts;
      hosts.reserve(block.nodes.size());
      for (int node : block.nodes) {
        hosts.push_back(context.cluster != nullptr
                            ? context.cluster->HostName(node)
                            : "node" + std::to_string(node));
      }
      splits.push_back(std::make_shared<FileSplit>(
          file, block.offset, block.offset + block.length, std::move(hosts)));
    }
  }
  return splits;
}

Result<std::unique_ptr<RecordReader>> TextFileInputFormat::CreateReader(
    const JobContext& context, const InputSplit& split, int worker_id) {
  const auto* file_split = dynamic_cast<const FileSplit*>(&split);
  if (file_split == nullptr) {
    return Status::InvalidArgument("TextFileInputFormat needs a FileSplit");
  }
  // The reader runs on the worker's node; pass it for replica selection.
  int reader_node = -1;
  if (context.cluster != nullptr) {
    const auto locations = file_split->Locations();
    if (!locations.empty()) {
      reader_node = context.cluster->NodeFromHostName(
          locations[static_cast<size_t>(worker_id) % locations.size()]);
    }
  }
  ASSIGN_OR_RETURN(std::unique_ptr<DfsReader> reader,
                   dfs_->Open(file_split->path(), reader_node));
  auto lines = std::make_unique<DfsLineReader>(
      std::move(reader), file_split->start(), file_split->end());
  return std::unique_ptr<RecordReader>(
      new TextRecordReader(std::move(lines), &codec_, schema_));
}

}  // namespace sqlink::ml
