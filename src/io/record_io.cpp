#include "io/record_io.hpp"

#include <cstring>

#include "io/json.hpp"
#include "io/safe_file.hpp"

namespace harl {

namespace {

/// Blank and whitespace-only lines are skipped silently by the reader.
bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------- writer

RecordWriter::~RecordWriter() { close(); }

bool RecordWriter::open(const std::string& path, bool append) {
  close();
  bool needs_newline = false;
  if (append) {
    // Detect a torn final line from a previous crash: if the file exists and
    // does not end in '\n', start our first record on a fresh line.
    if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
      if (std::fseek(probe, -1, SEEK_END) == 0) {
        int last = std::fgetc(probe);
        needs_newline = last != '\n' && last != EOF;
      }
      std::fclose(probe);
    }
  }
  file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file_ == nullptr) return false;
  path_ = path;
  written_ = 0;
  if (needs_newline) std::fputc('\n', file_);
  return true;
}

bool RecordWriter::write(const TuningRecord& rec) {
  if (file_ == nullptr) return false;
  std::string line = record_to_json(rec);
  line += '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) return false;
  ++written_;
  return true;
}

void RecordWriter::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void RecordWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

// ---------------------------------------------------------------- reader

RecordReader::~RecordReader() { close(); }

bool RecordReader::open(const std::string& path) {
  close();
  lines_read_ = 0;
  records_read_ = 0;
  errors_.clear();
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ != nullptr) path_ = path;
  return file_ != nullptr;
}

void RecordReader::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
  buf_pos_ = 0;
  buf_len_ = 0;
}

bool RecordReader::next_line() {
  line_.clear();
  for (;;) {
    if (buf_pos_ == buf_len_) {
      if (buf_.empty()) buf_.resize(1 << 16);
      buf_len_ = std::fread(buf_.data(), 1, buf_.size(), file_);
      buf_pos_ = 0;
      // End of file: a final line without its newline is still a line.
      if (buf_len_ == 0) return !line_.empty();
    }
    const char* start = buf_.data() + buf_pos_;
    const std::size_t avail = buf_len_ - buf_pos_;
    const void* nl = std::memchr(start, '\n', avail);
    if (nl == nullptr) {
      line_.append(start, avail);
      buf_pos_ = buf_len_;
      continue;
    }
    const std::size_t len = static_cast<const char*>(nl) - start;
    line_.append(start, len);
    buf_pos_ += len + 1;
    return true;
  }
}

bool RecordReader::next(TuningRecord* rec) {
  if (file_ == nullptr) return false;
  while (next_line()) {
    ++lines_read_;
    if (is_blank(line_)) continue;
    std::string error;
    if (record_from_json(line_, rec, &error)) {
      ++records_read_;
      return true;
    }
    errors_.push_back({lines_read_, error});
  }
  return false;
}

std::vector<TuningRecord> read_records(const std::string& path,
                                       std::vector<RecordReadError>* errors) {
  std::vector<TuningRecord> out;
  RecordReader reader;
  if (!reader.open(path)) return out;
  TuningRecord rec;
  while (reader.next(&rec)) out.push_back(rec);
  if (errors != nullptr) *errors = reader.errors();
  return out;
}

// ---------------------------------------------------------------- salvage

namespace {

/// A line the tolerant reader accepts or merely counts: blank, a well-formed
/// record, or a well-formed JSON object from a newer schema version.
bool line_is_tolerable(const std::string& line) {
  if (is_blank(line)) return true;
  TuningRecord rec;
  std::string error;
  if (record_from_json(line, &rec, &error)) return true;
  json::ParseError perr;
  json::Value obj = json::parse(line, &perr);
  if (!perr.ok || !obj.is_object()) return false;
  const json::Value* v = obj.find("v");
  return v != nullptr && v->is_number() &&
         v->as_int64() > kRecordSchemaVersion;
}

}  // namespace

SalvageResult salvage_log(const std::string& path) {
  SalvageResult out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;  // nothing to salvage
  out.attempted = true;

  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    out.error = path + ": read error";
    return out;
  }

  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  const bool ends_with_newline = !text.empty() && text.back() == '\n';

  std::size_t first_corrupt = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!line_is_tolerable(lines[i])) {
      first_corrupt = i;
      break;
    }
  }
  if (first_corrupt == lines.size()) {
    out.lines_kept = lines.size();
    return out;  // healthy (or merely forward-versioned) file
  }
  if (first_corrupt == lines.size() - 1 && !ends_with_newline) {
    // Torn tail: possibly still being appended; the reader skips it and the
    // writer's newline probe isolates it.  Not ours to rewrite.
    out.lines_kept = lines.size() - 1;
    return out;
  }

  // Real corruption: preserve the evidence, keep the valid prefix.
  std::string prefix;
  for (std::size_t i = 0; i < first_corrupt; ++i) {
    prefix += lines[i];
    prefix += '\n';
  }
  // Quarantine copy first, then the prefix over `path`: each write is
  // atomic, so both files exist at every instant.
  std::string quarantine = path + ".quarantine";
  if (!atomic_write_file(quarantine, text, /*fsync_publish=*/false, &out.error) ||
      !atomic_write_file(path, prefix, /*fsync_publish=*/false, &out.error)) {
    return out;
  }
  out.salvaged = true;
  out.lines_kept = first_corrupt;
  out.lines_dropped = lines.size() - first_corrupt;
  out.quarantine_path = std::move(quarantine);
  return out;
}

}  // namespace harl
