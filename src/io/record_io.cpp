#include "io/record_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "io/json.hpp"
#include "io/safe_file.hpp"
#include "util/fnv.hpp"

namespace harl {

namespace {

/// Blank and whitespace-only lines are skipped silently by the reader.
bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

/// Fingerprint of the last line `c` covers, read back from `fd`.  False when
/// those bytes cannot be read or do not end a line.
bool last_line_fp(int fd, const LogCoverage& c, std::uint64_t* fp) {
  if (c.tail == 0 || c.tail > c.offset) return false;
  std::string line(c.tail, '\0');
  const ssize_t got = ::pread(fd, line.data(), line.size(),
                              static_cast<off_t>(c.offset - c.tail));
  if (got != static_cast<ssize_t>(line.size()) || line.back() != '\n') {
    return false;
  }
  *fp = fnv1a_nonzero(line);
  return true;
}

}  // namespace

bool log_covers(const std::string& path, const LogCoverage& covered) {
  if (covered.offset == 0) return true;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st{};
  std::uint64_t fp = 0;
  const bool ok = ::fstat(fd, &st) == 0 &&
                  static_cast<std::uint64_t>(st.st_dev) == covered.dev &&
                  static_cast<std::uint64_t>(st.st_ino) == covered.ino &&
                  static_cast<std::uint64_t>(st.st_size) >= covered.offset &&
                  last_line_fp(fd, covered, &fp) && fp == covered.fp;
  ::close(fd);
  return ok;
}

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

bool RecordReader::open(const std::string& path, const LogCoverage& from) {
  close();
  lines_read_ = static_cast<std::size_t>(from.lines);
  records_read_ = 0;
  errors_.clear();
  covered_ = from;
  fp_known_ = true;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return false;
  if (from.offset > 0 &&
      ::fseeko(file_, static_cast<off_t>(from.offset), SEEK_SET) != 0) {
    close();
    return false;
  }
  path_ = path;
  return true;
}

LogCoverage RecordReader::coverage() const {
  LogCoverage c = covered_;
  if (file_ == nullptr) return c;
  const int fd = ::fileno(file_);
  struct stat st{};
  if (::fstat(fd, &st) == 0) {
    c.dev = static_cast<std::uint64_t>(st.st_dev);
    c.ino = static_cast<std::uint64_t>(st.st_ino);
  }
  if (!fp_known_ && !last_line_fp(fd, c, &c.fp)) c.fp = 0;
  return c;
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
    covered_.tail = line_.size() + 1;
    covered_.offset += covered_.tail;
    ++covered_.lines;
    fp_known_ = false;
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

std::vector<std::string> jsonl_files(const std::string& dir,
                                     std::string* error) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (error != nullptr) *error = "cannot open directory " + dir;
    return out;
  }
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
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
  static constexpr std::string_view kVersionName[] = {"v"};
  json::ParseError perr;
  json::Cursor c(line, &perr);
  json::Members<1> m(kVersionName);
  bool is_object = false;
  return m.read_document(c, &is_object) && m[0].is(json::Kind::kNumber) &&
         m[0].int64(0) > kRecordSchemaVersion;
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
