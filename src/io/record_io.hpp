#pragma once

/// \file record_io.hpp
/// Streaming JSONL record I/O: flushing RecordWriter, tolerant RecordReader
/// (skips malformed/newer lines with positions, survives torn tails).
/// Invariant: a crash costs at most the line in flight; everything readable
/// is replayable.  Collaborators: RecordLogger, resume, ExperienceStore.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "io/record.hpp"

namespace harl {

/// Appends tuning records to a JSONL file, one line per record.
///
/// Durability model: `write` buffers, `flush` pushes the lines to the OS —
/// callers flush at round boundaries so a crash loses at most the round in
/// flight.  When opened in append mode onto a file whose last line was torn
/// by a crash (no trailing newline), the writer first emits a newline so the
/// torn fragment stays an isolated malformed line that the tolerant reader
/// skips, instead of corrupting the next record.
class RecordWriter {
 public:
  RecordWriter() = default;
  ~RecordWriter();
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Opens `path` (append=false truncates).  Returns false on I/O failure.
  bool open(const std::string& path, bool append = true);
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Serialize and append one record.  Returns false when closed or on error.
  bool write(const TuningRecord& rec);
  void flush();
  void close();

  std::size_t written() const { return written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t written_ = 0;
};

/// One skipped input line with its position and reason (malformed JSON with
/// line/column, missing field, incompatible version, ...).
struct RecordReadError {
  std::size_t line_number = 0;  ///< 1-based line within the file
  std::string message;
};

/// The prefix of a record log a reader has consumed: whole lines only, so a
/// torn tail is never covered.  `dev`/`ino` name the file (salvage and
/// compaction rewrite logs through `atomic_write_file`, which makes a new
/// inode), and `fp` fingerprints the last covered line, which catches a log
/// truncated and rewritten in place without hashing the whole prefix.
struct LogCoverage {
  std::uint64_t offset = 0;  ///< bytes through the last complete line
  std::uint64_t lines = 0;   ///< lines within those bytes
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t tail = 0;    ///< length of the last covered line, '\n' included
  std::uint64_t fp = 0;      ///< `fnv1a_nonzero` of those `tail` bytes

  bool operator==(const LogCoverage& o) const {
    return offset == o.offset && lines == o.lines && dev == o.dev &&
           ino == o.ino && tail == o.tail && fp == o.fp;
  }
};

/// True when `path` still begins with the prefix `covered` describes: the
/// same (device, inode), at least `offset` bytes, and the same last covered
/// line.  An empty coverage (offset 0) holds for any file.
bool log_covers(const std::string& path, const LogCoverage& covered);

/// Streams records out of a JSONL file, tolerantly: blank lines are ignored,
/// malformed or incompatible lines are skipped and reported through
/// `errors()` instead of aborting the read, and unknown JSON fields are
/// ignored by the record parser.  A partially-written final line (crash mid
/// append) therefore costs exactly one record.  Lines are cut out of one
/// reusable 64 KiB read buffer, so a log costs one bulk read, not one
/// library call per byte.
class RecordReader {
 public:
  RecordReader() = default;

  /// Returns false when the file cannot be opened.  With a non-empty `from`
  /// (a `coverage()` of an earlier reader of the same file) reading resumes
  /// after the covered prefix, and line numbers count the covered lines, so
  /// they stay absolute.
  bool open(const std::string& path, const LogCoverage& from = {});
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  ~RecordReader();
  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  /// Advance to the next well-formed record.  Returns false at end of file.
  bool next(TuningRecord* rec);
  void close();

  /// The prefix read so far, through the last complete line.  Costs an
  /// fstat, plus one read of the last line when it is new since `open`.
  LogCoverage coverage() const;

  std::size_t lines_read() const { return lines_read_; }
  std::size_t records_read() const { return records_read_; }
  const std::vector<RecordReadError>& errors() const { return errors_; }

 private:
  /// Fills `line_` with the next line, without its '\n'.  False at EOF.
  bool next_line();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<char> buf_;   ///< read buffer, allocated on first use
  std::size_t buf_pos_ = 0; ///< first unconsumed byte of `buf_`
  std::size_t buf_len_ = 0; ///< bytes of `buf_` holding file data
  std::string line_;        ///< the current line, reused across calls
  std::size_t lines_read_ = 0;
  std::size_t records_read_ = 0;
  std::vector<RecordReadError> errors_;
  LogCoverage covered_;     ///< offset/lines/tail; fp valid iff `fp_known_`
  bool fp_known_ = true;
};

/// Convenience: read every well-formed record of `path` (empty when the file
/// does not exist).  `errors` (optional) collects the skipped lines.
std::vector<TuningRecord> read_records(const std::string& path,
                                       std::vector<RecordReadError>* errors = nullptr);

/// Every `*.jsonl` file directly under `dir`, as `dir + "/" + name`, sorted
/// by name.  Empty when `dir` cannot be opened; `*error` (optional) then
/// says so.
std::vector<std::string> jsonl_files(const std::string& dir,
                                     std::string* error = nullptr);

/// Outcome of `salvage_log`.
struct SalvageResult {
  bool attempted = false;        ///< the file existed and was scanned
  bool salvaged = false;         ///< corruption found; the file was rewritten
  std::size_t lines_kept = 0;    ///< lines of the preserved valid prefix
  std::size_t lines_dropped = 0; ///< lines quarantined (first corrupt onward)
  std::string quarantine_path;   ///< the copy of the original when salvaged
  std::string error;             ///< non-empty on I/O failure
};

/// Self-healing for a corrupt record log (bit rot, editor damage, overlapped
/// writes — anything beyond the ordinary torn tail).  Scans `path` line by
/// line; a line is *corrupt* when it is neither blank, nor a well-formed
/// record, nor a well-formed JSON object from a newer schema version (the
/// reader tolerates and counts those).  On corruption before the final line
/// — or on a corrupt final line that ends in '\n', i.e. a completed write —
/// the original bytes are copied to `path + ".quarantine"` (evidence
/// preserved), then the valid prefix before the first corrupt line replaces
/// `path`, byte-exact.  Both writes go through `atomic_write_file`, so the
/// log and its quarantine copy each exist, whole, at every instant.  A torn *tail* (corrupt last line without a trailing
/// newline) is left alone: the tolerant reader and the writer's newline
/// probe already handle it, and the fragment may still be mid-write.
SalvageResult salvage_log(const std::string& path);

}  // namespace harl
