#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "io/record.hpp"
#include "io/record_io.hpp"
#include "io/safe_file.hpp"
#include "sched/schedule.hpp"
#include "sched/sketch.hpp"
#include "util/rng.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

// ---------------------------------------------------------------- JSON

/// Validates `text` as one document; false with `*err` filled on a syntax
/// error.
bool validate(const std::string& text, json::ParseError* err) {
  json::Cursor c(text, err);
  return c.skip_value() && c.finish();
}

TEST(Json, ParsesScalarsAndContainers) {
  const std::string text = "{\"a\":1,\"b\":[true,null,\"x\"],\"c\":-2.5e3}";
  static constexpr std::string_view kNames[] = {"a", "b", "c"};
  json::ParseError err;
  json::Cursor c(text, &err);
  json::Members<3> m(kNames);
  std::vector<json::Kind> kinds;
  std::string x;
  bool b = false;
  bool is_object = false;
  ASSERT_TRUE(m.read_document(c, &is_object, [&](std::size_t, json::Kind) {
    json::Kind kind;
    c.enter_array();
    while (c.next_item()) {
      if (!c.peek(&kind)) return false;
      kinds.push_back(kind);
      if (kind == json::Kind::kBool && !c.read_bool(&b)) return false;
      if (kind == json::Kind::kNull && !c.read_null()) return false;
      if (kind == json::Kind::kString && !c.read_string(&x)) return false;
    }
    return c.ok();
  })) << err.to_string();
  ASSERT_TRUE(is_object);
  EXPECT_EQ(m[0].int64(0), 1);
  EXPECT_TRUE(m[1].is(json::Kind::kArray));
  EXPECT_EQ(kinds, (std::vector<json::Kind>{json::Kind::kBool, json::Kind::kNull,
                                            json::Kind::kString}));
  EXPECT_TRUE(b);
  EXPECT_EQ(x, "x");
  EXPECT_DOUBLE_EQ(m[2].number(0), -2500.0);
}

TEST(Json, PreservesUint64Fidelity) {
  // 2^64 - 1 does not fit a double; the raw token keeps every digit.
  static constexpr std::string_view kNames[] = {"hw"};
  const std::string text = "{\"hw\":18446744073709551615}";
  json::ParseError err;
  json::Cursor c(text, &err);
  json::Members<1> m(kNames);
  bool is_object = false;
  ASSERT_TRUE(m.read_document(c, &is_object));
  EXPECT_EQ(m[0].uint64(0), 18446744073709551615ULL);
  EXPECT_EQ(m[0].token, "18446744073709551615");
}

TEST(Json, ReportsLineAndColumn) {
  json::ParseError err;
  EXPECT_FALSE(validate("{\"a\":1,}", &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_EQ(err.column, 8);

  EXPECT_FALSE(validate("{\n  \"a\": @\n}", &err));
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.column, 8);

  EXPECT_FALSE(validate("{\"a\":1} trailing", &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_EQ(err.column, 9);
}

TEST(Json, StringEscapes) {
  json::ParseError err;
  const std::string text = "\"a\\n\\t\\\"b\\\\c\\u0041\"";
  json::Cursor c(text, &err);
  std::string s;
  ASSERT_TRUE(c.read_string(&s) && c.finish()) << err.to_string();
  EXPECT_EQ(s, "a\n\t\"b\\cA");
  // A raw token decodes to the same bytes.
  json::Cursor raw(text, &err);
  std::string_view token;
  ASSERT_TRUE(raw.read_token(json::Kind::kString, &token));
  std::string decoded;
  json::append_unescaped(&decoded, token);
  EXPECT_EQ(decoded, s);
  // escape() emits a literal that parses back to the same bytes.
  const std::string wild = "tab\tquote\"backslash\\newline\nctrl\x01";
  const std::string literal = json::escape(wild);
  json::Cursor round(literal, &err);
  ASSERT_TRUE(round.read_string(&s));
  EXPECT_EQ(s, wild);
}

TEST(Json, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 6.795162141492879, 1e-300,
                   123456789.123456789, 2.2250738585072014e-308}) {
    const std::string text = json::format_double(v);
    json::ParseError err;
    json::Cursor c(text, &err);
    std::string_view token;
    ASSERT_TRUE(c.read_number(&token) && c.finish());
    EXPECT_EQ(json::number_to_double(token, -1), v) << text;
  }
}

TEST(Json, DuplicateKeysLastWins) {
  static constexpr std::string_view kNames[] = {"a"};
  const std::string text = "{\"a\":1,\"a\":2}";
  json::ParseError err;
  json::Cursor c(text, &err);
  json::Members<1> m(kNames);
  bool is_object = false;
  ASSERT_TRUE(m.read_document(c, &is_object));
  EXPECT_EQ(m[0].int64(0), 2);
}

// ------------------------------------------------------------ round trip

std::vector<Subgraph> fuzz_subgraphs() {
  std::vector<Subgraph> graphs;
  graphs.push_back(make_gemm(128, 96, 64, 1, "rt_gemm"));       // T / T+CW / T+RF
  graphs.push_back(make_conv2d(1, 14, 14, 32, 64, 3, 1, 1, "rt_conv"));
  graphs.push_back(make_softmax(64, 256, "rt_softmax"));        // reduction + ew
  graphs.push_back(make_elementwise(1 << 12, 2.0, "rt_ew"));    // kSimple
  graphs.push_back(make_gemm_act(64, 64, 96, "tanh", "rt_fused"));  // fusion
  graphs.push_back(make_depthwise_conv2d(1, 16, 16, 32, 3, 1, 1, "rt_dw"));
  return graphs;
}

TuningRecord record_for(const Schedule& sched, double time_ms,
                        std::int64_t trial) {
  TuningRecord rec;
  rec.network = "fuzz_net";
  rec.task = sched.graph().name();
  rec.task_index = 0;
  rec.hardware_fp = 0xdeadbeefcafef00dULL;
  rec.policy = "HARL";
  rec.seed = 12345;
  rec.sketch_id = sched.sketch->sketch_id;
  rec.sketch_tag = sched.sketch->tag;
  rec.stages = decisions_from_schedule(sched);
  rec.time_ms = time_ms;
  rec.trial_index = trial;
  rec.cached = (trial % 3) == 0;
  return rec;
}

// The satellite acceptance test: random valid schedules across all sketch
// kinds survive serialize -> parse -> reconstruct with fingerprint equality
// and byte-identical re-serialization.
TEST(RecordRoundTrip, FuzzAllSketchKinds) {
  Rng rng(2026);
  const int kNumUnroll = 4;  // matches xeon_6226r()
  int schedules_checked = 0;
  for (const Subgraph& graph : fuzz_subgraphs()) {
    std::vector<Sketch> sketches = generate_sketches(graph);
    ASSERT_FALSE(sketches.empty()) << graph.name();
    for (const Sketch& sketch : sketches) {
      for (int i = 0; i < 25; ++i) {
        Schedule sched = random_schedule(sketch, kNumUnroll, rng);
        ASSERT_EQ(validate_schedule(sched, kNumUnroll), "");
        TuningRecord rec =
            record_for(sched, 0.001 + rng.next_double(), schedules_checked);

        std::string line = record_to_json(rec);
        TuningRecord parsed;
        std::string error;
        ASSERT_TRUE(record_from_json(line, &parsed, &error)) << error;
        EXPECT_TRUE(parsed == rec) << line;
        // Byte-identical re-serialization.
        EXPECT_EQ(record_to_json(parsed), line);

        Schedule rebuilt =
            schedule_from_record(parsed, sketches, kNumUnroll, &error);
        ASSERT_NE(rebuilt.sketch, nullptr) << error;
        EXPECT_EQ(rebuilt.fingerprint(), sched.fingerprint());
        ++schedules_checked;
      }
    }
  }
  EXPECT_GT(schedules_checked, 200);  // all sketch kinds actually covered
}

TEST(RecordRoundTrip, UnknownFieldsIgnored) {
  Rng rng(7);
  Subgraph g = make_gemm(32, 32, 32, 1, "uf_gemm");
  std::vector<Sketch> sketches = generate_sketches(g);
  Schedule sched = random_schedule(sketches[0], 4, rng);
  TuningRecord rec = record_for(sched, 1.5, 0);
  std::string line = record_to_json(rec);
  // Splice a future field into the object (forward compatibility).
  std::string extended = "{\"future_field\":[1,{\"x\":2}]," + line.substr(1);
  TuningRecord parsed;
  std::string error;
  ASSERT_TRUE(record_from_json(extended, &parsed, &error)) << error;
  EXPECT_TRUE(parsed == rec);
}

TEST(RecordRoundTrip, ReconstructionRejectsCorruptDecisions) {
  Rng rng(11);
  Subgraph g = make_gemm(32, 32, 32, 1, "bad_gemm");
  std::vector<Sketch> sketches = generate_sketches(g);
  Schedule sched = random_schedule(sketches[0], 4, rng);
  TuningRecord rec = record_for(sched, 1.5, 0);

  std::string error;
  TuningRecord wrong_sketch = rec;
  wrong_sketch.sketch_id = 999;
  EXPECT_EQ(schedule_from_record(wrong_sketch, sketches, 4, &error).sketch, nullptr);
  EXPECT_NE(error.find("unknown sketch"), std::string::npos);

  TuningRecord wrong_tag = rec;
  wrong_tag.sketch_tag = "T+NOPE";
  EXPECT_EQ(schedule_from_record(wrong_tag, sketches, 4, &error).sketch, nullptr);

  TuningRecord bad_tiles = rec;
  bad_tiles.stages[0].tiles[0][0] += 1;  // product no longer matches extent
  EXPECT_EQ(schedule_from_record(bad_tiles, sketches, 4, &error).sketch, nullptr);
  EXPECT_NE(error.find("invalid"), std::string::npos);
}

// ------------------------------------------------------------- reader

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_("harl_test_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void write(const std::string& content) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
  }

 private:
  std::string path_;
};

std::string valid_line() {
  Rng rng(3);
  static Subgraph g = make_gemm(16, 16, 16, 1, "line_gemm");
  static std::vector<Sketch> sketches = generate_sketches(g);
  Schedule sched = random_schedule(sketches[0], 4, rng);
  return record_to_json(record_for(sched, 0.25, 1));
}

// The malformed-line corpus: the tolerant reader must keep every good record
// and report each bad line with its 1-based position and a reason.
TEST(RecordReader, MalformedCorpus) {
  std::string good = valid_line();
  std::string content;
  content += good + "\n";                                 // 1: ok
  content += "\n";                                        // 2: blank (silent)
  content += "{\"v\":1\n";                                // 3: truncated JSON
  content += "not json at all\n";                         // 4: garbage
  content += "[1,2,3]\n";                                 // 5: not an object
  content += "{\"v\":1}\n";                               // 6: missing fields
  content += "{\"v\":99" + good.substr(6) + "\n";         // 7: future version
  content += good.substr(0, good.size() / 2) + "\n";      // 8: torn line
  content += "   \t  \n";                                 // 9: whitespace (silent)
  content += good + "\n";                                 // 10: ok
  std::string bad_type = good;
  std::size_t pos = bad_type.find("\"cached\":");
  bad_type.replace(pos, std::string("\"cached\":false").size(), "\"cached\":\"no\"");
  content += bad_type + "\n";                             // 11: wrong type
  content += good;                                        // 12: ok, no newline

  TempFile file("malformed.jsonl");
  file.write(content);

  std::vector<RecordReadError> errors;
  std::vector<TuningRecord> records = read_records(file.path(), &errors);
  EXPECT_EQ(records.size(), 3u);
  ASSERT_EQ(errors.size(), 7u);
  EXPECT_EQ(errors[0].line_number, 3u);
  EXPECT_EQ(errors[1].line_number, 4u);
  EXPECT_EQ(errors[2].line_number, 5u);
  EXPECT_EQ(errors[3].line_number, 6u);
  EXPECT_NE(errors[3].message.find("missing required field"), std::string::npos);
  EXPECT_EQ(errors[4].line_number, 7u);
  EXPECT_NE(errors[4].message.find("incompatible version"), std::string::npos);
  EXPECT_EQ(errors[5].line_number, 8u);
  EXPECT_NE(errors[5].message.find("line "), std::string::npos);  // parse position
  EXPECT_EQ(errors[6].line_number, 11u);
  EXPECT_NE(errors[6].message.find("\"cached\""), std::string::npos);
}

TEST(RecordWriter, AppendAfterTornLineStartsFresh) {
  std::string good = valid_line();
  TempFile file("torn.jsonl");
  file.write(good + "\n" + good.substr(0, good.size() / 2));  // torn tail

  TuningRecord rec;
  std::string error;
  ASSERT_TRUE(record_from_json(good, &rec, &error)) << error;

  RecordWriter writer;
  ASSERT_TRUE(writer.open(file.path(), /*append=*/true));
  ASSERT_TRUE(writer.write(rec));
  writer.close();

  std::vector<RecordReadError> errors;
  std::vector<TuningRecord> records = read_records(file.path(), &errors);
  EXPECT_EQ(records.size(), 2u);  // torn line isolated, new record intact
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line_number, 2u);
}

TEST(RecordWriter, TruncateModeAndCounts) {
  TuningRecord rec;
  std::string error;
  ASSERT_TRUE(record_from_json(valid_line(), &rec, &error)) << error;

  TempFile file("truncate.jsonl");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(file.path(), /*append=*/false));
    EXPECT_TRUE(writer.write(rec));
    EXPECT_TRUE(writer.write(rec));
    EXPECT_EQ(writer.written(), 2u);
  }
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(file.path(), /*append=*/false));  // truncates
    EXPECT_TRUE(writer.write(rec));
  }
  EXPECT_EQ(read_records(file.path()).size(), 1u);
}

// Reads `content` through one RecordReader and pins its counters.
struct ReadOutcome {
  std::size_t lines_read = 0;
  std::size_t records_read = 0;
  std::vector<std::size_t> error_lines;
  std::vector<TuningRecord> records;
};

ReadOutcome read_content(const std::string& name, const std::string& content) {
  TempFile file(name);
  file.write(content);
  ReadOutcome out;
  RecordReader reader;
  EXPECT_TRUE(reader.open(file.path()));
  TuningRecord rec;
  while (reader.next(&rec)) out.records.push_back(rec);
  EXPECT_FALSE(reader.next(&rec));  // end of file stays the end
  out.lines_read = reader.lines_read();
  out.records_read = reader.records_read();
  for (const RecordReadError& e : reader.errors()) {
    out.error_lines.push_back(e.line_number);
  }
  return out;
}

TEST(RecordReader, FinalLineWithoutNewlineIsParsed) {
  std::string good = valid_line();
  ReadOutcome r = read_content("no_newline.jsonl", good + "\n" + good);
  EXPECT_EQ(r.lines_read, 2u);
  EXPECT_EQ(r.records_read, 2u);
  EXPECT_TRUE(r.error_lines.empty());
  EXPECT_EQ(record_to_json(r.records[1]), good);
}

TEST(RecordReader, CrlfLinesParse) {
  std::string good = valid_line();
  ReadOutcome r =
      read_content("crlf.jsonl", good + "\r\n" + good + "\r\n\r\n" + good + "\r");
  EXPECT_EQ(r.lines_read, 4u);
  EXPECT_EQ(r.records_read, 3u);
  EXPECT_TRUE(r.error_lines.empty());
  for (const TuningRecord& rec : r.records) EXPECT_EQ(record_to_json(rec), good);
}

TEST(RecordReader, BlankAndWhitespaceLinesAreCountedNotReported) {
  std::string good = valid_line();
  std::string content = "\n";                  // 1
  content += " \t \n";                          // 2
  content += good + "\n";                       // 3
  content += "\r\n";                            // 4
  content += "\n";                              // 5
  content += good + "\n";                       // 6
  content += "  \t";                            // 7: whitespace, no newline
  ReadOutcome r = read_content("blank.jsonl", content);
  EXPECT_EQ(r.lines_read, 7u);
  EXPECT_EQ(r.records_read, 2u);
  EXPECT_TRUE(r.error_lines.empty());

  ReadOutcome empty = read_content("empty.jsonl", "");
  EXPECT_EQ(empty.lines_read, 0u);
  EXPECT_EQ(empty.records_read, 0u);
}

TEST(RecordReader, LinesLongerThan64KiB) {
  std::string good = valid_line();
  // An unknown field makes a valid record of 100 KB; the same bulk as
  // garbage makes a long malformed line.  Both straddle any buffer size.
  std::string big = good.substr(0, good.size() - 1) + ",\"pad\":\"" +
                    std::string(100000, 'x') + "\"}";
  std::string junk(70000, 'z');
  ReadOutcome r = read_content(
      "long.jsonl", good + "\n" + big + "\n" + junk + "\n" + big + "\n" + good);
  EXPECT_EQ(r.lines_read, 5u);
  EXPECT_EQ(r.records_read, 4u);
  ASSERT_EQ(r.error_lines.size(), 1u);
  EXPECT_EQ(r.error_lines[0], 3u);
  EXPECT_EQ(record_to_json(r.records[1]), good);  // the pad is not a field
}

TEST(RecordReader, EmbeddedNulByteIsAMalformedLine) {
  std::string good = valid_line();
  std::string nul_line = good;
  nul_line.insert(nul_line.size() / 2, 1, '\0');
  std::string content = good + "\n" + nul_line + "\n" + good + "\n";
  content += std::string("\0", 1) + "\n";  // a lone NUL is not blank
  content += good + "\n";
  ReadOutcome r = read_content("nul.jsonl", content);
  EXPECT_EQ(r.lines_read, 5u);
  EXPECT_EQ(r.records_read, 3u);
  EXPECT_EQ(r.error_lines, (std::vector<std::size_t>{2, 4}));
}

TEST(RecordReader, MalformedLineInTheMiddle) {
  std::string good = valid_line();
  ReadOutcome r = read_content(
      "middle.jsonl", good + "\n" + good + "\n{\"v\":1,\"net\"\n" + good + "\n");
  EXPECT_EQ(r.lines_read, 4u);
  EXPECT_EQ(r.records_read, 3u);
  EXPECT_EQ(r.error_lines, (std::vector<std::size_t>{3}));
}

TEST(RecordReader, MissingFileIsEmpty) {
  EXPECT_TRUE(read_records("harl_test_definitely_missing.jsonl").empty());
  RecordReader reader;
  EXPECT_FALSE(reader.open("harl_test_definitely_missing.jsonl"));
}

// ---------------------------------------------------------------- coverage

void append_to(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::vector<std::size_t> error_lines(const RecordReader& reader) {
  std::vector<std::size_t> out;
  for (const RecordReadError& e : reader.errors()) out.push_back(e.line_number);
  return out;
}

TEST(RecordReader, OffsetOpenKeepsAbsoluteLineNumbers) {
  const std::string good = valid_line();
  TempFile file("offset.jsonl");
  const std::string head = good + "\n\n" + good + "\n";
  file.write(head);
  RecordReader reader;
  TuningRecord rec;
  ASSERT_TRUE(reader.open(file.path()));
  while (reader.next(&rec)) {
  }
  const LogCoverage covered = reader.coverage();
  EXPECT_EQ(covered.offset, head.size());
  EXPECT_EQ(covered.lines, 3u);
  EXPECT_EQ(covered.tail, good.size() + 1);
  EXPECT_NE(covered.ino, 0u);
  EXPECT_TRUE(log_covers(file.path(), covered));

  // The tail: a malformed line, a record, a blank line, a malformed line.
  const std::string tail = "{\"v\":1\n" + good + "\n\nnope\n";
  append_to(file.path(), tail);
  ASSERT_TRUE(reader.open(file.path(), covered));
  int records = 0;
  while (reader.next(&rec)) ++records;
  EXPECT_EQ(records, 1);
  EXPECT_EQ(record_to_json(rec), good);
  EXPECT_EQ(reader.lines_read(), 7u);
  EXPECT_EQ(error_lines(reader), (std::vector<std::size_t>{4, 7}));
  const LogCoverage now = reader.coverage();
  EXPECT_EQ(now.offset, head.size() + tail.size());
  EXPECT_EQ(now.lines, 7u);
  EXPECT_EQ(now.tail, 5u);
  EXPECT_EQ(now.dev, covered.dev);
  EXPECT_EQ(now.ino, covered.ino);
  EXPECT_TRUE(log_covers(file.path(), covered));  // appends keep a prefix
  EXPECT_TRUE(log_covers(file.path(), now));

  // Nothing new: the coverage stays as it was opened.
  ASSERT_TRUE(reader.open(file.path(), now));
  EXPECT_FALSE(reader.next(&rec));
  EXPECT_TRUE(reader.coverage() == now);
}

TEST(RecordReader, TornTailIsNeverCovered) {
  const std::string good = valid_line();
  TempFile file("torn_cover.jsonl");
  const std::string whole = good + "\n" + good + "\n";
  file.write(whole + good.substr(0, good.size() / 2));
  RecordReader reader;
  TuningRecord rec;
  ASSERT_TRUE(reader.open(file.path()));
  int records = 0;
  while (reader.next(&rec)) ++records;
  EXPECT_EQ(records, 2);
  EXPECT_EQ(reader.lines_read(), 3u);  // the fragment is read, and skipped
  const LogCoverage covered = reader.coverage();
  EXPECT_EQ(covered.offset, whole.size());
  EXPECT_EQ(covered.lines, 2u);
  EXPECT_EQ(covered.tail, good.size() + 1);

  // A writer isolates the fragment on its own line; a reader resuming at
  // the coverage sees it as line 3 and the new record as line 4.
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(file.path(), /*append=*/true));
    TuningRecord again;
    std::string error;
    ASSERT_TRUE(record_from_json(good, &again, &error)) << error;
    ASSERT_TRUE(writer.write(again));
  }
  ASSERT_TRUE(reader.open(file.path(), covered));
  records = 0;
  while (reader.next(&rec)) ++records;
  EXPECT_EQ(records, 1);
  EXPECT_EQ(error_lines(reader), (std::vector<std::size_t>{3}));
  const LogCoverage now = reader.coverage();
  EXPECT_EQ(now.lines, 4u);
  EXPECT_EQ(now.tail, good.size() + 1);
  std::string text;
  ASSERT_TRUE(read_text_file(file.path(), &text, nullptr));
  EXPECT_EQ(now.offset, text.size());
}

TEST(RecordReader, CoverageRejectsRewrittenLogs) {
  const std::string good = valid_line();
  const std::size_t ms = good.find("\"ms\":0.25");
  ASSERT_NE(ms, std::string::npos);
  std::string other = good;
  other[ms + 8] = '7';  // 0.25 -> 0.75, same length
  const std::string original = good + "\n" + good + "\n";
  TempFile file("rewrite_cover.jsonl");
  file.write(original);
  RecordReader reader;
  TuningRecord rec;
  ASSERT_TRUE(reader.open(file.path()));
  while (reader.next(&rec)) {
  }
  const LogCoverage covered = reader.coverage();
  reader.close();
  ASSERT_TRUE(log_covers(file.path(), covered));

  // Truncated and rewritten in place (same inode): the last covered line
  // differs, though the file is as long as before.
  file.write(good + "\n" + other + "\n" + good + "\n");
  EXPECT_FALSE(log_covers(file.path(), covered));
  // Shorter than the covered prefix.
  file.write(good + "\n");
  EXPECT_FALSE(log_covers(file.path(), covered));
  // The same bytes in place again: covered.
  file.write(original);
  EXPECT_TRUE(log_covers(file.path(), covered));
  // The same bytes through a new inode, as salvage and compaction write.
  ASSERT_TRUE(atomic_write_file(file.path(), original, false, nullptr));
  EXPECT_FALSE(log_covers(file.path(), covered));
  std::remove(file.path().c_str());
  EXPECT_FALSE(log_covers(file.path(), covered));
  EXPECT_TRUE(log_covers(file.path(), LogCoverage{}));  // nothing covered
}

}  // namespace
}  // namespace harl
