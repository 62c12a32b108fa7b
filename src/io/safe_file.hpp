#pragma once

/// \file safe_file.hpp
/// Self-verifying file IO for the single-blob artifacts (GBDT models,
/// knowledge caches): a CRC-32 footer line that detects truncation and bit
/// rot, and an atomic tmp+rename writer with optional fsync for a durable
/// publish.  Record logs stay line-granular (torn-tail probe + salvage in
/// record_io) — a whole-file checksum would reject a log for one bad line.
/// Collaborators: gbdt_io (save/load_gbdt), knowledge_cache (save/load_cache),
/// shard_snapshot (shard snapshots).

#include <cstddef>
#include <cstdint>
#include <string>

namespace harl {

/// CRC-32 (IEEE 802.3, the zlib polynomial) of a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

/// The footer marker: a final line `#harl-crc32 <8 hex digits>\n` whose
/// checksum covers every byte before it.
inline constexpr const char kChecksumFooterPrefix[] = "#harl-crc32 ";

/// Append the checksum footer line to `body` (which should end in '\n').
std::string with_checksum_footer(std::string body);

/// Verify and strip the checksum footer of `*text` in place.  Returns false
/// with a reason in `*error` when the footer is missing (truncated or
/// foreign file) or the checksum does not match (corrupt file).
bool strip_checksum_footer(std::string* text, std::string* error);

/// Write `text` to `path` atomically: tmp file in the same directory, then
/// rename over the target, so readers only ever see the old or the new
/// complete file.  With `fsync_publish` the data is fsync'd before the
/// rename and the parent directory after it, making the publish durable
/// across power loss at the cost of two syncs.
bool atomic_write_file(const std::string& path, const std::string& text,
                       bool fsync_publish, std::string* error);

/// Read the whole of `path` into `*text`.  Returns false with a
/// path-prefixed reason in `*error`.
bool read_text_file(const std::string& path, std::string* text,
                    std::string* error);

/// `read_text_file`, then `strip_checksum_footer`: `*text` is the verified
/// body.  Every failure reason in `*error` is prefixed with the path.
bool read_checked_file(const std::string& path, std::string* text,
                       std::string* error);

}  // namespace harl
