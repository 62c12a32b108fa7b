#include "io/safe_file.hpp"

#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace harl {
namespace {

const std::uint32_t* crc32_table() {
  static std::uint32_t table[256];
  static bool ready = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
      table[i] = c;
    }
    return true;
  }();
  (void)ready;
  return table;
}

bool fsync_path(const std::string& path, std::string* error) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path + " for fsync";
    return false;
  }
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok && error != nullptr) *error = "fsync failed for " + path;
  return ok;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const std::uint32_t* table = crc32_table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string with_checksum_footer(std::string body) {
  char footer[32];
  std::snprintf(footer, sizeof(footer), "%s%08x\n", kChecksumFooterPrefix,
                crc32(body.data(), body.size()));
  body += footer;
  return body;
}

bool strip_checksum_footer(std::string* text, std::string* error) {
  const std::size_t prefix_len = std::strlen(kChecksumFooterPrefix);
  // The footer is the final line: "#harl-crc32 xxxxxxxx\n".
  const std::size_t footer_len = prefix_len + 8 + 1;
  if (text->size() < footer_len ||
      text->compare(text->size() - footer_len, prefix_len,
                    kChecksumFooterPrefix) != 0 ||
      (*text)[text->size() - 1] != '\n') {
    if (error != nullptr) {
      *error = "missing checksum footer (truncated or foreign file)";
    }
    return false;
  }
  std::uint32_t stored = 0;
  for (std::size_t i = text->size() - 9; i < text->size() - 1; ++i) {
    char c = (*text)[i];
    std::uint32_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else {
      if (error != nullptr) *error = "malformed checksum footer";
      return false;
    }
    stored = (stored << 4) | digit;
  }
  text->resize(text->size() - footer_len);
  std::uint32_t actual = crc32(text->data(), text->size());
  if (actual != stored) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "checksum mismatch (stored %08x, computed %08x): corrupt file",
                    stored, actual);
      *error = buf;
    }
    return false;
  }
  return true;
}

bool atomic_write_file(const std::string& path, const std::string& text,
                       bool fsync_publish, std::string* error) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (ok && std::fflush(f) != 0) ok = false;
  if (ok && fsync_publish && ::fsync(::fileno(f)) != 0) ok = false;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "write failed for " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
  if (fsync_publish) {
    // Make the rename itself durable: sync the parent directory entry.
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty()) dir = "/";
    std::string sync_error;
    if (!fsync_path(dir, &sync_error)) {
      if (error != nullptr) *error = sync_error;
      return false;
    }
  }
  return true;
}

bool read_text_file(const std::string& path, std::string* text,
                    std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = path + ": cannot open for reading";
    return false;
  }
  std::string out;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    if (error != nullptr) *error = path + ": read error";
    return false;
  }
  *text = std::move(out);
  return true;
}

bool read_checked_file(const std::string& path, std::string* text,
                       std::string* error) {
  if (!read_text_file(path, text, error)) return false;
  std::string reason;
  if (!strip_checksum_footer(text, &reason)) {
    if (error != nullptr) *error = path + ": " + reason;
    return false;
  }
  return true;
}

}  // namespace harl
