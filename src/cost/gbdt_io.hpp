#pragma once

/// \file gbdt_io.hpp
/// Versioned byte-stable GBDT serialization: one-line JSON model files and
/// the `gbdt_fingerprint` identity.  The encoder appends the model straight
/// into one string; the decoder reads the file in one pass over the
/// `json::Cursor`, the forest arrays straight into vectors.  Invariant:
/// save -> load -> save reproduces exact bytes and a loaded model predicts
/// bit-identically.  Experience and value models share the format.
/// Collaborators: Gbdt, ExperienceStore/Refresher, SearchOptions model load.

#include <string>

#include "cost/gbdt.hpp"

namespace harl {

/// Current GBDT model-file schema version.  Bump on incompatible layout
/// changes; `gbdt_from_json` rejects files from *newer* versions instead of
/// misparsing them.
inline constexpr int kGbdtModelVersion = 1;

/// Serialize a fitted ensemble to one JSON document (single line, trailing
/// newline) in the `src/io/` dialect.  The format is byte-stable: field
/// order is fixed and doubles use `json::format_double` (shortest
/// round-trip), so save -> load -> save reproduces the exact bytes and a
/// loaded model predicts bit-identically to the model that was saved.
///
/// The serialized state is the complete inference state (flat forest, base
/// score, config incl. learning rate) plus the boosting RNG words, so
/// `fit_more` on a loaded model continues the same deterministic stream the
/// in-memory model would have.
std::string gbdt_to_json(const Gbdt& model);

/// Parse a model document produced by `gbdt_to_json`.  Returns false and
/// fills `*error` on malformed JSON, a newer version, missing fields, or a
/// structurally invalid forest (child/root indices out of range, mismatched
/// array lengths); `*out` is untouched on failure.
bool gbdt_from_json(const std::string& text, Gbdt* out, std::string* error);

/// File convenience wrappers.  `save_gbdt` publishes atomically (tmp +
/// rename) and appends a CRC-32 footer line (`safe_file.hpp`); with `fsync`
/// the publish is also durable across power loss.  `load_gbdt` verifies and
/// strips the footer — a truncated or bit-flipped model file is rejected,
/// never half-loaded.  The footer lives at the file level only:
/// `gbdt_to_json`/`gbdt_fingerprint` are unchanged.  `error` (optional)
/// receives a path-prefixed reason on failure (I/O, checksum, or parse).
bool save_gbdt(const Gbdt& model, const std::string& path,
               std::string* error = nullptr, bool fsync = false);
bool load_gbdt(const std::string& path, Gbdt* out, std::string* error = nullptr);

/// Stable identity of a fitted ensemble: FNV-1a over its canonical
/// serialization, never 0 (0 is the "no model" sentinel in tuning records).
/// The run-identity stamp `resume_session` matches on; cache it when one
/// model is shared across many sessions (serialization is proportional to
/// forest size).
std::uint64_t gbdt_fingerprint(const Gbdt& model);

}  // namespace harl
