#pragma once

/// \file dom_decoders.hpp
/// Test oracles: the DOM codecs of the daemon's wire protocol and journal,
/// the GBDT model file and the shard-snapshot manifest, as the library had them
/// before its readers moved to `json::Cursor` and `json::Members` and its
/// writers to appending.  The differential tests require the library to
/// give the same verdict, error and decoded value on every input, and the
/// same bytes on every encode.

#include <map>
#include <string>

#include "cost/gbdt.hpp"
#include "io/record_io.hpp"
#include "server/protocol.hpp"

namespace harl {
namespace ref {

std::string request_to_json(const Request& req);
std::string response_to_json(const Response& resp);
bool request_from_json(const std::string& line, Request* out, std::string* error);
bool response_from_json(const std::string& line, Response* out, std::string* error);

/// The daemon's journal lines, as `HarlServer` wrote and replayed them
/// before they shared the protocol codec, with replay's kind checks made
/// the decoder's verdicts.
std::string journal_to_json(const JournalEntry& entry);
bool journal_from_json(const std::string& line, JournalEntry* out, std::string* error);

std::string gbdt_to_json(const Gbdt& model);
bool gbdt_from_json(const std::string& text, Gbdt* out, std::string* error);

/// Fills `*out` as it walks the logs: on a rejection it may hold the
/// entries before the bad one.
bool parse_manifest(const std::string& line, std::map<std::string, LogCoverage>* out);

}  // namespace ref
}  // namespace harl
