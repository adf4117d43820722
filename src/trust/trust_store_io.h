// Copyright 2026 The siot-trust Authors.
// TrustStore / TrustEngine persistence. Social IoT devices reboot and
// re-join; their accumulated trust state must survive, so it serializes to
// a line-oriented text format:
//
//   record <trustor> <trustee> <task> <S> <G> <D> <C> <observations>
//
// and, for full engine state (what a service-shard checkpoint stores):
//
//   task <id> <name> <m> <characteristic>:<weight> ...
//   default_theta <theta>
//   threshold <trustee> <task|*> <theta>
//   default_env <indicator>
//   env <agent> <indicator>
//   usage <trustee> <trustor> <responsive> <abusive>
//   record ...
//
// '#' starts a comment. Task names are percent-escaped (space, '%', '#',
// control bytes), so every line splits on single spaces. Parsing is
// strict: malformed lines are errors, not silently skipped — a half-loaded
// trust state is worse than none — and every Corruption message carries
// the line number, byte offset, and a snippet of the offending line so a
// bad record inside a multi-megabyte checkpoint is findable.
//
// Serialization is canonical (every section sorted), so equal states
// produce identical bytes, and serialize → deserialize → serialize is a
// byte-level fixed point — the restart tests compare state by comparing
// these strings.

#ifndef SIOT_TRUST_TRUST_STORE_IO_H_
#define SIOT_TRUST_TRUST_STORE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "trust/mutual.h"
#include "trust/trust_store.h"

namespace siot::trust {

class TrustEngine;

/// Upper bound of every serialized id field (agent/task/characteristic
/// ids are u32); shared by the store/engine-state parsers and the
/// service WAL-op parser so the accepted range can never drift apart.
inline constexpr std::int64_t kMaxSerializedId = 0xFFFFFFFFll;

/// Quotes up to 60 chars of `text` for a Corruption message
/// ("'record 1 2 ...'"), the one snippet format every parser shares.
std::string CorruptionSnippet(std::string_view text);

/// Serializes every record (sorted by key, so output is canonical).
std::string SerializeTrustStore(const TrustStore& store);

/// Parses records serialized by SerializeTrustStore into `store`
/// (existing records with the same key are overwritten). A key appearing
/// twice in `text` is Corruption: canonical serialization never repeats a
/// key, so a duplicate means a truncated or concatenated file.
Status DeserializeTrustStore(std::string_view text, TrustStore* store);

/// Percent-escapes a name token (space, '%', '#', control bytes) so it
/// occupies exactly one space-separated field in a serialized line.
std::string EscapeNameToken(std::string_view raw);

/// Inverse of EscapeNameToken; Corruption on a malformed escape.
StatusOr<std::string> UnescapeNameToken(std::string_view token);

/// Serializes everything in an engine that must survive a restart: the
/// task catalog, reverse-evaluation thresholds and usage histories,
/// environment indicators, and the trust store. Engine CONFIGURATION
/// (forgetting factors, strategy, normalization, ...) is construction-time
/// state and is NOT serialized — the caller recreates the engine with the
/// same config and restores the dynamic state into it.
std::string SerializeTrustEngineState(const TrustEngine& engine);

/// Restores state serialized by SerializeTrustEngineState into a freshly
/// constructed engine (FailedPrecondition if the engine already has
/// catalog entries or records — merging two states is never meaningful).
/// Round trip is exact: serializing the restored engine reproduces the
/// input byte for byte.
Status DeserializeTrustEngineState(std::string_view text,
                                   TrustEngine* engine);

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRUST_STORE_IO_H_
