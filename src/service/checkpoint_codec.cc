// Copyright 2026 The siot-trust Authors.

#include "service/checkpoint_codec.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/byte_io.h"
#include "common/checksum.h"
#include "common/string_util.h"
#include "trust/trust_engine.h"
#include "trust/trust_store.h"
#include "trust/trust_store_io.h"
#include "trust/types.h"

namespace siot::service {

namespace {

constexpr char kCheckpointMagic[] = "siot-checkpoint";
/// v2 prologue after the format byte; with it, 8 bytes total.
constexpr char kBinaryMagic[] = "siotckp";
constexpr std::size_t kBinaryMagicBytes = 7;
/// [format byte][magic][u64 applied_seq][u32 section_count]
/// [u32 masked crc32c of the preceding 20 bytes]. The header CRC is what
/// keeps applied_seq honest — every other byte of the file sits under a
/// section CRC, and a silently flipped sequence number would skip or
/// double-apply WAL frames on recovery.
constexpr std::size_t kBinaryHeaderBytes = 1 + kBinaryMagicBytes + 8 + 4 + 4;
/// [u8 id][u64 body_len][u32 masked crc32c(body)].
constexpr std::size_t kSectionHeaderBytes = 1 + 8 + 4;

const char* SectionName(CheckpointSection id) {
  switch (id) {
    case CheckpointSection::kCatalog:
      return "catalog";
    case CheckpointSection::kThresholds:
      return "thresholds";
    case CheckpointSection::kEnv:
      return "env";
    case CheckpointSection::kUsage:
      return "usage";
    case CheckpointSection::kRecords:
      return "records";
  }
  return "unknown";
}

Status HeaderCorruption(const std::string& path, const std::string& what) {
  return Status::Corruption("checkpoint " + path + ": " + what);
}

Status SectionCorruption(const std::string& path, CheckpointSection id,
                         const std::string& what) {
  return Status::Corruption(StrFormat("checkpoint %s: %s section: %s",
                                      path.c_str(), SectionName(id),
                                      what.c_str()));
}

// --------------------------------------------------------- v1 (text) --

/// Parses the v1 text layout: header line, whole-body CRC, applied_seq
/// line, then (engine != nullptr) the text engine-state body.
Status DecodeCheckpointTextImpl(std::string_view bytes,
                                const std::string& path,
                                std::uint64_t* applied_seq,
                                trust::TrustEngine* engine) {
  const std::size_t newline = bytes.find('\n');
  if (newline == std::string_view::npos) {
    return HeaderCorruption(path, "missing header");
  }
  const std::vector<std::string> header =
      Split(std::string(bytes.substr(0, newline)), ' ');
  if (header.size() != 4 || header[0] != kCheckpointMagic ||
      header[1] != "1") {
    return HeaderCorruption(path, "bad header '" +
                                      std::string(bytes.substr(
                                          0, newline)) +
                                      "'");
  }
  const auto body_bytes = ParseInt(header[2]);
  const auto stored_crc = ParseInt(header[3]);
  if (!body_bytes.ok() || body_bytes.value() < 0 || !stored_crc.ok() ||
      stored_crc.value() < 0 || stored_crc.value() > 0xFFFFFFFFll) {
    return HeaderCorruption(path, "malformed header fields");
  }
  std::string_view body = bytes.substr(newline + 1);
  if (body.size() != static_cast<std::size_t>(body_bytes.value())) {
    return HeaderCorruption(
        path,
        StrFormat("body is %zu bytes, header says %lld (truncated?)",
                  body.size(),
                  static_cast<long long>(body_bytes.value())));
  }
  if (Crc32cMask(Crc32c(body)) !=
      static_cast<std::uint32_t>(stored_crc.value())) {
    return HeaderCorruption(path, "CRC mismatch (bit rot?)");
  }
  // The body's first line carries the last WAL sequence folded in.
  const std::size_t body_newline = body.find('\n');
  const std::vector<std::string> seq_fields = Split(
      std::string(body.substr(0, body_newline == std::string_view::npos
                                     ? body.size()
                                     : body_newline)),
      ' ');
  const auto seq = seq_fields.size() == 2 && seq_fields[0] == "applied_seq"
                       ? ParseInt(seq_fields[1])
                       : StatusOr<std::int64_t>(
                             Status::Corruption("missing applied_seq"));
  if (!seq.ok() || seq.value() < 0) {
    return HeaderCorruption(path, "missing applied_seq line");
  }
  *applied_seq = static_cast<std::uint64_t>(seq.value());
  if (engine != nullptr) {
    SIOT_RETURN_IF_ERROR(trust::DeserializeTrustEngineState(
        body.substr(body_newline + 1), engine));
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------- v2 (binary) --

std::string EncodeCheckpointBinary(
    std::uint64_t applied_seq, const trust::TrustEngine& engine,
    std::vector<std::size_t>* section_ends) {
  std::string out;
  out.push_back(static_cast<char>(kCheckpointFormatBinary));
  out.append(kBinaryMagic, kBinaryMagicBytes);
  PutU64(&out, applied_seq);
  PutU32(&out, static_cast<std::uint32_t>(kCheckpointSectionCount));
  PutU32(&out, Crc32cMask(Crc32c(out)));
  if (section_ends != nullptr) section_ends->clear();

  const auto append_section = [&](CheckpointSection id,
                                  const std::string& body) {
    out.push_back(static_cast<char>(id));
    PutU64(&out, body.size());
    PutU32(&out, Crc32cMask(Crc32c(body)));
    out += body;
    if (section_ends != nullptr) section_ends->push_back(out.size());
  };

  std::string body;
  // 1 catalog: dense task ids are implicit in the order.
  const trust::TaskCatalog& catalog = engine.catalog();
  PutU32(&body, static_cast<std::uint32_t>(catalog.size()));
  for (trust::TaskId id = 0; id < catalog.size(); ++id) {
    const trust::Task& task = catalog.Get(id);
    PutU32(&body, static_cast<std::uint32_t>(task.name().size()));
    body += task.name();
    PutU16(&body, static_cast<std::uint16_t>(task.parts().size()));
    for (const trust::WeightedCharacteristic& part : task.parts()) {
      body.push_back(static_cast<char>(part.id));
      PutF64(&body, part.weight);
    }
  }
  append_section(CheckpointSection::kCatalog, body);

  // 2 thresholds.
  body.clear();
  const trust::ReverseEvaluator& reverse = engine.reverse_evaluator();
  PutF64(&body, reverse.default_threshold());
  const auto thresholds = reverse.AllThresholds();
  PutU64(&body, thresholds.size());
  for (const trust::ThresholdEntry& entry : thresholds) {
    PutU32(&body, entry.trustee);
    PutU32(&body, entry.task);
    PutF64(&body, entry.theta);
  }
  append_section(CheckpointSection::kThresholds, body);

  // 3 env.
  body.clear();
  const trust::EnvironmentModel& environment = engine.environment();
  PutF64(&body, environment.default_indicator());
  const auto indicators = environment.AllIndicators();
  PutU64(&body, indicators.size());
  for (const auto& [agent, indicator] : indicators) {
    PutU32(&body, agent);
    PutF64(&body, indicator);
  }
  append_section(CheckpointSection::kEnv, body);

  // 4 usage.
  body.clear();
  const auto histories = reverse.AllHistories();
  PutU64(&body, histories.size());
  for (const trust::UsageEntry& entry : histories) {
    PutU32(&body, entry.trustee);
    PutU32(&body, entry.trustor);
    PutU64(&body, entry.history.responsive_uses);
    PutU64(&body, entry.history.abusive_uses);
  }
  append_section(CheckpointSection::kUsage, body);

  // 5 records, pair-major (AllRecords' canonical sort).
  body.clear();
  const auto records = engine.store().AllRecords();
  PutU64(&body, records.size());
  for (const auto& [key, record] : records) {
    PutU32(&body, key.trustor);
    PutU32(&body, key.trustee);
    PutU32(&body, key.task);
    PutF64(&body, record.estimates.success_rate);
    PutF64(&body, record.estimates.gain);
    PutF64(&body, record.estimates.damage);
    PutF64(&body, record.estimates.cost);
    PutU64(&body, record.observations);
  }
  append_section(CheckpointSection::kRecords, body);
  return out;
}

namespace {

// Per-entry byte sizes of the fixed-stride sections, used to reject a
// lying count field before it sizes a loop (the bounds-checked reader
// would catch it too, but rejecting up front names the real problem).
constexpr std::size_t kThresholdEntryBytes = 4 + 4 + 8;
constexpr std::size_t kEnvEntryBytes = 4 + 8;
constexpr std::size_t kUsageEntryBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kRecordEntryBytes = 4 + 4 + 4 + 4 * 8 + 8;

Status CountedSection(const std::string& path, CheckpointSection id,
                      std::uint64_t count, std::size_t entry_bytes,
                      std::size_t remaining) {
  if (count > remaining / entry_bytes) {
    return SectionCorruption(
        path, id,
        StrFormat("count %llu exceeds the %zu bytes the section holds",
                  static_cast<unsigned long long>(count), remaining));
  }
  return Status::OK();
}

Status DecodeCatalogSection(std::string_view body, const std::string& path,
                            trust::TrustEngine* engine) {
  constexpr CheckpointSection kId = CheckpointSection::kCatalog;
  ByteReader reader(body);
  std::uint32_t task_count = 0;
  if (!reader.ReadU32(&task_count)) {
    return SectionCorruption(path, kId, "truncated task count");
  }
  for (std::uint32_t t = 0; t < task_count; ++t) {
    std::uint32_t name_len = 0;
    std::string name;
    std::uint16_t part_count = 0;
    if (!reader.ReadU32(&name_len) || !reader.ReadBytes(name_len, &name) ||
        !reader.ReadU16(&part_count)) {
      return SectionCorruption(
          path, kId, StrFormat("truncated task %u of %u", t, task_count));
    }
    std::vector<trust::WeightedCharacteristic> parts;
    parts.reserve(part_count);
    for (std::uint16_t p = 0; p < part_count; ++p) {
      std::uint8_t characteristic = 0;
      double weight = 0.0;
      if (!reader.ReadU8(&characteristic) || !reader.ReadF64(&weight)) {
        return SectionCorruption(
            path, kId, StrFormat("truncated part %u of task %u", p, t));
      }
      // Reject out-of-range before the engine sees it: the catalog masks
      // characteristics into a 64-bit word and SIOT_CHECKs the range.
      if (characteristic >= trust::kMaxCharacteristics) {
        return SectionCorruption(
            path, kId,
            StrFormat("characteristic %u out of range in task %u",
                      characteristic, t));
      }
      parts.push_back({characteristic, weight});
    }
    // Restore, not Add: the stored weights are already normalized, and
    // renormalizing would perturb them (1/3 + 1/3 + 1/3 != 1.0).
    const auto added =
        engine->catalog().Restore(std::move(name), std::move(parts));
    if (!added.ok()) {
      return SectionCorruption(
          path, kId, "invalid task: " + added.status().message());
    }
  }
  if (reader.remaining() != 0) {
    return SectionCorruption(
        path, kId,
        StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

Status DecodeThresholdsSection(std::string_view body,
                               const std::string& path,
                               trust::TrustEngine* engine) {
  constexpr CheckpointSection kId = CheckpointSection::kThresholds;
  ByteReader reader(body);
  double default_theta = 0.0;
  std::uint64_t count = 0;
  if (!reader.ReadF64(&default_theta) || !reader.ReadU64(&count)) {
    return SectionCorruption(path, kId, "truncated section header");
  }
  SIOT_RETURN_IF_ERROR(CountedSection(path, kId, count,
                                      kThresholdEntryBytes,
                                      reader.remaining()));
  engine->reverse_evaluator().SetDefaultThreshold(default_theta);
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t trustee = 0;
    std::uint32_t task = 0;
    double theta = 0.0;
    if (!reader.ReadU32(&trustee) || !reader.ReadU32(&task) ||
        !reader.ReadF64(&theta)) {
      return SectionCorruption(path, kId, "truncated entry");
    }
    if (std::isnan(theta)) {
      // The service boundary rejects NaN thresholds (they defeat the
      // exact-equality compare admin reconciliation uses), so one in a
      // checkpoint is corruption.
      return SectionCorruption(path, kId, "NaN theta");
    }
    if (!seen.insert((static_cast<std::uint64_t>(trustee) << 32) | task)
             .second) {
      return SectionCorruption(
          path, kId,
          StrFormat("duplicate threshold for trustee %u", trustee));
    }
    engine->reverse_evaluator().SetThreshold(
        trustee, static_cast<trust::TaskId>(task), theta);
  }
  if (reader.remaining() != 0) {
    return SectionCorruption(
        path, kId, StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

Status DecodeEnvSection(std::string_view body, const std::string& path,
                        trust::TrustEngine* engine) {
  constexpr CheckpointSection kId = CheckpointSection::kEnv;
  ByteReader reader(body);
  double default_indicator = 0.0;
  std::uint64_t count = 0;
  if (!reader.ReadF64(&default_indicator) || !reader.ReadU64(&count)) {
    return SectionCorruption(path, kId, "truncated section header");
  }
  // The environment model SIOT_CHECKs its (0, 1] invariant; a corrupt
  // file must fail with Corruption, not a crash.
  if (!(default_indicator > 0.0 && default_indicator <= 1.0)) {
    return SectionCorruption(
        path, kId,
        StrFormat("default indicator %g outside (0, 1]",
                  default_indicator));
  }
  SIOT_RETURN_IF_ERROR(CountedSection(path, kId, count, kEnvEntryBytes,
                                      reader.remaining()));
  engine->environment().SetDefaultIndicator(default_indicator);
  std::unordered_set<trust::AgentId> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t agent = 0;
    double indicator = 0.0;
    if (!reader.ReadU32(&agent) || !reader.ReadF64(&indicator)) {
      return SectionCorruption(path, kId, "truncated entry");
    }
    if (!(indicator > 0.0 && indicator <= 1.0)) {
      return SectionCorruption(
          path, kId,
          StrFormat("indicator %g outside (0, 1] for agent %u", indicator,
                    agent));
    }
    if (!seen.insert(agent).second) {
      return SectionCorruption(
          path, kId,
          StrFormat("duplicate indicator for agent %u", agent));
    }
    engine->environment().SetIndicator(agent, indicator);
  }
  if (reader.remaining() != 0) {
    return SectionCorruption(
        path, kId, StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

Status DecodeUsageSection(std::string_view body, const std::string& path,
                          trust::TrustEngine* engine) {
  constexpr CheckpointSection kId = CheckpointSection::kUsage;
  ByteReader reader(body);
  std::uint64_t count = 0;
  if (!reader.ReadU64(&count)) {
    return SectionCorruption(path, kId, "truncated section header");
  }
  SIOT_RETURN_IF_ERROR(CountedSection(path, kId, count, kUsageEntryBytes,
                                      reader.remaining()));
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t trustee = 0;
    std::uint32_t trustor = 0;
    std::uint64_t responsive = 0;
    std::uint64_t abusive = 0;
    if (!reader.ReadU32(&trustee) || !reader.ReadU32(&trustor) ||
        !reader.ReadU64(&responsive) || !reader.ReadU64(&abusive)) {
      return SectionCorruption(path, kId, "truncated entry");
    }
    if (!seen.insert((static_cast<std::uint64_t>(trustee) << 32) | trustor)
             .second) {
      return SectionCorruption(
          path, kId,
          StrFormat("duplicate history for trustee %u trustor %u",
                    trustee, trustor));
    }
    engine->reverse_evaluator().RestoreHistory(
        trustee, trustor,
        trust::UsageHistory{static_cast<std::size_t>(responsive),
                            static_cast<std::size_t>(abusive)});
  }
  if (reader.remaining() != 0) {
    return SectionCorruption(
        path, kId, StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

Status DecodeRecordsSection(std::string_view body, const std::string& path,
                            trust::TrustEngine* engine) {
  constexpr CheckpointSection kId = CheckpointSection::kRecords;
  ByteReader reader(body);
  std::uint64_t count = 0;
  if (!reader.ReadU64(&count)) {
    return SectionCorruption(path, kId, "truncated section header");
  }
  SIOT_RETURN_IF_ERROR(CountedSection(path, kId, count, kRecordEntryBytes,
                                      reader.remaining()));
  std::unordered_set<trust::TrustKey, trust::TrustKeyHash> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t trustor = 0;
    std::uint32_t trustee = 0;
    std::uint32_t task = 0;
    double s = 0.0;
    double g = 0.0;
    double d = 0.0;
    double c = 0.0;
    std::uint64_t observations = 0;
    if (!reader.ReadU32(&trustor) || !reader.ReadU32(&trustee) ||
        !reader.ReadU32(&task) || !reader.ReadF64(&s) ||
        !reader.ReadF64(&g) || !reader.ReadF64(&d) || !reader.ReadF64(&c) ||
        !reader.ReadU64(&observations)) {
      return SectionCorruption(path, kId, "truncated entry");
    }
    const trust::TrustKey key{trustor, trustee,
                              static_cast<trust::TaskId>(task)};
    if (!seen.insert(key).second) {
      return SectionCorruption(
          path, kId,
          StrFormat("duplicate record for (%u, %u, %u)", trustor, trustee,
                    task));
    }
    engine->store().PutRecord(
        key.trustor, key.trustee, key.task,
        trust::TrustRecord{trust::OutcomeEstimates{s, g, d, c},
                           static_cast<std::size_t>(observations)});
  }
  if (reader.remaining() != 0) {
    return SectionCorruption(
        path, kId, StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

/// Walks the v2 header and sections, CRC-validating every body; invokes
/// the per-section decoders only when `engine` is non-null.
Status DecodeCheckpointBinaryImpl(std::string_view bytes,
                                  const std::string& path,
                                  std::uint64_t* applied_seq,
                                  trust::TrustEngine* engine) {
  ByteReader reader(bytes);
  std::uint8_t format = 0;
  std::string_view magic;
  std::uint32_t section_count = 0;
  std::uint32_t header_crc = 0;
  if (!reader.ReadU8(&format) ||
      !reader.ReadView(kBinaryMagicBytes, &magic) ||
      !reader.ReadU64(applied_seq) || !reader.ReadU32(&section_count) ||
      !reader.ReadU32(&header_crc)) {
    return HeaderCorruption(
        path, StrFormat("truncated binary header (%zu of %zu bytes)",
                        bytes.size(), kBinaryHeaderBytes));
  }
  if (magic != std::string_view(kBinaryMagic, kBinaryMagicBytes)) {
    return HeaderCorruption(path, "bad binary magic");
  }
  if (Crc32cMask(Crc32c(bytes.substr(0, kBinaryHeaderBytes - 4))) !=
      header_crc) {
    return HeaderCorruption(path, "header CRC mismatch (bit rot?)");
  }
  if (section_count != kCheckpointSectionCount) {
    // v2 holds exactly the five known sections; a different count is a
    // format this reader does not speak (or a flipped header byte).
    return HeaderCorruption(
        path, StrFormat("section count %u, expected %zu", section_count,
                        kCheckpointSectionCount));
  }
  for (std::size_t i = 0; i < kCheckpointSectionCount; ++i) {
    const auto expected = static_cast<CheckpointSection>(i + 1);
    std::uint8_t id = 0;
    std::uint64_t body_len = 0;
    std::uint32_t stored_crc = 0;
    if (!reader.ReadU8(&id) || !reader.ReadU64(&body_len) ||
        !reader.ReadU32(&stored_crc)) {
      return SectionCorruption(path, expected,
                               "truncated section header");
    }
    if (id != static_cast<std::uint8_t>(expected)) {
      return SectionCorruption(
          path, expected,
          StrFormat("section id %u out of order (expected %u)", id,
                    static_cast<unsigned>(expected)));
    }
    std::string_view body;
    if (!reader.ReadView(body_len, &body)) {
      return SectionCorruption(
          path, expected,
          StrFormat("declares %llu body bytes but only %zu remain "
                    "(torn checkpoint?)",
                    static_cast<unsigned long long>(body_len),
                    reader.remaining()));
    }
    if (Crc32cMask(Crc32c(body)) != stored_crc) {
      return SectionCorruption(path, expected, "CRC mismatch (bit rot?)");
    }
    if (engine == nullptr) continue;
    switch (expected) {
      case CheckpointSection::kCatalog:
        SIOT_RETURN_IF_ERROR(DecodeCatalogSection(body, path, engine));
        break;
      case CheckpointSection::kThresholds:
        SIOT_RETURN_IF_ERROR(DecodeThresholdsSection(body, path, engine));
        break;
      case CheckpointSection::kEnv:
        SIOT_RETURN_IF_ERROR(DecodeEnvSection(body, path, engine));
        break;
      case CheckpointSection::kUsage:
        SIOT_RETURN_IF_ERROR(DecodeUsageSection(body, path, engine));
        break;
      case CheckpointSection::kRecords:
        SIOT_RETURN_IF_ERROR(DecodeRecordsSection(body, path, engine));
        break;
    }
  }
  if (reader.remaining() != 0) {
    return HeaderCorruption(
        path, StrFormat("%zu trailing bytes past the last section",
                        reader.remaining()));
  }
  return Status::OK();
}

Status DecodeCheckpointImpl(std::string_view bytes, const std::string& path,
                            std::uint64_t* applied_seq,
                            trust::TrustEngine* engine) {
  if (bytes.empty()) {
    return HeaderCorruption(path, "empty checkpoint file");
  }
  if (engine != nullptr && (engine->catalog().size() != 0 ||
                            engine->store().size() != 0)) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a freshly constructed engine");
  }
  if (CheckpointFormat(bytes) == kCheckpointFormatBinary) {
    return DecodeCheckpointBinaryImpl(bytes, path, applied_seq, engine);
  }
  const auto first = static_cast<unsigned char>(bytes.front());
  if (first < 0x20 || first >= 0x7F) {
    // Neither the binary version byte nor printable ASCII opening the v1
    // text magic: a format this reader does not speak, or a flipped
    // first byte.
    return HeaderCorruption(
        path, StrFormat("unknown format byte 0x%02x", first));
  }
  return DecodeCheckpointTextImpl(bytes, path, applied_seq, engine);
}

}  // namespace

// ----------------------------------------------------------- dispatch --

std::uint8_t CheckpointFormat(std::string_view bytes) {
  return !bytes.empty() && static_cast<unsigned char>(bytes.front()) ==
                               kCheckpointFormatBinary
             ? kCheckpointFormatBinary
             : kCheckpointFormatText;
}

StatusOr<CheckpointInfo> ValidateCheckpoint(std::string_view bytes,
                                            const std::string& path) {
  CheckpointInfo info;
  info.format = CheckpointFormat(bytes);
  SIOT_RETURN_IF_ERROR(
      DecodeCheckpointImpl(bytes, path, &info.applied_seq, nullptr));
  return info;
}

Status DecodeCheckpoint(std::string_view bytes, const std::string& path,
                        std::uint64_t* applied_seq,
                        trust::TrustEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine");
  }
  return DecodeCheckpointImpl(bytes, path, applied_seq, engine);
}

}  // namespace siot::service
