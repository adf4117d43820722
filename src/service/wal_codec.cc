// Copyright 2026 The siot-trust Authors.

#include "service/wal_codec.h"

#include <cmath>

#include "common/byte_io.h"
#include "common/string_util.h"
#include "trust/trust_store_io.h"

namespace siot::service {

Status WalOpCorruption(std::string_view payload, const std::string& what) {
  return Status::Corruption(
      StrFormat("WAL op: %s in %s", what.c_str(),
                trust::CorruptionSnippet(payload).c_str()));
}

// ------------------------------------------------------- v2 encoders --

namespace {

std::string BinaryPrologue(WalOpKind kind) {
  std::string op;
  op.push_back(static_cast<char>(kWalFormatBinary));
  op.push_back(static_cast<char>(kind));
  return op;
}

}  // namespace

std::string EncodeOutcomeOpBinary(
    trust::AgentId trustor, trust::AgentId trustee, trust::TaskId task,
    const trust::DelegationOutcome& outcome, bool trustor_was_abusive,
    const std::vector<trust::AgentId>& intermediates) {
  std::string op = BinaryPrologue(WalOpKind::kOutcome);
  op.reserve(43 + 4 * intermediates.size());
  PutU32(&op, trustor);
  PutU32(&op, trustee);
  PutU32(&op, task);
  op.push_back(static_cast<char>((outcome.success ? 1 : 0) |
                                 (trustor_was_abusive ? 2 : 0)));
  PutF64(&op, outcome.gain);
  PutF64(&op, outcome.damage);
  PutF64(&op, outcome.cost);
  PutU32(&op, static_cast<std::uint32_t>(intermediates.size()));
  for (const trust::AgentId agent : intermediates) {
    PutU32(&op, agent);
  }
  return op;
}

std::string EncodeTaskOpBinary(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics) {
  std::string op = BinaryPrologue(WalOpKind::kTask);
  PutU32(&op, static_cast<std::uint32_t>(name.size()));
  op += name;
  PutU16(&op, static_cast<std::uint16_t>(characteristics.size()));
  for (const trust::CharacteristicId c : characteristics) {
    op.push_back(static_cast<char>(c));
  }
  return op;
}

std::string EncodeThetaOpBinary(trust::AgentId trustee, trust::TaskId task,
                                double theta) {
  std::string op = BinaryPrologue(WalOpKind::kTheta);
  PutU32(&op, trustee);
  PutU32(&op, task);
  PutF64(&op, theta);
  return op;
}

std::string EncodeEnvOpBinary(trust::AgentId agent, double indicator) {
  std::string op = BinaryPrologue(WalOpKind::kEnv);
  PutU32(&op, agent);
  PutF64(&op, indicator);
  return op;
}

// -------------------------------------------------------- dispatching --

std::uint8_t WalPayloadFormat(std::string_view payload) {
  if (!payload.empty() &&
      static_cast<unsigned char>(payload[0]) == kWalFormatBinary) {
    return kWalFormatBinary;
  }
  return kWalFormatText;
}

bool IsKnownWalFormatByte(unsigned char first_byte) {
  // 0x02 opens a v2 binary payload; every v1 text op opens with a
  // printable-ASCII op word. Anything else is no format this codec (or
  // any prior one) ever wrote.
  return first_byte == kWalFormatBinary ||
         (first_byte >= 0x20 && first_byte <= 0x7E);
}

// ----------------------------------------------------- binary decoder --

namespace {

StatusOr<WalOp> DecodeBinaryOp(std::string_view payload) {
  ByteReader reader(payload.substr(1));  // Past the version byte.
  WalOp op;
  std::uint8_t kind = 0;
  if (!reader.ReadU8(&kind)) {
    return WalOpCorruption(payload, "binary op missing the kind byte");
  }
  switch (static_cast<WalOpKind>(kind)) {
    case WalOpKind::kOutcome: {
      op.kind = WalOpKind::kOutcome;
      std::uint8_t flags = 0;
      std::uint32_t count = 0;
      if (!reader.ReadU32(&op.trustor) || !reader.ReadU32(&op.trustee) ||
          !reader.ReadU32(&op.task) || !reader.ReadU8(&flags) ||
          !reader.ReadF64(&op.outcome.gain) ||
          !reader.ReadF64(&op.outcome.damage) ||
          !reader.ReadF64(&op.outcome.cost) || !reader.ReadU32(&count)) {
        return WalOpCorruption(payload, "truncated binary outcome op");
      }
      if (flags & ~0x3u) {
        return WalOpCorruption(
            payload, StrFormat("unknown outcome flag bits 0x%02x", flags));
      }
      op.outcome.success = (flags & 1) != 0;
      op.trustor_was_abusive = (flags & 2) != 0;
      if (reader.remaining() != 4 * static_cast<std::size_t>(count)) {
        return WalOpCorruption(
            payload,
            StrFormat("intermediate count %u does not match %zu trailing "
                      "bytes",
                      count, reader.remaining()));
      }
      op.intermediates.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t agent = 0;
        reader.ReadU32(&agent);
        op.intermediates.push_back(agent);
      }
      if (op.trustor == trust::kNoAgent || op.trustee == trust::kNoAgent) {
        return WalOpCorruption(payload, "sentinel agent id");
      }
      // The serving boundary never logs non-finite observations; one
      // here means corruption, and applying it would poison the
      // estimates.
      for (const double value :
           {op.outcome.gain, op.outcome.damage, op.outcome.cost}) {
        if (!std::isfinite(value)) {
          return WalOpCorruption(payload, "non-finite outcome value");
        }
      }
      return op;
    }
    case WalOpKind::kTask: {
      op.kind = WalOpKind::kTask;
      std::uint32_t name_len = 0;
      if (!reader.ReadU32(&name_len) ||
          !reader.ReadBytes(name_len, &op.name)) {
        return WalOpCorruption(payload, "truncated binary task op");
      }
      std::uint16_t count = 0;
      if (!reader.ReadU16(&count) ||
          reader.remaining() != static_cast<std::size_t>(count)) {
        return WalOpCorruption(
            payload, "characteristic count does not match trailing bytes");
      }
      op.characteristics.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        std::uint8_t c = 0;
        reader.ReadU8(&c);
        if (c >= trust::kMaxCharacteristics) {
          return WalOpCorruption(
              payload, StrFormat("characteristic %u out of range", c));
        }
        op.characteristics.push_back(c);
      }
      return op;
    }
    case WalOpKind::kTheta: {
      op.kind = WalOpKind::kTheta;
      if (!reader.ReadU32(&op.trustee) || !reader.ReadU32(&op.task) ||
          !reader.ReadF64(&op.value) || reader.remaining() != 0) {
        return WalOpCorruption(payload, "malformed binary theta op");
      }
      if (std::isnan(op.value)) {
        // The boundary rejects NaN thresholds (they defeat reconcile's
        // exact-equality compare); one in a log is corruption.
        return WalOpCorruption(payload, "NaN theta");
      }
      return op;
    }
    case WalOpKind::kEnv: {
      op.kind = WalOpKind::kEnv;
      if (!reader.ReadU32(&op.trustor) || !reader.ReadF64(&op.value) ||
          reader.remaining() != 0) {
        return WalOpCorruption(payload, "malformed binary env op");
      }
      if (!(op.value > 0.0 && op.value <= 1.0)) {
        return WalOpCorruption(
            payload,
            StrFormat("indicator %g outside (0, 1]", op.value));
      }
      return op;
    }
  }
  return WalOpCorruption(payload,
                         StrFormat("unknown binary op kind %u", kind));
}

// ------------------------------------------------------- text decoder --

Status OpCorruption(std::string_view payload, const std::string& what) {
  return WalOpCorruption(payload, what);
}

StatusOr<std::int64_t> OpId(std::string_view payload,
                            const std::string& field, const char* name) {
  const auto parsed = ParseInt(field);
  if (!parsed.ok() || parsed.value() < 0 ||
      parsed.value() > trust::kMaxSerializedId) {
    return OpCorruption(payload,
                        StrFormat("malformed %s '%s'", name,
                                  field.c_str()));
  }
  return parsed.value();
}

StatusOr<double> OpDouble(std::string_view payload,
                          const std::string& field, const char* name) {
  const auto parsed = ParseDouble(field);
  if (!parsed.ok()) {
    return OpCorruption(payload,
                        StrFormat("malformed %s '%s'", name,
                                  field.c_str()));
  }
  return parsed.value();
}

StatusOr<bool> OpFlag(std::string_view payload, const std::string& field,
                      const char* name) {
  if (field == "0") return false;
  if (field == "1") return true;
  return OpCorruption(payload, StrFormat("malformed %s '%s'", name,
                                         field.c_str()));
}

StatusOr<WalOp> DecodeTextOp(std::string_view payload) {
  const std::vector<std::string> fields = Split(Trim(payload), ' ');
  if (fields.empty() || fields[0].empty()) {
    return OpCorruption(payload, "empty op");
  }
  const std::string& word = fields[0];
  WalOp op;
  if (word == "outcome") {
    op.kind = WalOpKind::kOutcome;
    if (fields.size() < 10) {
      return OpCorruption(
          payload, StrFormat("expected >= 10 fields, got %zu",
                             fields.size()));
    }
    SIOT_ASSIGN_OR_RETURN(const std::int64_t trustor,
                          OpId(payload, fields[1], "trustor"));
    SIOT_ASSIGN_OR_RETURN(const std::int64_t trustee,
                          OpId(payload, fields[2], "trustee"));
    SIOT_ASSIGN_OR_RETURN(const std::int64_t task,
                          OpId(payload, fields[3], "task"));
    SIOT_ASSIGN_OR_RETURN(const bool success,
                          OpFlag(payload, fields[4], "success"));
    SIOT_ASSIGN_OR_RETURN(const double gain,
                          OpDouble(payload, fields[5], "gain"));
    SIOT_ASSIGN_OR_RETURN(const double damage,
                          OpDouble(payload, fields[6], "damage"));
    SIOT_ASSIGN_OR_RETURN(const double cost,
                          OpDouble(payload, fields[7], "cost"));
    SIOT_ASSIGN_OR_RETURN(const bool abusive,
                          OpFlag(payload, fields[8], "abusive flag"));
    const auto count = ParseInt(fields[9]);
    if (!count.ok() || count.value() < 0 ||
        static_cast<std::size_t>(count.value()) != fields.size() - 10) {
      return OpCorruption(
          payload, StrFormat("intermediate count '%s' does not match %zu "
                             "trailing fields",
                             fields[9].c_str(), fields.size() - 10));
    }
    if (static_cast<trust::AgentId>(trustor) == trust::kNoAgent ||
        static_cast<trust::AgentId>(trustee) == trust::kNoAgent) {
      return OpCorruption(payload, "sentinel agent id");
    }
    // The serving boundary never logs non-finite observations; one here
    // means corruption, and applying it would poison the estimates.
    for (const double value : {gain, damage, cost}) {
      if (!std::isfinite(value)) {
        return OpCorruption(payload, "non-finite outcome value");
      }
    }
    op.trustor = static_cast<trust::AgentId>(trustor);
    op.trustee = static_cast<trust::AgentId>(trustee);
    op.task = static_cast<trust::TaskId>(task);
    op.outcome.success = success;
    op.outcome.gain = gain;
    op.outcome.damage = damage;
    op.outcome.cost = cost;
    op.trustor_was_abusive = abusive;
    op.intermediates.reserve(fields.size() - 10);
    for (std::size_t i = 10; i < fields.size(); ++i) {
      SIOT_ASSIGN_OR_RETURN(const std::int64_t agent,
                            OpId(payload, fields[i], "intermediate"));
      op.intermediates.push_back(static_cast<trust::AgentId>(agent));
    }
    return op;
  }
  if (word == "task") {
    op.kind = WalOpKind::kTask;
    if (fields.size() < 3) {
      return OpCorruption(payload, "expected >= 3 fields");
    }
    const auto name = trust::UnescapeNameToken(fields[1]);
    if (!name.ok()) {
      return OpCorruption(payload, StrFormat("malformed task name '%s'",
                                             fields[1].c_str()));
    }
    const auto count = ParseInt(fields[2]);
    if (!count.ok() || count.value() < 0 ||
        static_cast<std::size_t>(count.value()) != fields.size() - 3) {
      return OpCorruption(
          payload, StrFormat("characteristic count '%s' does not match "
                             "%zu trailing fields",
                             fields[2].c_str(), fields.size() - 3));
    }
    op.name = name.value();
    op.characteristics.reserve(fields.size() - 3);
    for (std::size_t i = 3; i < fields.size(); ++i) {
      SIOT_ASSIGN_OR_RETURN(const std::int64_t c,
                            OpId(payload, fields[i], "characteristic"));
      if (static_cast<std::size_t>(c) >= trust::kMaxCharacteristics) {
        return OpCorruption(
            payload, StrFormat("characteristic %lld out of range",
                               static_cast<long long>(c)));
      }
      op.characteristics.push_back(static_cast<trust::CharacteristicId>(c));
    }
    return op;
  }
  if (word == "theta") {
    op.kind = WalOpKind::kTheta;
    if (fields.size() != 4) {
      return OpCorruption(payload, "expected 4 fields");
    }
    SIOT_ASSIGN_OR_RETURN(const std::int64_t trustee,
                          OpId(payload, fields[1], "trustee"));
    std::int64_t task = static_cast<std::int64_t>(trust::kNoTask);
    if (fields[2] != "*") {
      SIOT_ASSIGN_OR_RETURN(task, OpId(payload, fields[2], "task"));
    }
    SIOT_ASSIGN_OR_RETURN(const double theta,
                          OpDouble(payload, fields[3], "theta"));
    if (std::isnan(theta)) {
      // The boundary rejects NaN thresholds (they defeat reconcile's
      // exact-equality compare); one in a log is corruption.
      return OpCorruption(payload, "NaN theta");
    }
    op.trustee = static_cast<trust::AgentId>(trustee);
    op.task = static_cast<trust::TaskId>(task);
    op.value = theta;
    return op;
  }
  if (word == "env") {
    op.kind = WalOpKind::kEnv;
    if (fields.size() != 3) {
      return OpCorruption(payload, "expected 3 fields");
    }
    SIOT_ASSIGN_OR_RETURN(const std::int64_t agent,
                          OpId(payload, fields[1], "agent"));
    SIOT_ASSIGN_OR_RETURN(const double indicator,
                          OpDouble(payload, fields[2], "indicator"));
    if (!(indicator > 0.0 && indicator <= 1.0)) {
      return OpCorruption(payload,
                          StrFormat("indicator %g outside (0, 1]",
                                    indicator));
    }
    op.trustor = static_cast<trust::AgentId>(agent);
    op.value = indicator;
    return op;
  }
  return OpCorruption(payload,
                      StrFormat("unknown op '%s'", word.c_str()));
}

}  // namespace

StatusOr<WalOp> DecodeAnyVersion(std::string_view payload) {
  if (WalPayloadFormat(payload) == kWalFormatBinary) {
    return DecodeBinaryOp(payload);
  }
  return DecodeTextOp(payload);
}

}  // namespace siot::service
