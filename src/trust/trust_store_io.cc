// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store_io.h"

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "trust/trust_engine.h"

namespace siot::trust {

namespace {

// ------------------------------------------------------ error context --
// Every parse error names the line, the byte offset of that line in the
// input, and a snippet of the offending text: a bad record in a multi-MB
// checkpoint must be findable with dd/sed, not by bisection.

struct LineContext {
  const char* label = "";
  std::size_t line_no = 0;
  std::size_t offset = 0;  ///< Byte offset of the line start in the input.
  std::string_view raw;    ///< The whole line as it appears in the input.
};

Status CorruptionAt(const LineContext& ctx, const std::string& what) {
  return Status::Corruption(StrFormat(
      "%s line %zu at byte offset %zu: %s in %s", ctx.label, ctx.line_no,
      ctx.offset, what.c_str(), CorruptionSnippet(ctx.raw).c_str()));
}

/// Splits `text` into lines, strips comments and blanks, and invokes
/// `fn(ctx, fields)` for every content line.
template <typename Fn>
Status ScanLines(std::string_view text, const char* label, const Fn& fn) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != '\n') continue;
    ++line_no;
    const LineContext ctx{label, line_no, start,
                          text.substr(start, i - start)};
    start = i + 1;
    std::string_view line = ctx.raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    SIOT_RETURN_IF_ERROR(fn(ctx, Split(line, ' ')));
  }
  return Status::OK();
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

// ---------------------------------------------------------- escaping --
// Task names may contain spaces, '#', '%', or control bytes; they are
// percent-escaped so every serialized line splits on single spaces.

std::string EscapeNameToken(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    if (c <= 0x20 || c == '%' || c == '#' || c == 0x7F) {
      out += StrFormat("%%%02X", c);
    } else {
      out += ch;
    }
  }
  return out;
}

std::string CorruptionSnippet(std::string_view text) {
  constexpr std::size_t kSnippetLimit = 60;
  std::string out = "'";
  out.append(text.substr(0, kSnippetLimit));
  out += text.size() > kSnippetLimit ? "...'" : "'";
  return out;
}

StatusOr<std::string> UnescapeNameToken(std::string_view token) {
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::Corruption("truncated %-escape in token");
    }
    const int hi = HexValue(token[i + 1]);
    const int lo = HexValue(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("invalid %-escape in token");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

namespace {

// ------------------------------------------------------ field parsing --

StatusOr<std::int64_t> ParseIdField(const LineContext& ctx,
                                    const std::string& field,
                                    const char* name) {
  const auto parsed = ParseInt(field);
  if (!parsed.ok() || parsed.value() < 0 ||
      parsed.value() > kMaxSerializedId) {
    return CorruptionAt(
        ctx, StrFormat("malformed %s '%s'", name, field.c_str()));
  }
  return parsed.value();
}

StatusOr<double> ParseDoubleField(const LineContext& ctx,
                                  const std::string& field,
                                  const char* name) {
  const auto parsed = ParseDouble(field);
  if (!parsed.ok()) {
    return CorruptionAt(
        ctx, StrFormat("malformed %s '%s'", name, field.c_str()));
  }
  return parsed.value();
}

/// Parses one `record` line (shared by the store and engine-state
/// deserializers) and inserts it into `store`.
Status ParseRecordLine(const LineContext& ctx,
                       const std::vector<std::string>& fields,
                       std::unordered_set<TrustKey, TrustKeyHash>* seen,
                       TrustStore* store) {
  if (fields.size() != 9) {
    return CorruptionAt(
        ctx, StrFormat("expected 9 fields, got %zu", fields.size()));
  }
  SIOT_ASSIGN_OR_RETURN(const std::int64_t trustor,
                        ParseIdField(ctx, fields[1], "trustor"));
  SIOT_ASSIGN_OR_RETURN(const std::int64_t trustee,
                        ParseIdField(ctx, fields[2], "trustee"));
  SIOT_ASSIGN_OR_RETURN(const std::int64_t task,
                        ParseIdField(ctx, fields[3], "task"));
  SIOT_ASSIGN_OR_RETURN(const double s,
                        ParseDoubleField(ctx, fields[4], "success rate"));
  SIOT_ASSIGN_OR_RETURN(const double g,
                        ParseDoubleField(ctx, fields[5], "gain"));
  SIOT_ASSIGN_OR_RETURN(const double d,
                        ParseDoubleField(ctx, fields[6], "damage"));
  SIOT_ASSIGN_OR_RETURN(const double c,
                        ParseDoubleField(ctx, fields[7], "cost"));
  const auto obs = ParseInt(fields[8]);
  if (!obs.ok() || obs.value() < 0) {
    return CorruptionAt(ctx, StrFormat("malformed observation count '%s'",
                                       fields[8].c_str()));
  }
  const TrustKey key{static_cast<AgentId>(trustor),
                     static_cast<AgentId>(trustee),
                     static_cast<TaskId>(task)};
  if (!seen->insert(key).second) {
    return CorruptionAt(
        ctx, StrFormat("duplicate record for (%u, %u, %u)", key.trustor,
                       key.trustee, key.task));
  }
  store->PutRecord(
      key.trustor, key.trustee, key.task,
      TrustRecord{OutcomeEstimates{s, g, d, c},
                  static_cast<std::size_t>(obs.value())});
  return Status::OK();
}

}  // namespace

std::string SerializeTrustStore(const TrustStore& store) {
  std::string out = StrFormat("# siot trust store: %zu records\n",
                              store.size());
  for (const auto& [key, record] : store.AllRecords()) {
    out += StrFormat("record %u %u %u %.17g %.17g %.17g %.17g %zu\n",
                     key.trustor, key.trustee, key.task,
                     record.estimates.success_rate, record.estimates.gain,
                     record.estimates.damage, record.estimates.cost,
                     record.observations);
  }
  return out;
}

Status DeserializeTrustStore(std::string_view text, TrustStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("null store");
  }
  // Keys inserted by THIS parse: a duplicate record line is corruption
  // (silent last-wins would hide a truncated/concatenated file), while
  // overwriting a record the store held before the call stays allowed.
  std::unordered_set<TrustKey, TrustKeyHash> seen;
  return ScanLines(
      text, "trust store",
      [&](const LineContext& ctx, const std::vector<std::string>& fields) {
        if (fields.empty()) return Status::OK();
        if (fields[0] != "record") {
          return CorruptionAt(ctx, StrFormat("unknown directive '%s'",
                                             fields[0].c_str()));
        }
        return ParseRecordLine(ctx, fields, &seen, store);
      });
}

// ------------------------------------------------- engine-state format --

std::string SerializeTrustEngineState(const TrustEngine& engine) {
  std::string out = "# siot engine state\n";
  for (TaskId id = 0; id < engine.catalog().size(); ++id) {
    const Task& task = engine.catalog().Get(id);
    out += StrFormat("task %u %s %zu", id,
                     EscapeNameToken(task.name()).c_str(),
                     task.parts().size());
    for (const WeightedCharacteristic& part : task.parts()) {
      out += StrFormat(" %u:%.17g", part.id, part.weight);
    }
    out += "\n";
  }
  const ReverseEvaluator& reverse = engine.reverse_evaluator();
  out += StrFormat("default_theta %.17g\n", reverse.default_threshold());
  for (const ThresholdEntry& entry : reverse.AllThresholds()) {
    if (entry.task == kNoTask) {
      out += StrFormat("threshold %u * %.17g\n", entry.trustee,
                       entry.theta);
    } else {
      out += StrFormat("threshold %u %u %.17g\n", entry.trustee,
                       entry.task, entry.theta);
    }
  }
  const EnvironmentModel& environment = engine.environment();
  out += StrFormat("default_env %.17g\n", environment.default_indicator());
  for (const auto& [agent, indicator] : environment.AllIndicators()) {
    out += StrFormat("env %u %.17g\n", agent, indicator);
  }
  for (const UsageEntry& entry : reverse.AllHistories()) {
    out += StrFormat("usage %u %u %zu %zu\n", entry.trustee, entry.trustor,
                     entry.history.responsive_uses,
                     entry.history.abusive_uses);
  }
  out += SerializeTrustStore(engine.store());
  return out;
}

Status DeserializeTrustEngineState(std::string_view text,
                                   TrustEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine");
  }
  if (engine->catalog().size() != 0 || engine->store().size() != 0) {
    return Status::FailedPrecondition(
        "engine state restore requires a freshly constructed engine");
  }
  std::unordered_set<TrustKey, TrustKeyHash> seen_records;
  std::unordered_set<std::uint64_t> seen_thresholds;
  std::unordered_set<std::uint64_t> seen_pairs;
  std::unordered_set<AgentId> seen_env;
  const auto pack = [](std::int64_t a, std::int64_t b) {
    return (static_cast<std::uint64_t>(a) << 32) |
           static_cast<std::uint32_t>(b);
  };
  return ScanLines(
      text, "engine state",
      [&](const LineContext& ctx, const std::vector<std::string>& fields) {
        if (fields.empty()) return Status::OK();
        const std::string& directive = fields[0];
        if (directive == "record") {
          return ParseRecordLine(ctx, fields, &seen_records,
                                 &engine->store());
        }
        if (directive == "task") {
          if (fields.size() < 4) {
            return CorruptionAt(
                ctx, StrFormat("expected >= 4 fields, got %zu",
                               fields.size()));
          }
          SIOT_ASSIGN_OR_RETURN(const std::int64_t id,
                                ParseIdField(ctx, fields[1], "task id"));
          if (static_cast<std::size_t>(id) != engine->catalog().size()) {
            return CorruptionAt(
                ctx, StrFormat("task id %lld out of order (next is %zu)",
                               static_cast<long long>(id),
                               engine->catalog().size()));
          }
          auto name = UnescapeNameToken(fields[2]);
          if (!name.ok()) {
            return CorruptionAt(ctx, StrFormat("malformed task name '%s'",
                                               fields[2].c_str()));
          }
          const auto part_count = ParseInt(fields[3]);
          if (!part_count.ok() || part_count.value() < 0 ||
              static_cast<std::size_t>(part_count.value()) !=
                  fields.size() - 4) {
            return CorruptionAt(
                ctx, StrFormat("characteristic count '%s' does not match "
                               "%zu part fields",
                               fields[3].c_str(), fields.size() - 4));
          }
          std::vector<WeightedCharacteristic> parts;
          parts.reserve(fields.size() - 4);
          for (std::size_t i = 4; i < fields.size(); ++i) {
            const std::size_t colon = fields[i].find(':');
            if (colon == std::string::npos) {
              return CorruptionAt(
                  ctx, StrFormat("malformed part '%s' (want c:w)",
                                 fields[i].c_str()));
            }
            SIOT_ASSIGN_OR_RETURN(
                const std::int64_t characteristic,
                ParseIdField(ctx, fields[i].substr(0, colon),
                             "characteristic"));
            // Reject before the narrowing cast: truncating 300 → 44
            // would silently accept corruption as a DIFFERENT
            // characteristic (and break re-serialization identity).
            if (static_cast<std::size_t>(characteristic) >=
                kMaxCharacteristics) {
              return CorruptionAt(
                  ctx, StrFormat("characteristic %lld out of range",
                                 static_cast<long long>(characteristic)));
            }
            SIOT_ASSIGN_OR_RETURN(
                const double weight,
                ParseDoubleField(ctx, fields[i].substr(colon + 1),
                                 "weight"));
            parts.push_back(
                {static_cast<CharacteristicId>(characteristic), weight});
          }
          const auto added =
              engine->catalog().Restore(std::move(name).value(),
                                        std::move(parts));
          if (!added.ok()) {
            return CorruptionAt(
                ctx, "invalid task: " + added.status().message());
          }
          return Status::OK();
        }
        if (directive == "default_theta") {
          if (fields.size() != 2) {
            return CorruptionAt(ctx, "expected 2 fields");
          }
          SIOT_ASSIGN_OR_RETURN(
              const double theta,
              ParseDoubleField(ctx, fields[1], "default theta"));
          engine->reverse_evaluator().SetDefaultThreshold(theta);
          return Status::OK();
        }
        if (directive == "threshold") {
          if (fields.size() != 4) {
            return CorruptionAt(ctx, "expected 4 fields");
          }
          SIOT_ASSIGN_OR_RETURN(const std::int64_t trustee,
                                ParseIdField(ctx, fields[1], "trustee"));
          std::int64_t task = static_cast<std::int64_t>(kNoTask);
          if (fields[2] != "*") {
            SIOT_ASSIGN_OR_RETURN(task,
                                  ParseIdField(ctx, fields[2], "task"));
          }
          SIOT_ASSIGN_OR_RETURN(const double theta,
                                ParseDoubleField(ctx, fields[3], "theta"));
          if (std::isnan(theta)) {
            // The service boundary rejects NaN thresholds (they defeat
            // the exact-equality compare admin reconciliation uses), so
            // one in a checkpoint is corruption.
            return CorruptionAt(ctx, "NaN theta");
          }
          if (!seen_thresholds.insert(pack(trustee, task)).second) {
            return CorruptionAt(ctx, "duplicate threshold");
          }
          engine->reverse_evaluator().SetThreshold(
              static_cast<AgentId>(trustee), static_cast<TaskId>(task),
              theta);
          return Status::OK();
        }
        if (directive == "default_env") {
          if (fields.size() != 2) {
            return CorruptionAt(ctx, "expected 2 fields");
          }
          SIOT_ASSIGN_OR_RETURN(
              const double indicator,
              ParseDoubleField(ctx, fields[1], "default indicator"));
          if (!(indicator > 0.0 && indicator <= 1.0)) {
            return CorruptionAt(
                ctx, StrFormat("indicator %g outside (0, 1]", indicator));
          }
          engine->environment().SetDefaultIndicator(indicator);
          return Status::OK();
        }
        if (directive == "env") {
          if (fields.size() != 3) {
            return CorruptionAt(ctx, "expected 3 fields");
          }
          SIOT_ASSIGN_OR_RETURN(const std::int64_t agent,
                                ParseIdField(ctx, fields[1], "agent"));
          SIOT_ASSIGN_OR_RETURN(
              const double indicator,
              ParseDoubleField(ctx, fields[2], "indicator"));
          if (!(indicator > 0.0 && indicator <= 1.0)) {
            return CorruptionAt(
                ctx, StrFormat("indicator %g outside (0, 1]", indicator));
          }
          if (!seen_env.insert(static_cast<AgentId>(agent)).second) {
            return CorruptionAt(ctx, "duplicate env indicator");
          }
          engine->environment().SetIndicator(static_cast<AgentId>(agent),
                                             indicator);
          return Status::OK();
        }
        if (directive == "usage") {
          if (fields.size() != 5) {
            return CorruptionAt(ctx, "expected 5 fields");
          }
          SIOT_ASSIGN_OR_RETURN(const std::int64_t trustee,
                                ParseIdField(ctx, fields[1], "trustee"));
          SIOT_ASSIGN_OR_RETURN(const std::int64_t trustor,
                                ParseIdField(ctx, fields[2], "trustor"));
          const auto responsive = ParseInt(fields[3]);
          const auto abusive = ParseInt(fields[4]);
          if (!responsive.ok() || responsive.value() < 0 || !abusive.ok() ||
              abusive.value() < 0) {
            return CorruptionAt(ctx, "malformed usage counts");
          }
          if (!seen_pairs.insert(pack(trustee, trustor)).second) {
            return CorruptionAt(ctx, "duplicate usage history");
          }
          engine->reverse_evaluator().RestoreHistory(
              static_cast<AgentId>(trustee), static_cast<AgentId>(trustor),
              UsageHistory{
                  static_cast<std::size_t>(responsive.value()),
                  static_cast<std::size_t>(abusive.value())});
          return Status::OK();
        }
        return CorruptionAt(
            ctx, StrFormat("unknown directive '%s'", directive.c_str()));
      });
}

}  // namespace siot::trust
