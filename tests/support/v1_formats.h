// Copyright 2026 The siot-trust Authors.
// Writers of the v1 (text) on-disk formats, for tests only.
//
// Production code writes only v2 binary WAL payloads and checkpoints;
// the v1 decoders stay in siot_core forever (wal_codec.h,
// checkpoint_codec.h) so a pre-binary directory recovers with no
// migration step. These are the pre-binary service's writers, kept so
// the codec tests, the mixed-version compat matrix and the committed
// fixture regeneration can still lay down v1 bytes.

#ifndef SIOT_TESTS_SUPPORT_V1_FORMATS_H_
#define SIOT_TESTS_SUPPORT_V1_FORMATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "trust/trust_engine.h"
#include "trust/types.h"
#include "trust/update.h"

namespace siot::service {

// ------------------------------------------------------- v1 encoders --

/// v1 text WAL payloads (layouts in wal_codec.h).
std::string EncodeOutcomeOp(trust::AgentId trustor, trust::AgentId trustee,
                            trust::TaskId task,
                            const trust::DelegationOutcome& outcome,
                            bool trustor_was_abusive,
                            const std::vector<trust::AgentId>& intermediates);
std::string EncodeTaskOp(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics);
std::string EncodeThetaOp(trust::AgentId trustee, trust::TaskId task,
                          double theta);
std::string EncodeEnvOp(trust::AgentId agent, double indicator);

/// Encodes the v1 text checkpoint (header + applied_seq line +
/// SerializeTrustEngineState), byte-identical to what the pre-binary
/// service wrote.
std::string EncodeCheckpointText(std::uint64_t applied_seq,
                                 const trust::TrustEngine& engine);

// ------------------------------------------- pre-binary directories --

/// Checkpoints `engine` through `persist` as usual (binary file, WAL
/// truncated), then rewrites the checkpoint file in the v1 text format
/// at the same applied sequence: the directory the pre-binary service
/// left behind after a checkpoint.
Status CheckpointV1(ShardPersistence* persist,
                    const trust::TrustEngine& engine);

/// Deterministic outcome i of the compat script. Doubles are picked to
/// need every bit (1/32 steps and an irrational-ish damage) so
/// "byte-identical recovery" tests the codecs, not round numbers.
OutcomeReport CompatReport(int i);

/// Builds a persistence directory the way the PRE-BINARY service did:
/// manifest, then v1 text payloads logged op by op through
/// ShardPersistence (admin prologue — task "sense", a theta, an env
/// indicator — to every shard, outcomes [0, outcomes) of CompatReport
/// routed by ShardIndexForTrustor), with a v1 text checkpoint of every
/// shard after `checkpoint_after` outcomes (0 = never). `dir` must not
/// exist yet. The one regeneration path of the v1 compat fixtures.
void BuildV1Directory(const TrustServiceConfig& config,
                      const std::string& dir, int outcomes,
                      int checkpoint_after);

}  // namespace siot::service

#endif  // SIOT_TESTS_SUPPORT_V1_FORMATS_H_
