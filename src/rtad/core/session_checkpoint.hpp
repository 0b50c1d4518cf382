// Checkpoint/restore for streaming detection sessions.
//
// A SessionCheckpoint is everything needed to resurrect a DetectionSession
// at a past advance() boundary on another shard, another process, or after
// a crash — *without* serializing the SoC. The insight is that the whole
// simulation is already a pure function of its configuration: the
// determinism harness proves that a session advanced in ANY chunk pattern
// retires a bit-identical run. So the checkpoint records the session's
// configuration plus its progress (the simulated time of the boundary), and
// restore() rebuilds the SoC and *replays* deterministically up to that
// boundary. The replayed session is then byte-identical to the original —
// not approximately recovered, provably identical — for the rest of its
// life, across RTAD_SCHED, RTAD_BACKEND and RTAD_TRACE_PROTO (state at a
// run-API boundary is scheduler-invariant, so a checkpoint taken under one
// kernel restores under the other).
//
// The blob is byte-stable: fixed field order, little-endian integers, IEEE
// bit patterns for doubles, length-prefixed strings, a leading format magic
// ("RTADCKP2"; v1 blobs still parse — see kMagic) and a trailing FNV-1a
// digest. Progress cursors (score
// digest, flag/inference/IRQ counts, phase) ride along purely as an
// integrity proof: restore() replays first, then cross-checks every cursor
// and throws CheckpointError on any mismatch, so a corrupted or mismatched
// blob can never silently produce a diverged session.
//
// What is captured: the full DetectionOptions (including the fault plan —
// fault streams are per-datum, so replay re-fires the identical fault
// sequence even when faults straddle the checkpoint), model/engine kinds,
// the benchmark name, and the boundary time. What is NOT captured: the
// trained model weights and the workload profile — those are process-level
// shared state (core::TrainedModelCache), addressed by benchmark name, and
// handed to restore() by the caller. This keeps blobs O(100 bytes): a
// parked session costs a blob, not a live SoC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtad/core/experiment.hpp"

namespace rtad::core {

/// A malformed, corrupted, or divergent checkpoint blob. Raised by parsing
/// (bad magic/version, truncation, digest mismatch) and by restore() when
/// the replay fails to reproduce the recorded progress cursors.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One resumable boundary of a DetectionSession. Obtain from
/// DetectionSession::checkpoint(), move across shards/processes as bytes,
/// resurrect with DetectionSession::restore().
struct SessionCheckpoint {
  /// Format tag serialized at the front of every blob; bump on any layout
  /// change. serialize() always writes the current version (v2: ensemble
  /// params + cursors); parse() additionally accepts v1 blobs — a v1 blob
  /// restores with inert ensemble options, i.e. as a single-model
  /// generation-0 ensemble — and raises a named unknown-version error on
  /// any other RTADCKP tag rather than misreading it.
  static constexpr char kMagic[9] = "RTADCKP2";
  static constexpr char kMagicV1[9] = "RTADCKP1";

  std::string benchmark;  ///< cache key for profile + trained models
  ModelKind model = ModelKind::kLstm;
  EngineKind engine = EngineKind::kMlMiaow;
  DetectionOptions options{};

  /// Simulated time of the advance() boundary this checkpoint names.
  sim::Picoseconds progress_ps = 0;

  // --- progress cursors (integrity proof, verified after replay) ---
  std::uint64_t score_digest = 0;
  std::uint64_t anomaly_flags = 0;
  std::uint64_t inferences = 0;
  std::uint64_t irqs_fired = 0;
  std::uint64_t attacks_completed = 0;
  std::uint64_t false_positives = 0;
  std::uint8_t phase = 0;  ///< DetectionSession::Phase at the boundary
  bool done = false;

  // --- ensemble cursors (v2; all zero for inert-ensemble sessions and for
  // parsed v1 blobs) --- the member set itself is not serialized: it is a
  // pure function of (options.ensemble, progress_ps), and restore()'s
  // replay re-runs every member evaluation, then cross-checks these.
  std::uint32_t ensemble_generation = 0;  ///< newest live generation
  std::uint64_t ensemble_swaps = 0;
  std::uint64_t consensus_flags = 0;
  std::uint64_t consensus_overrides = 0;
  std::uint64_t member_evals = 0;

  /// Byte-stable encoding (see file comment for the format contract).
  std::vector<std::uint8_t> serialize() const;

  /// Inverse of serialize(). Throws CheckpointError on bad magic,
  /// truncated input, trailing bytes, digest mismatch, or a field out of
  /// range (an unknown enum value, an ensemble quorum above its size) —
  /// each named in the message.
  static SessionCheckpoint parse(const std::uint8_t* data, std::size_t size);
  static SessionCheckpoint parse(const std::vector<std::uint8_t>& blob) {
    return parse(blob.data(), blob.size());
  }
};

}  // namespace rtad::core
