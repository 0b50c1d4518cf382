// The anomaly verdict of a detection session.
//
// In the paper the verdict is the MCM's device flag. A rolling ensemble
// (EnsembleParams active) replaces it with quorum consensus over the live
// member generations: every member is evaluated host-side on each
// inference's input vector, and the session flags when >= quorum members
// do. Quorum owns everything that policy needs — the member set, the
// generation-roll schedule, consensus evaluation and score, and the
// ensemble cursors a checkpoint carries — so DetectionSession only drives
// the phase machine and asks for verdicts and swap instants.
//
// An inert Quorum (built from inactive params) returns the device
// verdict, scores with the device score, and never swaps: a session
// without an ensemble is bit-identical to one built before the ensemble
// layer existed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtad/core/experiment.hpp"
#include "rtad/core/session_checkpoint.hpp"
#include "rtad/ml/lstm.hpp"

namespace rtad::core {

class GenerationCache;

class Quorum {
 public:
  /// "Never": the next swap instant of an inert quorum.
  static constexpr sim::Picoseconds kNever = ~sim::Picoseconds{0};

  /// Seats the `params.size` most recent generations as of session time 0.
  /// Generation 0 is `anchor` — the very models the device image was
  /// compiled from; later generations of (`benchmark`, `kind`) come from
  /// `generations`, which must be non-null when `params` is active and
  /// must outlive the quorum. Throws std::invalid_argument on a null cache
  /// for active params, or on `params.quorum > params.size` (active or
  /// not), which no checkpoint could carry.
  Quorum(const EnsembleParams& params, ModelKind kind, std::string benchmark,
         const TrainedModels& anchor, GenerationCache* generations);

  /// The verdict for one retired inference: the device flag when inert,
  /// the member quorum otherwise. Updates the consensus score and counters.
  bool verdict(const mcm::InferenceRecord& rec);

  /// The latest consensus score: the quorum-th largest member margin
  /// (score over that member's own calibrated threshold), > 1.0 iff the
  /// quorum flagged. Inert quorums report the latest device score.
  double score() const noexcept { return static_cast<double>(score_); }

  /// Session instant the next member roll lands at (kNever when inert).
  sim::Picoseconds next_swap_ps() const noexcept;
  /// Retire the oldest member, admit the next generation.
  void roll();

  /// Write the ensemble cursors into a checkpoint.
  void save(SessionCheckpoint& ckpt) const noexcept;
  /// The first ensemble cursor of `ckpt` this quorum does not reproduce,
  /// or nullptr when all match.
  const char* diverged_cursor(const SessionCheckpoint& ckpt) const noexcept;
  /// Copy the ensemble accounting into a finished result.
  void harvest(DetectionResult& result) const noexcept;

 private:
  struct Member {
    const TrainedModels* models = nullptr;
    ml::Lstm::State lstm_state;  ///< host-side member state (LSTM runs)
  };

  void admit(std::uint32_t gen);
  /// Evaluate every live member on one input vector; returns whether at
  /// least the quorum flagged.
  bool evaluate(const igm::InputVector& input);

  EnsembleParams params_{};
  ModelKind kind_ = ModelKind::kLstm;
  std::string benchmark_;
  const TrainedModels* anchor_ = nullptr;
  GenerationCache* generations_ = nullptr;
  std::vector<Member> members_;
  std::uint32_t gen_hi_ = 0;  ///< newest live generation
  float score_ = 0.0f;        ///< latest consensus (or device) score
  std::uint64_t swaps_ = 0;
  std::uint64_t flags_ = 0;
  std::uint64_t overrides_ = 0;
  std::uint64_t member_evals_ = 0;
  std::vector<float> margins_;  ///< scratch, avoids per-inference alloc
};

}  // namespace rtad::core
