#include "rtad/core/quorum.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtad/core/experiment_runner.hpp"

namespace rtad::core {

Quorum::Quorum(const EnsembleParams& params, ModelKind kind,
               std::string benchmark, const TrainedModels& anchor,
               GenerationCache* generations)
    : params_(params),
      kind_(kind),
      benchmark_(std::move(benchmark)),
      anchor_(&anchor),
      generations_(generations) {
  // Checked before the inert return: a checkpoint carries the pair either
  // way, and SessionCheckpoint::parse refuses it.
  if (params_.quorum > params_.size) {
    throw std::invalid_argument(
        "Quorum: ensemble.quorum (" + std::to_string(params_.quorum) +
        ") exceeds ensemble.size (" + std::to_string(params_.size) + ")");
  }
  if (!params_.active()) return;
  if (generations_ == nullptr) {
    throw std::invalid_argument(
        "Quorum: active ensemble options require a GenerationCache");
  }
  gen_hi_ = params_.generation_at(0);
  const std::uint32_t lo =
      gen_hi_ + 1 >= params_.size ? gen_hi_ + 1 - params_.size : 0;
  for (std::uint32_t gen = lo; gen <= gen_hi_; ++gen) admit(gen);
}

void Quorum::admit(std::uint32_t gen) {
  Member m;
  m.models =
      gen == 0 ? anchor_ : &generations_->get(benchmark_, kind_, gen);
  if (kind_ == ModelKind::kLstm) {
    m.lstm_state = m.models->lstm->initial_state();
  }
  members_.push_back(std::move(m));
}

bool Quorum::verdict(const mcm::InferenceRecord& rec) {
  // Member states always track the stream (they are host software fed by
  // the same vectors); the quorum verdict replaces the device's own flag.
  if (members_.empty() || rec.input == nullptr) {
    score_ = rec.score;
    return rec.anomaly;
  }
  const bool flag = evaluate(*rec.input);
  if (!rec.irq_suppressed) {
    if (flag) ++flags_;
    if (rec.anomaly && !flag) ++overrides_;
  }
  return flag;
}

bool Quorum::evaluate(const igm::InputVector& input) {
  margins_.clear();
  std::uint32_t flagged = 0;
  for (auto& m : members_) {
    float score;
    const ml::Threshold* threshold;
    if (kind_ == ModelKind::kElm) {
      // The payload is the encoder's raw sliding histogram; normalize with
      // the same 1/window the training collector applies.
      const auto& fcfg = m.models->features->config();
      ml::Vector x(input.payload.size());
      const float scale = 1.0f / static_cast<float>(fcfg.elm_window);
      for (std::size_t i = 0; i < input.payload.size(); ++i) {
        x[i] = static_cast<float>(input.payload[i]) * scale;
      }
      score = m.models->elm->score(x);
      threshold = &m.models->elm_threshold;
    } else {
      const std::uint32_t token =
          input.payload.empty() ? 0 : input.payload.front();
      m.models->lstm->step(m.lstm_state, token);
      score = m.lstm_state.ewma_nll;
      threshold = &m.models->lstm_threshold;
    }
    if (threshold->exceeded(score)) ++flagged;
    const float t = threshold->value();
    margins_.push_back(t > 0.0f ? score / t : (score > 0.0f ? 2.0f : 0.0f));
    ++member_evals_;
  }
  // Quorum 0 means every configured member, clamped to the members live
  // early in the schedule.
  std::uint32_t q = params_.quorum == 0 ? params_.size : params_.quorum;
  q = std::max<std::uint32_t>(
      std::min<std::uint32_t>(q, static_cast<std::uint32_t>(members_.size())),
      1);
  // Consensus score: the q-th largest member margin — above 1.0 exactly
  // when at least q members sit above their own thresholds. Deliberately
  // NOT folded into the session's score digest: member evaluations are
  // host-side pure functions of payloads the device digest already covers,
  // and keeping the digest device-only makes a zero-drift single-member
  // ensemble byte-identical to the frozen-model baseline (the bench gate).
  // The consensus cursors (flags, overrides, member_evals) carry the swap
  // schedule's integrity proof instead.
  std::nth_element(margins_.begin(), margins_.begin() + (q - 1),
                   margins_.end(), std::greater<float>());
  score_ = margins_[q - 1];
  return flagged >= q;
}

sim::Picoseconds Quorum::next_swap_ps() const noexcept {
  if (members_.empty()) return kNever;
  return static_cast<sim::Picoseconds>(gen_hi_ + 1) * params_.retrain_ps -
         params_.base_ps;
}

void Quorum::roll() {
  ++gen_hi_;
  ++swaps_;
  admit(gen_hi_);
  while (members_.size() > params_.size) members_.erase(members_.begin());
}

void Quorum::save(SessionCheckpoint& ckpt) const noexcept {
  ckpt.ensemble_generation = gen_hi_;
  ckpt.ensemble_swaps = swaps_;
  ckpt.consensus_flags = flags_;
  ckpt.consensus_overrides = overrides_;
  ckpt.member_evals = member_evals_;
}

const char* Quorum::diverged_cursor(
    const SessionCheckpoint& ckpt) const noexcept {
  if (gen_hi_ != ckpt.ensemble_generation) return "ensemble_generation";
  if (swaps_ != ckpt.ensemble_swaps) return "ensemble_swaps";
  if (flags_ != ckpt.consensus_flags) return "consensus_flags";
  if (overrides_ != ckpt.consensus_overrides) return "consensus_overrides";
  if (member_evals_ != ckpt.member_evals) return "member_evals";
  return nullptr;
}

void Quorum::harvest(DetectionResult& result) const noexcept {
  result.ensemble_size = members_.empty() ? 0 : params_.size;
  result.ensemble_swaps = swaps_;
  result.consensus_flags = flags_;
  result.consensus_overrides = overrides_;
  result.member_evals = member_evals_;
}

}  // namespace rtad::core
