#include "rtad/serve/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rtad/core/detection_session.hpp"

namespace rtad::serve {

namespace {

constexpr sim::Picoseconds kNever = ~sim::Picoseconds{0};

/// Heap comparator: the request with the earlier (arrival, ticket) is the
/// next to re-offer (std::push_heap builds a max-heap, so "greater").
struct RetryLater {
  bool operator()(const SessionRequest& a, const SessionRequest& b) const {
    return a.arrival_ps != b.arrival_ps ? a.arrival_ps > b.arrival_ps
                                        : a.ticket > b.ticket;
  }
};

}  // namespace

Shard::Shard(std::size_t id, const ServiceConfig& cfg,
             std::shared_ptr<core::TrainedModelCache> cache,
             core::GenerationCache* generations)
    : id_(id),
      cfg_(cfg),
      cache_(std::move(cache)),
      generations_(generations),
      admission_(cfg_),
      store_(cfg_.checkpoint_cap_kb * 1024) {
  if (cfg_.ensemble.active() && generations_ == nullptr) {
    throw std::invalid_argument(
        "Shard: active ensemble config requires a GenerationCache");
  }
  if (cfg_.lanes == 0) cfg_.lanes = 1;
  lane_free_at_.assign(cfg_.lanes, 0);
  if (cfg_.serve_faults.any()) {
    fault_sched_ = build_shard_schedule(cfg_.serve_faults, cfg_.fault_seed,
                                        id_, cfg_.lanes);
    wedge_fired_.assign(fault_sched_.wedges.size(), false);
  }
  if (cfg_.checkpoint_every == 0) cfg_.checkpoint_every = 1;
}

sim::Picoseconds Shard::next_crash() const noexcept {
  return crashes_fired_ < fault_sched_.crashes.size()
             ? fault_sched_.crashes[crashes_fired_]
             : kNever;
}

std::size_t Shard::next_wedge(std::size_t lane) const noexcept {
  std::size_t w = 0;
  while (w < fault_sched_.wedges.size() &&
         (wedge_fired_[w] ||
          (lane != kAnyLane && fault_sched_.wedges[w].lane != lane))) {
    ++w;
  }
  return w;
}

sim::Picoseconds Shard::wedge_at(std::size_t w) const noexcept {
  return w < fault_sched_.wedges.size() ? fault_sched_.wedges[w].at : kNever;
}

void Shard::fire_fault_event() {
  const sim::Picoseconds tc = next_crash();
  const std::size_t wi = next_wedge(kAnyLane);
  if (tc <= wedge_at(wi)) {
    // Whole-shard crash: everything waiting in the ingress queue dies with
    // the shard (no progress to save — they were never dispatched) and
    // every lane is down for the downtime. In-flight sessions were already
    // orphaned by their own dispatch when it hit this instant.
    ++crashes_fired_;
    ++counters_.shard_crashes;
    while (auto queued = admission_.next()) {
      ++counters_.queue_flushed;
      ++queued->attempts;
      failover_.push_back({std::move(*queued), {}, tc, id_});
    }
    for (auto& free_at : lane_free_at_) {
      free_at = std::max(free_at, tc + fault_sched_.crash_downtime_ps);
    }
    down_until_ =
        std::max(down_until_, tc + fault_sched_.crash_downtime_ps);
  } else {
    // Idle-lane wedge (a wedge hitting a busy lane is consumed by that
    // dispatch instead): the lane is simply unavailable for a while.
    wedge_fired_[wi] = true;
    ++counters_.lane_wedges;
    auto& free_at = lane_free_at_[fault_sched_.wedges[wi].lane];
    free_at = std::max(free_at, wedge_at(wi) + fault_sched_.wedge_ps);
  }
}

void Shard::retry_or_shed(SessionRequest req, sim::Picoseconds refused_at,
                          std::vector<SessionOutcome>& out) {
  if (admission_.retry_allowed(req)) {
    ++req.attempts;
    admission_.record_retry();
    req.arrival_ps =
        refused_at + admission_.retry_delay(req.ticket, req.attempts);
    retry_queue_.push_back(std::move(req));
    std::push_heap(retry_queue_.begin(), retry_queue_.end(), RetryLater{});
    return;
  }
  SessionOutcome o;
  o.request = std::move(req);
  o.shed = true;
  out.push_back(std::move(o));
}

std::vector<SessionOutcome> Shard::run() {
  std::sort(staged_.begin(), staged_.end(),
            [](const SessionRequest& a, const SessionRequest& b) {
              return a.arrival_ps != b.arrival_ps ? a.arrival_ps < b.arrival_ps
                                                  : a.ticket < b.ticket;
            });
  std::vector<SessionOutcome> out;
  out.reserve(staged_.size());

  std::size_t i = 0;
  while (i < staged_.size() || !retry_queue_.empty() || !admission_.empty()) {
    // Earliest pending arrival: the staged schedule and the retry heap are
    // merged on (arrival_ps, ticket).
    const bool have_staged = i < staged_.size();
    const bool have_retry = !retry_queue_.empty();
    bool retry_first = have_retry;
    if (have_staged && have_retry) {
      const SessionRequest& s = staged_[i];
      const SessionRequest& r = retry_queue_.front();
      retry_first = r.arrival_ps != s.arrival_ps
                        ? r.arrival_ps < s.arrival_ps
                        : r.ticket < s.ticket;
    }
    const sim::Picoseconds t_arr =
        have_staged || have_retry
            ? (retry_first ? retry_queue_.front().arrival_ps
                           : staged_[i].arrival_ps)
            : kNever;

    const sim::Picoseconds t_fault =
        std::min(next_crash(), wedge_at(next_wedge(kAnyLane)));
    if (!admission_.empty()) {
      // Earliest-free lane; lowest index breaks ties so placement is a
      // pure function of the arrival schedule.
      std::size_t lane = 0;
      for (std::size_t l = 1; l < lane_free_at_.size(); ++l) {
        if (lane_free_at_[l] < lane_free_at_[lane]) lane = l;
      }
      const sim::Picoseconds t_start =
          std::max(lane_free_at_[lane], admission_.head().arrival_ps);
      // Fault events fire first on ties: a crash at the instant a dispatch
      // would start takes the shard down before the dispatch exists.
      if (t_fault <= std::min(t_start, t_arr)) {
        fire_fault_event();
        continue;
      }
      // Dispatch-before-arrival on ties: an arrival at exactly the instant
      // a queue slot frees sees the freed slot.
      if (t_start <= t_arr) {
        dispatch(lane, out);
        continue;
      }
    } else if (t_fault <= t_arr && t_arr != kNever) {
      // Keep the fault cursor ahead of the next arrival even while idle, so
      // an arrival after a crash sees the post-crash lane state.
      fire_fault_event();
      continue;
    }

    SessionRequest req;
    if (retry_first) {
      std::pop_heap(retry_queue_.begin(), retry_queue_.end(), RetryLater{});
      req = std::move(retry_queue_.back());
      retry_queue_.pop_back();
    } else {
      req = staged_[i];
      ++i;
    }
    const sim::Picoseconds offered_at = req.arrival_ps;
    if (fault_sched_.in_brownout(offered_at)) {
      // Admission brownout: the door refuses the offer outright; the
      // request is entitled to its retry budget like any refusal.
      ++counters_.brownout_refusals;
      retry_or_shed(std::move(req), offered_at, out);
    } else if (admission_.offer(req) == AdmissionController::Verdict::kShed) {
      retry_or_shed(std::move(req), offered_at, out);
    }
  }

  // Harvest by assignment: admission/store state persists across failover
  // rounds, so the counters are cumulative and the last run() wins.
  counters_.sessions_offered = admission_.offered();
  counters_.sessions_admitted = admission_.admitted();
  counters_.sessions_degraded = admission_.degraded();
  counters_.sessions_retried = admission_.retried();
  counters_.queue_depth = admission_.depth_seen();
  counters_.queue_high_watermark = admission_.high_watermark();
  counters_.checkpoint_evictions = store_.evictions();
  counters_.parked_bytes_hwm = store_.bytes_high_watermark();
  counters_.evicted_blob_bytes = store_.evicted_blob_bytes();
  staged_.clear();
  return out;
}

sim::Picoseconds Shard::horizon() const noexcept {
  return *std::max_element(lane_free_at_.begin(), lane_free_at_.end());
}

void Shard::dispatch(std::size_t lane, std::vector<SessionOutcome>& out) {
  SessionRequest req = *admission_.next();
  const sim::Picoseconds start =
      std::max(lane_free_at_[lane], req.arrival_ps);

  core::DetectionOptions opts = cfg_.detection;
  opts.seed = req.seed;
  opts.attacks = req.attacks;
  opts.proto = req.proto;
  opts.trace_path.clear();
  opts.metrics_path.clear();
  const core::ModelKind model =
      req.degraded ? core::ModelKind::kElm : req.model;

  // Rolling ensemble: the retrain cadence rides the fleet clock, anchored
  // at the request's origin arrival — a pure function of the episode, so a
  // failed-over session resumes the identical member schedule. The census
  // notes the initial member set plus the next generation; the session
  // obtains each member's model when it admits it. Sessions key their
  // generations on the resolved profile name, and so does the census.
  opts.ensemble = cfg_.ensemble;
  opts.ensemble.base_ps = req.origin_arrival_ps;
  const workloads::SpecProfile profile = cache_->profile(req.benchmark);
  const core::TrainedModels& models = cache_->get(req.benchmark);
  if (opts.ensemble.active()) {
    generations_->schedule(profile.name, model,
                           opts.ensemble.generation_at(0) + 1);
  }

  // Thaw or construct. A parked blob resurrects the exact session that was
  // orphaned (its own options, including any degrade decision made at its
  // original admission); an evicted entry (empty blob) restarts the
  // episode from scratch — slower, never a different result.
  std::unique_ptr<core::DetectionSession> session;
  bool recovered = false;
  bool ran_degraded = req.degraded;
  if (auto parked = store_.take(req.ticket)) {
    if (!parked->blob.empty()) {
      const auto ckpt = core::SessionCheckpoint::parse(parked->blob);
      // Cache lookups key on the request's benchmark alias; restore()
      // cross-checks the resolved profile against the blob's full name.
      // The blob's options carry the episode's own ensemble shape (base
      // included) and model kind, so the restored member schedule is the
      // original one: a degraded episode parked as ELM restores its ELM
      // members.
      session = core::DetectionSession::restore(ckpt, profile, models,
                                                generations_);
      recovered = true;
      ++counters_.sessions_recovered;
      counters_.recovery_replay_ps += session->replayed_ps();
      ran_degraded = ckpt.model == core::ModelKind::kElm &&
                     req.model != core::ModelKind::kElm;
    }
    counters_.recovery_latency_us.record(
        sim::to_us(start - parked->parked_at));
  }
  if (!session) {
    session = std::make_unique<core::DetectionSession>(
        profile, models, model, req.engine, opts, generations_);
  }
  const sim::Picoseconds base = session->now();

  // First fault event that can interrupt this run: the next unfired crash,
  // or the next unfired wedge on this lane if it comes first. The main loop
  // fires events preceding the dispatch, so every unfired event is strictly
  // after `start`.
  const std::size_t wedge = next_wedge(lane);
  const bool interrupt_is_crash = wedge_at(wedge) >= next_crash();
  const sim::Picoseconds interrupt_at =
      interrupt_is_crash ? next_crash() : wedge_at(wedge);

  // Drive the session. Under an interruptible window, serialize a periodic
  // checkpoint so a fault loses at most checkpoint_every quanta of work —
  // exactly the work a real crash destroys.
  //
  // Telemetry rides the same boundaries: each advance() stages one sample
  // on the tenant's stream clock (origin arrival + session time — a pure
  // function of the episode). Staged samples commit to the shard ring at
  // every checkpoint serialize and at completion; a fault interrupt
  // discards everything staged past the last checkpoint, because the
  // restored session re-executes that work and re-emits the identical
  // samples. Parked sessions therefore keep their stream, and a recovered
  // session appends at exactly the restored cursor.
  std::vector<TelemetryRecord> staged_telemetry;
  std::uint64_t prev_flags = session->anomaly_flags();
  sim::Picoseconds last_sample_at = req.origin_arrival_ps + base;
  std::uint32_t next_health = recovered ? 1 : 0;
  const auto stage_sample = [&] {
    const sim::Picoseconds at = req.origin_arrival_ps + session->now();
    if (at <= last_sample_at) return;  // keep stream clocks strictly rising
    TelemetryRecord rec;
    rec.tenant = req.tenant;
    rec.ticket = req.ticket;
    rec.sample.at_ps = at;
    // The consensus score is what the fleet watches; for a plain session
    // it degenerates to the device score, byte-identically.
    rec.sample.score = session->last_consensus_score();
    rec.sample.flagged = session->anomaly_flags() > prev_flags;
    rec.sample.health = next_health;
    next_health = 0;
    prev_flags = session->anomaly_flags();
    last_sample_at = at;
    staged_telemetry.push_back(std::move(rec));
  };
  const auto commit_telemetry = [&] {
    for (auto& rec : staged_telemetry) telemetry_.push_back(std::move(rec));
    staged_telemetry.clear();
  };

  // Without an interrupt ahead there is nothing to checkpoint against, and
  // fleet time never reaches kNever, so the loop simply runs to completion.
  const bool interruptible = interrupt_at != kNever;
  std::vector<std::uint8_t> last_blob;
  const auto checkpoint = [&] {
    last_blob = session->checkpoint().serialize();
    ++counters_.checkpoints;
    counters_.checkpoint_bytes.record(static_cast<double>(last_blob.size()));
  };
  if (interruptible) checkpoint();
  std::uint64_t since_ckpt = 0;
  bool interrupted = false;
  while (!session->done()) {
    const bool more = session->advance(cfg_.quantum_ps);
    if (start + (session->now() - base) >= interrupt_at) {
      // Work past the last checkpoint dies with the fault — its staged
      // samples with it (the restore will re-emit them byte-identically).
      interrupted = true;
      break;
    }
    stage_sample();
    if (interruptible && more && ++since_ckpt >= cfg_.checkpoint_every) {
      since_ckpt = 0;
      checkpoint();
      commit_telemetry();
    }
    if (!more) break;
  }

  if (interrupted) {
    ++counters_.sessions_parked;
    ++req.attempts;
    if (interrupt_is_crash) {
      // The crash's shard-wide effects (queue flush, downtime) fire via
      // the main-loop cursor; here the lane just loses its session. It
      // must restore elsewhere — this shard is going down.
      failover_.push_back(
          {std::move(req), std::move(last_blob), interrupt_at, id_});
      lane_free_at_[lane] = interrupt_at;
    } else {
      // Wedge: the shard survives, so park locally and re-offer here.
      wedge_fired_[wedge] = true;
      ++counters_.lane_wedges;
      lane_free_at_[lane] = interrupt_at + fault_sched_.wedge_ps;
      store_.put(req.ticket, std::move(last_blob), interrupt_at);
      admission_.record_retry();
      req.arrival_ps =
          interrupt_at + admission_.retry_delay(req.ticket, req.attempts);
      retry_queue_.push_back(std::move(req));
      std::push_heap(retry_queue_.begin(), retry_queue_.end(), RetryLater{});
    }
    return;
  }

  commit_telemetry();
  SessionOutcome o;
  o.request = std::move(req);
  o.degraded = ran_degraded;
  o.recovered = recovered;
  o.start_ps = start;
  o.service_ps = session->now() - base;
  o.completion_ps = start + o.service_ps;
  o.sojourn_ps = o.completion_ps - o.request.origin_arrival_ps;
  o.detection = session->result();
  lane_free_at_[lane] = o.completion_ps;
  ++counters_.sessions_completed;
  if (o.request.proto == trace::TraceProtocol::kEtrace) {
    ++counters_.sessions_etrace;
  } else {
    ++counters_.sessions_pft;
  }
  if (o.degraded) counters_.degraded_inferences += o.detection.inferences;
  counters_.ensemble_swaps += o.detection.ensemble_swaps;
  counters_.consensus_flags += o.detection.consensus_flags;
  counters_.consensus_overrides += o.detection.consensus_overrides;
  counters_.member_evals += o.detection.member_evals;
  out.push_back(std::move(o));
}

}  // namespace rtad::serve
