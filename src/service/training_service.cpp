#include "service/training_service.hpp"

#include <atomic>
#include <bit>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "io/checkpoint.hpp"
#include "objectives/objective.hpp"
#include "solvers/snapshot.hpp"
#include "solvers/solver.hpp"
#include "util/logging.hpp"

namespace isasgd::service {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Solver working-set estimate beyond the data source itself: the SAG/SAGA
/// family is the ceiling — per-row gradient memory (alpha, n doubles) plus a
/// handful of dim-length vectors (model, aggregate, anchors, importance).
std::size_t working_set_bytes(std::size_t rows, std::size_t dim) {
  return rows * sizeof(double) + 6 * dim * sizeof(double);
}

}  // namespace

std::uint64_t hash_model(std::span<const double> w) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const double v : w) {
    const auto word = std::bit_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (word >> shift) & 0xffU;
      h *= kFnvPrime;
    }
  }
  return h;
}

/// Everything the service tracks about one job. Reported fields (state,
/// epoch, objective_value, ...) are guarded by the service's mu_; the
/// request flags are atomics so fences read them without taking it.
struct TrainingService::Job {
  std::uint64_t id = 0;
  JobSpec spec;

  JobState state = JobState::kQueued;
  std::size_t epoch = 0;
  double objective_value = 0;
  std::size_t reserved_bytes = 0;
  std::uint64_t model_hash = 0;
  std::string message;

  std::atomic<bool> pause_requested{false};
  std::atomic<bool> cancel_requested{false};
  std::atomic<bool> checkpoint_requested{false};

  /// Validated at submit; the data source these point at lives here so the
  /// job thread never touches the spec's path again.
  std::shared_ptr<const data::DataSource> source;
  std::unique_ptr<objectives::Objective> objective;
  std::uint64_t dataset_fingerprint = 0;
  std::optional<solvers::SnapshotState> resume_state;

  std::thread thread;
  bool slice_held = false;
};

/// Bridges solver epoch fences to the service: status updates, early stop
/// on cancel, pause parking, and the slice-slot round-robin.
class TrainingService::FenceObserver final : public solvers::TrainingObserver {
 public:
  FenceObserver(TrainingService& service, Job& job)
      : service_(service), job_(job) {}

  bool on_epoch(const solvers::TracePoint& point) override {
    return service_.fence(job_, point.epoch, point.objective);
  }

 private:
  TrainingService& service_;
  Job& job_;
};

/// Serialises fence captures to the job's checkpoint file. Runs on the job
/// thread at the fence, so a slow disk stalls only this job's slice.
class TrainingService::CheckpointSink final : public solvers::SnapshotSink {
 public:
  explicit CheckpointSink(Job& job) : job_(job) {}

  [[nodiscard]] bool wants(std::size_t epoch) const override {
    if (job_.checkpoint_requested.load(std::memory_order_relaxed)) return true;
    const std::size_t every = job_.spec.checkpoint_every;
    return every != 0 && epoch % every == 0;
  }

  void capture(solvers::SnapshotState state) override {
    state.dataset_fingerprint = job_.dataset_fingerprint;
    io::save_checkpoint(job_.spec.checkpoint_path, state);
    job_.checkpoint_requested.store(false, std::memory_order_relaxed);
  }

 private:
  Job& job_;
};

TrainingService::TrainingService() : TrainingService(Options{}) {}

TrainingService::TrainingService(Options options)
    : options_(options),
      execution_(options.execution
                     ? std::move(options.execution)
                     : std::make_shared<core::ExecutionContext>(
                           options.eval_threads)),
      governor_(options.memory_budget_bytes) {
  if (options_.max_concurrent == 0) options_.max_concurrent = 1;
}

TrainingService::~TrainingService() {
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [id, job] : jobs_) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
      job->pause_requested.store(false, std::memory_order_relaxed);
      if (job->state == JobState::kQueued) {
        job->state = JobState::kCancelled;
      }
      if (job->thread.joinable()) threads.push_back(std::move(job->thread));
    }
    for (std::thread& t : reaped_) threads.push_back(std::move(t));
    reaped_.clear();
    admit_queue_.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(slice_mu_);
    slice_cv_.notify_all();
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

std::uint64_t TrainingService::submit(JobSpec spec) {
  if (spec.dataset.empty() == !spec.matrix) {
    throw std::invalid_argument(
        "job spec must set exactly one of dataset (file path) and matrix "
        "(in-process data)");
  }
  if (spec.checkpoint_every != 0 && spec.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "checkpoint_every requires checkpoint_path to be set");
  }
  // Resolve the solver now: an unknown name throws at submit (listing the
  // registry), and a checkpointing spec on a non-checkpointable solver is a
  // spec error, not a later job failure.
  const solvers::Solver& solver = solvers::SolverRegistry::instance().get(
      spec.solver);
  if ((!spec.checkpoint_path.empty() || !spec.resume_from.empty()) &&
      !solver.capabilities().checkpointable) {
    throw std::invalid_argument("solver '" + std::string(solver.name()) +
                                "' does not support checkpoint/resume");
  }

  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->objective = objectives::make_objective(job->spec.objective);

  // Resolve the data source up front so footprint, fingerprint, and file
  // errors all surface at submit time, on the caller, not inside the job.
  if (job->spec.matrix) {
    auto source = std::make_shared<data::InMemorySource>(*job->spec.matrix);
    job->reserved_bytes = source->resident_bytes();
    job->source = std::move(source);
  } else {
    auto source =
        execution_->open_source(job->spec.dataset, job->spec.streaming);
    job->reserved_bytes = source->resident_bytes();
    job->source = std::move(source);
  }
  job->dataset_fingerprint = job->source->fingerprint();
  job->reserved_bytes +=
      working_set_bytes(job->source->rows(), job->source->dim());

  if (!job->spec.resume_from.empty()) {
    solvers::SnapshotState state = io::load_checkpoint(job->spec.resume_from);
    if (state.dataset_fingerprint != job->dataset_fingerprint) {
      throw io::CheckpointError(
          "resume refused: checkpoint '" + job->spec.resume_from +
          "' was written against a different dataset (fingerprint mismatch)");
    }
    job->resume_state = std::move(state);
  }

  const bool admitted = governor_.try_reserve(job->reserved_bytes);

  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      if (admitted) governor_.release(job->reserved_bytes);
      throw std::runtime_error("training service is shutting down");
    }
    id = next_id_++;
    job->id = id;
    jobs_.emplace(id, job);
    if (admitted) {
      start_locked(job);
    } else {
      job->state = JobState::kQueued;
      admit_queue_.push_back(id);
      util::log_info() << "service: job " << id << " queued ("
                       << job->reserved_bytes << " bytes requested, "
                       << governor_.available() << " bytes available)";
    }
  }
  cv_.notify_all();
  return id;
}

void TrainingService::start_locked(const std::shared_ptr<Job>& job) {
  job->state = JobState::kRunning;
  job->thread = std::thread([this, job] { run_job(job); });
}

void TrainingService::pump_queue() {
  std::vector<std::shared_ptr<Job>> started;
  std::vector<std::thread> finished;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    finished.swap(reaped_);
    while (!admit_queue_.empty() && !shutdown_) {
      const auto it = jobs_.find(admit_queue_.front());
      if (it == jobs_.end() || it->second->state != JobState::kQueued) {
        admit_queue_.pop_front();  // cancelled while queued
        continue;
      }
      // FIFO admission: if the head does not fit, nothing behind it jumps
      // the line (no starvation of large jobs).
      if (!governor_.try_reserve(it->second->reserved_bytes)) break;
      admit_queue_.pop_front();
      start_locked(it->second);
      started.push_back(it->second);
    }
  }
  if (!started.empty()) cv_.notify_all();
  // Outside mu_: a join under it would stall every other job's fence.
  for (std::thread& t : finished) t.join();
}

void TrainingService::run_job(std::shared_ptr<Job> job) {
  core::ExecutionContext::JobToken token = execution_->begin_job();
  acquire_slice(*job);

  JobState final_state = JobState::kCompleted;
  std::string failure;
  std::uint64_t model_hash = 0;
  try {
    core::Trainer trainer = core::TrainerBuilder()
                                .source(*job->source)
                                .objective(*job->objective)
                                .regularization(job->spec.options.reg)
                                .eval_threads(options_.eval_threads)
                                .execution(execution_)
                                .build();
    solvers::SolverOptions options = job->spec.options;
    options.keep_final_model = true;  // backs the status model hash

    solvers::SnapshotHooks hooks;
    if (job->resume_state) hooks.resume = &*job->resume_state;
    CheckpointSink sink(*job);
    if (!job->spec.checkpoint_path.empty()) hooks.sink = &sink;

    FenceObserver observer(*this, *job);
    const solvers::Trace trace =
        trainer.train(job->spec.solver, options, &observer, hooks);
    model_hash = hash_model(trace.final_model);
    if (job->cancel_requested.load(std::memory_order_relaxed)) {
      final_state = JobState::kCancelled;
    }
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    failure = e.what();
    util::log_error() << "service: job " << job->id << " failed: " << failure;
  }

  release_slice(*job);
  // Drop the active-job token BEFORE the terminal state becomes visible:
  // a waiter woken by the state change (wait/wait_all) must never observe
  // the job as both terminal and still active. The mutex below orders the
  // relaxed decrement for that waiter.
  token.release();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job->state = final_state;
    job->message = std::move(failure);
    job->model_hash = model_hash;
  }
  governor_.release(job->reserved_bytes);
  cv_.notify_all();
  pump_queue();
  // Last step: hand this thread to the reap list, so the next pump_queue
  // (or the destructor) joins it and a finished job's stack is unmapped
  // instead of staying resident for the service's lifetime.
  const std::lock_guard<std::mutex> lock(mu_);
  if (job->thread.joinable()) reaped_.push_back(std::move(job->thread));
}

bool TrainingService::fence(Job& job, std::size_t epoch,
                            double objective_value) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job.epoch = epoch;
    job.objective_value = objective_value;
  }
  cv_.notify_all();
  if (job.cancel_requested.load(std::memory_order_relaxed)) return false;
  if (epoch == 0) return true;  // initial-model point: no slice to cycle yet

  // End of this job's slice: give the slot up, park if paused, rejoin the
  // FIFO. With more resident jobs than slots this is what round-robins the
  // pool at epoch granularity.
  release_slice(job);
  if (job.pause_requested.load(std::memory_order_relaxed)) {
    std::unique_lock<std::mutex> lock(mu_);
    job.state = JobState::kPaused;
    cv_.notify_all();
    cv_.wait(lock, [&] {
      return !job.pause_requested.load(std::memory_order_relaxed) ||
             job.cancel_requested.load(std::memory_order_relaxed) || shutdown_;
    });
    job.state = JobState::kRunning;
    cv_.notify_all();
  }
  if (job.cancel_requested.load(std::memory_order_relaxed)) return false;
  acquire_slice(job);
  return !job.cancel_requested.load(std::memory_order_relaxed);
}

void TrainingService::acquire_slice(Job& job) {
  std::unique_lock<std::mutex> lock(slice_mu_);
  slice_waiters_.push_back(&job);
  slice_cv_.wait(lock, [&] {
    return shutdown_ || (slices_running_ < options_.max_concurrent &&
                         slice_waiters_.front() == &job);
  });
  if (shutdown_) {
    std::erase(slice_waiters_, &job);
    return;  // cancel flag ends the job at the next fence check
  }
  slice_waiters_.pop_front();
  ++slices_running_;
  job.slice_held = true;
  slice_cv_.notify_all();  // next waiter may also fit
}

void TrainingService::release_slice(Job& job) {
  const std::lock_guard<std::mutex> lock(slice_mu_);
  if (!job.slice_held) return;
  job.slice_held = false;
  --slices_running_;
  slice_cv_.notify_all();
}

JobStatus TrainingService::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("unknown job id " + std::to_string(id));
  }
  const Job& job = *it->second;
  JobStatus s;
  s.id = job.id;
  s.state = job.state;
  s.solver = job.spec.solver;
  s.epoch = job.epoch;
  s.epochs_budget = job.spec.options.epochs;
  s.objective_value = job.objective_value;
  s.reserved_bytes = job.reserved_bytes;
  s.model_hash = job.model_hash;
  s.message = job.message;
  return s;
}

std::vector<JobStatus> TrainingService::list() const {
  std::vector<std::uint64_t> ids;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::vector<JobStatus> all;
  all.reserve(ids.size());
  for (const std::uint64_t id : ids) all.push_back(status(id));
  return all;
}

bool TrainingService::pause(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state != JobState::kRunning && job.state != JobState::kQueued &&
      job.state != JobState::kPaused) {
    return false;
  }
  job.pause_requested.store(true, std::memory_order_relaxed);
  return true;
}

bool TrainingService::resume(std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    if (job.state != JobState::kRunning && job.state != JobState::kQueued &&
        job.state != JobState::kPaused) {
      return false;
    }
    job.pause_requested.store(false, std::memory_order_relaxed);
  }
  cv_.notify_all();
  return true;
}

bool TrainingService::cancel(std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    switch (job.state) {
      case JobState::kCompleted:
      case JobState::kFailed:
      case JobState::kCancelled:
        return false;
      case JobState::kQueued:
        job.state = JobState::kCancelled;
        job.cancel_requested.store(true, std::memory_order_relaxed);
        std::erase(admit_queue_, id);
        break;
      case JobState::kRunning:
      case JobState::kPaused:
        job.cancel_requested.store(true, std::memory_order_relaxed);
        job.pause_requested.store(false, std::memory_order_relaxed);
        break;
    }
  }
  cv_.notify_all();
  return true;
}

bool TrainingService::checkpoint(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.spec.checkpoint_path.empty()) return false;
  if (job.state != JobState::kRunning && job.state != JobState::kQueued &&
      job.state != JobState::kPaused) {
    return false;
  }
  job.checkpoint_requested.store(true, std::memory_order_relaxed);
  return true;
}

namespace {

bool terminal(JobState state) noexcept {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

}  // namespace

data::CacheStats TrainingService::cache_stats() const {
  data::CacheStats total{};
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, job] : jobs_) {
    if (terminal(job->state) || !job->source) continue;
    const std::optional<data::CacheStats> s = job->source->cache_stats();
    if (!s) continue;
    total.loads += s->loads;
    total.hits += s->hits;
    total.misses += s->misses;
    total.evictions += s->evictions;
    total.prefetch_issued += s->prefetch_issued;
    total.prefetch_hits += s->prefetch_hits;
    total.prefetch_races += s->prefetch_races;
    total.prefetch_wasted += s->prefetch_wasted;
    total.prefetch_inflight += s->prefetch_inflight;
    total.resident_bytes += s->resident_bytes;
    total.resident_shards += s->resident_shards;
  }
  return total;
}

void TrainingService::wait(std::uint64_t id) {
  // Waits on the state transition only; a finished job's thread is joined
  // by a later job's pump_queue or the destructor (it may still be pumping
  // the admission queue when its state turns terminal).
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("unknown job id " + std::to_string(id));
  }
  const std::shared_ptr<Job> job = it->second;
  cv_.wait(lock, [&] { return terminal(job->state); });
}

void TrainingService::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    for (const auto& [id, job] : jobs_) {
      if (!terminal(job->state)) return false;
    }
    return true;
  });
}

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPaused:
      return "paused";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

}  // namespace isasgd::service
