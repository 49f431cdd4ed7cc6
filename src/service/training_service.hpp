// TrainingService: a resident multi-tenant training daemon core.
//
// One service owns one shared core::ExecutionContext (one worker pool) and
// runs many jobs against it concurrently. Three mechanisms make that safe
// and fair:
//
//   * Epoch-fence time slicing. Each job trains on its own thread, but only
//     `max_concurrent` jobs may be inside a timed epoch at once: at every
//     epoch fence a job releases its slice slot and FIFO-reacquires it, so
//     N resident jobs round-robin the pool at epoch granularity instead of
//     stampeding it. (ThreadPool::run serialises dispatches internally —
//     the slicing bounds *oversubscription*, the pool guarantees safety.)
//
//   * Admission control. Every job declares its resident footprint (the
//     source's resident_bytes() plus a solver working-set estimate) to the
//     MemoryGovernor: over-budget jobs are rejected with a typed
//     AdmissionError, jobs that do not fit *right now* queue FIFO and admit
//     as running jobs release their reservations.
//
//   * Deterministic checkpoint/resume. Jobs with a checkpoint_path save
//     their full solver state (io/checkpoint.hpp) at epoch fences —
//     periodically and/or on demand — and a job submitted with resume_from
//     continues a killed run with a bit-identical final model (the
//     snapshot.hpp contract; the service adds the dataset-fingerprint
//     check on top).
//
// Lifecycle verbs (pause/resume/cancel/checkpoint) all take effect at epoch
// fences — between fences a job is untouchable by design, exactly the
// granularity the solvers already quiesce at.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/execution.hpp"
#include "objectives/objective.hpp"
#include "service/job.hpp"
#include "service/memory_governor.hpp"

namespace isasgd::service {

/// FNV-1a over a model vector's bit pattern — the 64-bit identity the
/// determinism contract is asserted on (two bit-identical models hash
/// equal; any differing bit almost surely differs).
[[nodiscard]] std::uint64_t hash_model(std::span<const double> w) noexcept;

class TrainingService {
 public:
  struct Options {
    /// Jobs allowed inside a timed epoch simultaneously (the slice slots).
    std::size_t max_concurrent = 2;
    /// Total resident-memory budget handed to the MemoryGovernor.
    std::size_t memory_budget_bytes = std::size_t{512} << 20;
    /// Eval threads per job's snapshot scoring (kept small: evaluation
    /// shares the pool with every resident job's epochs).
    std::size_t eval_threads = 1;
    /// Shared execution context; the service creates its own when null.
    core::ExecutionContextPtr execution;
  };

  /// Default Options. (Separate constructor rather than a `= {}` default
  /// argument: a nested aggregate's member initializers are not usable as a
  /// default argument inside the enclosing class.)
  TrainingService();
  explicit TrainingService(Options options);
  /// Cancels every job, wakes all waiters, joins all job threads.
  ~TrainingService();

  TrainingService(const TrainingService&) = delete;
  TrainingService& operator=(const TrainingService&) = delete;

  /// Validates and admits a job. Returns its id immediately — training runs
  /// on a service-owned thread. Throws:
  ///   * std::invalid_argument — malformed spec (unknown solver/objective,
  ///     no dataset, checkpoint_every without checkpoint_path, ...);
  ///   * AdmissionError — footprint exceeds the total memory budget;
  ///   * io::CheckpointError — resume_from unreadable, corrupt, or from a
  ///     different dataset.
  /// A job that fits the budget but not the currently available memory is
  /// accepted in state kQueued and starts when capacity frees up.
  std::uint64_t submit(JobSpec spec);

  /// Snapshot of one job. Throws std::invalid_argument for an unknown id.
  [[nodiscard]] JobStatus status(std::uint64_t id) const;
  /// Snapshots of every job, in submission order.
  [[nodiscard]] std::vector<JobStatus> list() const;

  /// Requests a pause at the next epoch fence. False for unknown ids and
  /// jobs already terminal.
  bool pause(std::uint64_t id);
  /// Clears a pause (no-op when not paused). False as above.
  bool resume(std::uint64_t id);
  /// Requests cancellation: queued jobs leave the queue immediately,
  /// running jobs stop at the next fence (the pool stays reusable — the
  /// fence means it already drained). False as above.
  bool cancel(std::uint64_t id);
  /// Arms a checkpoint save at the next fence. False for unknown ids,
  /// terminal jobs, and jobs without a checkpoint_path.
  bool checkpoint(std::uint64_t id);

  /// Blocks until the job reaches a terminal state.
  void wait(std::uint64_t id);
  /// Blocks until every submitted job is terminal.
  void wait_all();

  [[nodiscard]] core::ExecutionContext& execution() noexcept {
    return *execution_;
  }
  [[nodiscard]] const MemoryGovernor& governor() const noexcept {
    return governor_;
  }

  /// Sum of the shard-cache counters across every non-terminal job whose
  /// source reports them (streaming/packed backends) — the daemon-wide view
  /// the protocol's `stats` verb prints. Zeros when no such job is live.
  [[nodiscard]] data::CacheStats cache_stats() const;

 private:
  struct Job;
  class FenceObserver;
  class CheckpointSink;

  /// Starts the job's thread (reservation already held). Caller holds mu_.
  void start_locked(const std::shared_ptr<Job>& job);
  /// Admits queued jobs that now fit. Caller must NOT hold mu_.
  void pump_queue();
  /// The job thread body.
  void run_job(std::shared_ptr<Job> job);
  /// Epoch-fence protocol: update status, honour cancel/pause, cycle the
  /// slice slot. Returns false to early-stop the solver.
  bool fence(Job& job, std::size_t epoch, double objective_value);

  void acquire_slice(Job& job);
  void release_slice(Job& job);

  Options options_;
  core::ExecutionContextPtr execution_;
  MemoryGovernor governor_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< job state transitions (wait, pause)
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> admit_queue_;  ///< kQueued, FIFO
  /// Threads of finished jobs, moved here by themselves as their last step;
  /// pump_queue joins them outside mu_, the destructor joins the rest.
  std::vector<std::thread> reaped_;
  /// Atomic: checked under mu_ (submit, pause parking) *and* under
  /// slice_mu_ (acquire_slice) — an atomic keeps both reads race-free.
  std::atomic<bool> shutdown_{false};

  /// Slice scheduler state (separate lock: fences must never contend with
  /// status queries).
  std::mutex slice_mu_;
  std::condition_variable slice_cv_;
  std::deque<const Job*> slice_waiters_;  ///< FIFO fairness
  std::size_t slices_running_ = 0;
};

}  // namespace isasgd::service
