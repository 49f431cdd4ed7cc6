// The measured operations both runs share: one solver run timed from
// outside (the paper's accounting), and one closed batch of service jobs.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/data_source.hpp"
#include "data/packed_source.hpp"
#include "distributed/param_server.hpp"
#include "service/job.hpp"
#include "service/training_service.hpp"
#include "solvers/options.hpp"

namespace ladder {

/// Where a solver run reads its data from.
enum class Path {
  kInMemory,         ///< the generated matrix, resident
  kPacked,           ///< PackedSource over the workload's pack (materialised)
  kPackedStreaming,  ///< PackedSource, streamed shard by shard
  kProcessGroup,     ///< resident matrix, real 1-server/k-worker group on shm
  kFencedSimulator,  ///< resident matrix, the same group's fenced simulator
};

/// One solver run, timed from outside.
struct SolverRun {
  /// Source open through the first epoch start: open, materialise,
  /// importance, partition, alias build, process-group fork, and the
  /// initial-model scoring that precedes epoch 1 in every solver.
  double setup_s = 0;
  /// The solver's own setup clock (Trace::setup_seconds), part of setup_s.
  double solver_setup_s = 0;
  /// Setup plus the training clock at the fixed target (NaN if missed).
  double time_to_target_s = std::numeric_limits<double>::quiet_NaN();
  /// Training throughput over epochs 2..E, evaluation excluded.
  double samples_per_s = 0;
  /// Source open through teardown, as the user waits for it.
  double wall_s = 0;
  double final_rmse = std::numeric_limits<double>::quiet_NaN();
  /// Per epoch 1..E: training clock, and the wall time around it (fence).
  std::vector<double> epoch_s;
  std::vector<double> fence_s;
  std::vector<double> final_model;  ///< when requested
  std::optional<isasgd::distributed::ParamServerReport> report;
  std::optional<isasgd::data::CacheStats> cache;
  /// Largest resident set seen at the run's epoch fences, MiB.
  double peak_rss_mb = 0;
  /// Self time per layer span of this run (traced runs only); the run's own
  /// unattributed time is keyed "".
  std::map<std::string, double> self_s;

  [[nodiscard]] bool reached() const { return time_to_target_s == time_to_target_s; }
};

/// PackedSource options of every packed run: about a tenth of the pack
/// stays resident.
isasgd::data::PackedOptions packed_options(const Context& ctx);

/// SolverOptions every run of the workload uses.
isasgd::solvers::SolverOptions solver_options(const Context& ctx,
                                              std::size_t threads);

/// Runs `solver` on `path` through core::Trainer for the workload's epoch
/// budget (or `epochs` when non-zero). With a tracer, records the run's
/// layer spans. Throws what the solver throws.
SolverRun run_solver(Context& ctx, const std::string& solver,
                     std::size_t threads, Path path, bool keep_model,
                     Tracer* tracer = nullptr, std::size_t epochs = 0);

/// The IS-ASGD solver name and path of the workload, and its ASGD twin.
std::string is_solver(const Workload& wl);
std::string asgd_solver(const Workload& wl);
Path is_path(const Workload& wl);

/// The workload's closed batch of is_sgd jobs over its data.
std::vector<isasgd::service::JobSpec> batch_specs(const Context& ctx);

/// A resident service sized for the batch (max_concurrent = nproc).
isasgd::service::TrainingService::Options service_options(const Context& ctx);

struct BatchRun {
  double wall_s = 0;                  ///< first submit to last completion
  std::vector<double> latency_s;      ///< per job, submit to completion
  std::vector<std::uint64_t> hashes;  ///< per job, 0 unless completed
  double peak_rss_mb = 0;             ///< largest resident set while polling
};

/// Submits every spec at once and polls until all jobs are terminal.
BatchRun run_batch(isasgd::service::TrainingService& service,
                   const std::vector<isasgd::service::JobSpec>& specs);

/// Final-model hash of a direct core::Trainer run of `spec`; `seconds`
/// (optional) receives the train call's wall time.
std::uint64_t direct_hash(const Context& ctx,
                          const isasgd::service::JobSpec& spec,
                          double* seconds = nullptr);

/// Bitwise equality of two model vectors.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace ladder
