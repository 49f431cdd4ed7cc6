#include "runs.hpp"

#include <any>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "core/trainer.hpp"
#include "distributed/cluster.hpp"
#include "objectives/logistic.hpp"
#include "solvers/observer.hpp"

namespace ladder {

using namespace isasgd;

namespace {

/// The paper's objective: L1-regularised logistic loss.
const objectives::LogisticLoss kLoss;
constexpr double kL1 = 1e-8;

/// Stamps the wall clock at every epoch fence and keeps the solver's
/// training clock beside it, so the fence cost is the difference.
class FenceClock final : public solvers::TrainingObserver {
 public:
  bool on_epoch(const solvers::TracePoint& point) override {
    wall.push_back(Clock::now());
    train.push_back(point.seconds);
    peak_rss_mb = std::max(peak_rss_mb, rss_mb());
    return true;
  }
  void on_diagnostics(const std::any& diagnostics) override {
    if (const auto* r =
            std::any_cast<distributed::ParamServerReport>(&diagnostics)) {
      report = *r;
    }
  }
  std::vector<Clock::time_point> wall;
  std::vector<double> train;
  std::optional<distributed::ParamServerReport> report;
  double peak_rss_mb = 0;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The real process group (or, with `simulate`, its fenced simulator):
/// one server, the workers and this controller fit nproc with a core to
/// spare. The fenced schedule steps one worker at a time, so on 4 cores a
/// second worker adds no throughput, and each process in the lockstep chain
/// widens the run-to-run spread when the hypervisor takes CPU time.
distributed::ClusterSpec process_group_spec(const Context& ctx, bool simulate) {
  static std::atomic<unsigned> counter{0};
  distributed::ClusterSpec spec;
  spec.nodes = ctx.nproc > 4 ? ctx.nproc - 3 : 1;
  spec.schedule = distributed::Schedule::kFencedRoundRobin;
  spec.transport = "shm";
  if (simulate) {
    spec.backend = distributed::Backend::kSimulate;
  } else {
    spec.backend = distributed::Backend::kProcess;
    // Rings live in the benchmark's scratch directory, not in /tmp.
    spec.bind_address =
        "shm://" + ctx.scratch + "/ring" + std::to_string(counter.fetch_add(1));
  }
  return spec;
}

}  // namespace

data::PackedOptions packed_options(const Context& ctx) {
  // The cache always keeps the most recently used shard, so a budget below
  // one shard still serves every row.
  data::PackedOptions options;
  options.memory_budget_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::filesystem::file_size(ctx.pack_path) / 10));
  return options;
}

solvers::SolverOptions solver_options(const Context& ctx, std::size_t threads) {
  solvers::SolverOptions options;
  options.step_size = ctx.workload->step_size;
  options.epochs = ctx.workload->epochs;
  options.threads = threads;
  options.seed = ctx.seed;
  options.reg = objectives::Regularization::l1(kL1);
  return options;
}

std::string is_solver(const Workload& wl) {
  return wl.process_group ? "dist.ps.is_asgd" : "is_asgd";
}

std::string asgd_solver(const Workload& wl) {
  return wl.process_group ? "dist.ps.asgd" : "asgd";
}

Path is_path(const Workload& wl) {
  if (wl.process_group) return Path::kProcessGroup;
  return wl.packed ? Path::kPacked : Path::kInMemory;
}

SolverRun run_solver(Context& ctx, const std::string& solver,
                     std::size_t threads, Path path, bool keep_model,
                     Tracer* tracer, std::size_t epochs) {
  SolverRun run;
  FenceClock clock;
  solvers::Trace trace;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_open, t_call, t_return;
  {
    std::shared_ptr<data::PackedSource> packed;
    if (path == Path::kPacked || path == Path::kPackedStreaming) {
      packed = ctx.execution->open_packed(ctx.pack_path, packed_options(ctx));
    }
    t_open = Clock::now();
    core::TrainerBuilder builder;
    if (packed) {
      builder.source(*packed);
    } else {
      builder.data(*ctx.data);
    }
    builder.objective(kLoss)
        .regularization(objectives::Regularization::l1(kL1))
        .execution(ctx.execution);
    if (path == Path::kProcessGroup || path == Path::kFencedSimulator) {
      // The server, the workers and this controller already fill nproc, so
      // the controller scores fences on one thread.
      builder.cluster(process_group_spec(ctx, path == Path::kFencedSimulator))
          .eval_threads(1);
    }
    const core::Trainer trainer = builder.build();
    solvers::SolverOptions options = solver_options(ctx, threads);
    options.keep_final_model = keep_model;
    if (epochs != 0) options.epochs = epochs;
    t_call = Clock::now();
    trace = trainer.train(solver, options, &clock);
    t_return = Clock::now();
    if (packed) run.cache = packed->cache_stats();
  }  // trainer and source torn down here
  const Clock::time_point t_end = Clock::now();

  if (clock.wall.empty() || trace.points.size() != clock.wall.size()) {
    throw std::runtime_error(solver + ": no epoch fences observed");
  }
  run.wall_s = seconds_between(t0, t_end);
  run.setup_s =
      seconds_between(t0, t_open) + seconds_between(t_call, clock.wall[0]);
  const double train_at_target =
      trace.time_to_rmse(ctx.workload->target_rmse, /*include_setup=*/false);
  run.time_to_target_s = run.setup_s + train_at_target;
  run.final_rmse = trace.points.back().rmse;
  const std::size_t done = clock.train.size() - 1;
  if (done >= 2 && clock.train[done] > clock.train[1]) {
    run.samples_per_s = static_cast<double>(ctx.data->rows()) *
                        static_cast<double>(done - 1) /
                        (clock.train[done] - clock.train[1]);
  }
  for (std::size_t e = 1; e <= done; ++e) {
    const double train = clock.train[e] - clock.train[e - 1];
    run.epoch_s.push_back(train);
    run.fence_s.push_back(seconds_between(clock.wall[e - 1], clock.wall[e]) -
                          train);
  }
  run.final_model = std::move(trace.final_model);
  run.report = clock.report;
  run.solver_setup_s = trace.setup_seconds;
  run.peak_rss_mb = clock.peak_rss_mb;

  if (tracer) {
    const long root = tracer->add("run." + solver, tracer->at(t0),
                                  tracer->at(t_end));
    auto child = [&](const char* name, double a, double b) {
      if (b > a) tracer->add(name, a, b, root);
    };
    // Only time a clock measured is attributed: the calls timed here, the
    // solver's own setup clock, its training clock, and the fence gaps
    // around it. What is left (option validation, a non-streaming solver's
    // materialize, the process-group fork, the initial-model scoring) stays
    // with the root as unattributed.
    const double call = tracer->at(t_call);
    child("data.open", tracer->at(t0), tracer->at(t_open));
    child("core.trainer", tracer->at(t_open), call);
    child("solvers.setup", call, call + run.solver_setup_s);
    for (std::size_t e = 1; e <= done; ++e) {
      const double start = tracer->at(clock.wall[e - 1]);
      child("solvers.epoch", start, start + run.epoch_s[e - 1]);
      child("solvers.fence", start + run.epoch_s[e - 1],
            tracer->at(clock.wall[e]));
    }
    child("solvers.teardown", tracer->at(clock.wall[done]),
          tracer->at(t_return));
    child("data.close", tracer->at(t_return), tracer->at(t_end));
    run.self_s = tracer->self_times(root);
  }
  return run;
}

std::vector<service::JobSpec> batch_specs(const Context& ctx) {
  const Workload& wl = *ctx.workload;
  std::vector<service::JobSpec> specs(wl.jobs);
  for (std::size_t j = 0; j < wl.jobs; ++j) {
    service::JobSpec& spec = specs[j];
    spec.solver = "is_sgd";
    spec.matrix = ctx.data;
    spec.objective = "logistic";
    spec.options = solver_options(ctx, 1);
    spec.options.epochs = wl.job_epochs;
    spec.options.seed = ctx.seed * 1000 + j;
    if (wl.job_checkpoints) {
      spec.checkpoint_path = ctx.scratch + "/job" + std::to_string(j) + ".ck";
      spec.checkpoint_every = 1;
    }
  }
  return specs;
}

service::TrainingService::Options service_options(const Context& ctx) {
  service::TrainingService::Options options;
  options.max_concurrent = ctx.nproc;
  // Admission is not what this batch measures: the budget admits every
  // job of the batch at once.
  options.memory_budget_bytes = std::size_t{4} << 30;
  options.eval_threads = 1;
  options.execution = ctx.execution;
  return options;
}

BatchRun run_batch(service::TrainingService& service,
                   const std::vector<service::JobSpec>& specs) {
  BatchRun batch;
  const std::size_t n = specs.size();
  std::vector<std::uint64_t> ids(n);
  std::vector<Clock::time_point> submitted(n);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t j = 0; j < n; ++j) {
    submitted[j] = Clock::now();
    ids[j] = service.submit(specs[j]);
  }
  batch.latency_s.assign(n, 0);
  batch.hashes.assign(n, 0);
  std::vector<char> done(n, 0);
  std::size_t remaining = n;
  for (std::size_t poll = 0; remaining > 0; ++poll) {
    if (poll % 16 == 0) batch.peak_rss_mb = std::max(batch.peak_rss_mb, rss_mb());
    for (std::size_t j = 0; j < n; ++j) {
      if (done[j]) continue;
      const service::JobStatus status = service.status(ids[j]);
      if (status.state == service::JobState::kQueued ||
          status.state == service::JobState::kRunning ||
          status.state == service::JobState::kPaused) {
        continue;
      }
      batch.latency_s[j] = seconds_between(submitted[j], Clock::now());
      if (status.state == service::JobState::kCompleted) {
        batch.hashes[j] = status.model_hash;
      }
      done[j] = 1;
      --remaining;
    }
    if (remaining > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  batch.wall_s = seconds_between(t0, Clock::now());
  return batch;
}

std::uint64_t direct_hash(const Context& ctx, const service::JobSpec& spec,
                          double* seconds) {
  const core::Trainer trainer = core::TrainerBuilder()
                                    .data(*spec.matrix)
                                    .objective(kLoss)
                                    .regularization(spec.options.reg)
                                    .eval_threads(1)
                                    .execution(ctx.execution)
                                    .build();
  solvers::SolverOptions options = spec.options;
  options.keep_final_model = true;
  const Clock::time_point t0 = Clock::now();
  const solvers::Trace trace = trainer.train(spec.solver, options);
  if (seconds) *seconds = seconds_between(t0, Clock::now());
  return service::hash_model(trace.final_model);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace ladder
