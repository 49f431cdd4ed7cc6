// The traced run: per-layer metrics of one workload, each measured from
// outside by timing calls into a module's public API over the workload's
// own data, then the workload's IS-ASGD run with its layer spans recorded,
// alternated with untraced runs to measure the tracing overhead.
#include <any>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "common.hpp"
#include "core/trainer.hpp"
#include "data/packed_source.hpp"
#include "io/checkpoint.hpp"
#include "io/shardpack.hpp"
#include "net/transport.hpp"
#include "objectives/logistic.hpp"
#include "partition/partition.hpp"
#include "runs.hpp"
#include "sampling/sequence.hpp"
#include "solvers/snapshot.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/kernels.hpp"

namespace ladder {

using namespace isasgd;

namespace {

const objectives::LogisticLoss kLoss;

/// Repeats `fn` until `min_seconds` have passed and at least `min_reps`
/// calls were made; returns the median seconds per call.
template <class Fn>
double median_time(Fn&& fn, double min_seconds, std::size_t min_reps) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t = Clock::now();
    fn();
    times.push_back(since(t));
  } while (times.size() < min_reps || since(start) < min_seconds);
  return median(times);
}

/// The fused SGD step (margin dot, then the L1 update) over the first rows
/// of the data, in ns per stored nonzero.
double step_ns_per_nnz(const sparse::CsrMatrix& data) {
  const std::size_t rows = std::min<std::size_t>(data.rows(), 20000);
  const std::size_t nnz = data.row_ptr()[rows] - data.row_ptr()[0];
  std::vector<double> w(data.dim(), 0.0);
  const double pass = median_time(
      [&] {
        for (std::size_t i = 0; i < rows; ++i) {
          const sparse::SparseVectorView x = data.row(i);
          const double margin = sparse::sparse_dot(w, x);
          const double g = 0.25 * margin - 0.5 * data.label(i);
          sparse::sparse_dot_residual_axpy(w, x, 1e-3, g, 1e-8, 0.0);
        }
      },
      0.05, 3);
  return pass * 1e9 / static_cast<double>(std::max<std::size_t>(1, nnz));
}

/// Mean frame round trip at `payload` bytes between two threads.
double rtt_us(const std::string& address, std::size_t payload) {
  const auto listener = net::listen(address);
  std::unique_ptr<net::Endpoint> client;
  std::exception_ptr connect_error;
  std::thread connector([&] {
    try {
      client = net::connect(listener->address());
    } catch (...) {
      connect_error = std::current_exception();
    }
  });
  std::unique_ptr<net::Endpoint> server;
  try {
    server = listener->accept();
  } catch (...) {
    connector.join();
    throw;
  }
  connector.join();
  if (connect_error) std::rethrow_exception(connect_error);
  // Echoes until the zero-type frame or a closed stream.
  std::thread echo([&] {
    try {
      for (net::Frame frame = net::read_frame(*server); frame.type != 0;
           frame = net::read_frame(*server)) {
        net::write_frame(*server, frame.type, frame.payload);
      }
    } catch (const net::TransportError&) {
    }
  });
  const std::string message(payload, 'x');
  constexpr int kTrips = 200;
  double batch = 0;
  try {
    batch = median_time(
        [&] {
          for (int i = 0; i < kTrips; ++i) {
            net::write_frame(*client, 1, message);
            (void)net::read_frame(*client);
          }
        },
        0.15, 5);
    net::write_frame(*client, 0, {});
  } catch (...) {
    client->close();
    echo.join();
    throw;
  }
  echo.join();
  return batch / kTrips * 1e6;
}

class CaptureFirstFence final : public solvers::SnapshotSink {
 public:
  [[nodiscard]] bool wants(std::size_t epoch) const override {
    return epoch == 1;
  }
  void capture(solvers::SnapshotState s) override { state = std::move(s); }
  std::optional<solvers::SnapshotState> state;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

const std::vector<LayerMapping>& layer_map() {
  static const std::vector<LayerMapping> map = {
      {"sparse.step_ns_per_nnz", "samples_per_s", "news20-inmem"},
      {"sparse.kernel_scalar_over_active", "samples_per_s", "news20-inmem"},
      {"sparse.scalar_over_active", "samples_per_s", "news20-inmem"},
      {"sampling.draw_ns", "samples_per_s", "kdda-packed"},
      {"sampling.build_s", "setup_s", "kdda-packed,dist-shm"},
      {"partition.plan_s", "setup_s", "kdda-packed,dist-shm"},
      {"solvers.epoch_s", "time_to_target_s,run_wall_s", "news20-inmem"},
      {"solvers.fence_s", "time_to_target_s,run_wall_s", "news20-inmem"},
      {"solvers.scaling_eff", "time_to_target_s,run_wall_s", "news20-inmem"},
      {"solvers.loss_eval_s", "run_wall_s", "news20-inmem"},
      {"solvers.loss_fence_s", "run_wall_s", "news20-inmem"},
      {"solvers.loss_dispatch_s", "time_to_target_s", "news20-inmem"},
      {"solvers.loss_contention_s", "time_to_target_s", "news20-inmem"},
      {"core.pool_fence_us", "solvers.fence_s", "news20-inmem"},
      {"metrics.eval_s", "run_wall_s", "kdda-packed"},
      {"data.open_s", "setup_s", "kdda-packed"},
      {"data.materialize_s", "setup_s", "kdda-packed"},
      {"data.shard_fetch_us", "serial_time_to_target_s", "kdda-packed"},
      {"data.shard_fetch_count", "serial_time_to_target_s", "kdda-packed"},
      {"data.miss_ratio", "serial_time_to_target_s", "kdda-packed"},
      {"data.prefetch_useful_ratio", "serial_time_to_target_s", "kdda-packed"},
      {"io.pack_write_s", "(reported only: one-time compile)", "kdda-packed"},
      {"io.checkpoint_write_s", "jobs_per_s", "service-jobs"},
      {"service.overhead_share", "jobs_per_s", "service-jobs"},
      {"service.latency_samples", "job_latency_p50_s", "service-jobs"},
      {"net.shm_rtt_us", "samples_per_s", "dist-shm"},
      {"net.tcp_rtt_us", "samples_per_s", "dist-shm"},
      {"distributed.msgs_per_sample", "samples_per_s", "dist-shm"},
      {"distributed.bytes_per_sample", "samples_per_s", "dist-shm"},
      {"distributed.wire_retries", "samples_per_s", "dist-shm"},
      {"attributed_share", "run_wall_s", "all"},
      {"trace.overhead_share", "run_wall_s", "all"},
      {"self.data_s", "setup_s,run_wall_s", "all"},
      {"self.trainer_s", "setup_s", "all"},
      {"self.setup_s", "setup_s", "all"},
      {"self.epoch_s", "time_to_target_s", "all"},
      {"self.fence_s", "run_wall_s", "all"},
      {"self.teardown_s", "run_wall_s", "all"},
      {"self.unattributed_s", "run_wall_s", "all"},
  };
  return map;
}

void run_layers(Context& ctx, double seconds, Result& result, Tracer& tracer) {
  namespace k = sparse::kernels;
  const Workload& wl = *ctx.workload;
  const sparse::CsrMatrix& data = *ctx.data;
  const Clock::time_point t0 = Clock::now();
  const solvers::SolverOptions options = solver_options(ctx, ctx.nproc);

  // Every probe is a call (or a loop of calls) into one module; a failure
  // is counted and the probe's metrics read 0.
  auto probe = [&](const char* layer, auto&& body) {
    const Scope span(tracer, layer);
    try {
      body();
      result.count(true, layer);
    } catch (const std::exception& e) {
      result.count(false, std::string(layer) + " probe threw: " + e.what());
    }
  };

  probe("sparse", [&] {
    // Backends alternate pass by pass, so host drift hits both alike.
    const k::Backend active = k::active_backend();
    std::vector<double> active_ns, scalar_ns;
    for (int rep = 0; rep < 5; ++rep) {
      active_ns.push_back(step_ns_per_nnz(data));
      k::set_backend(k::Backend::kScalar);
      scalar_ns.push_back(step_ns_per_nnz(data));
      k::set_backend(active);
    }
    result.set("sparse.step_ns_per_nnz", median(active_ns), "ns");
    result.set("sparse.kernel_scalar_over_active",
               ratio(median(scalar_ns), median(active_ns)), "ratio");
  });

  const std::vector<double> weights =
      objectives::per_sample_lipschitz(data, kLoss, options.reg);
  probe("sampling", [&] {
    const double build = median_time(
        [&] {
          const sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid,
                                            weights, weights.size(), ctx.seed);
        },
        0.05, 5);
    sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid, weights,
                                weights.size(), ctx.seed);
    std::size_t epoch = 0;
    std::uint64_t sink = 0;
    const double per_epoch = median_time(
        [&] {
          ++epoch;
          seq.begin_epoch(epoch, ctx.seed + epoch);
          for (std::size_t i = 0; i < weights.size(); ++i) sink += seq.next();
        },
        0.1, 5);
    // The draws feed a recorded value, so none of them can be elided.
    result.samples["sampling.mean_drawn_index"] =
        static_cast<double>(sink) /
        static_cast<double>(epoch * weights.size());
    result.set("sampling.build_s", build, "s");
    result.set("sampling.draw_ns",
               per_epoch * 1e9 / static_cast<double>(weights.size()), "ns");
  });

  probe("partition", [&] {
    result.set("partition.plan_s", median_time(
                                       [&] {
                                         const partition::PartitionPlan plan(
                                             weights, ctx.nproc,
                                             options.partition);
                                       },
                                       0.05, 5),
               "s");
  });

  probe("core", [&] {
    util::ThreadPool& pool = ctx.execution->pool();
    constexpr int kRounds = 200;
    const double batch = median_time(
        [&] {
          for (int i = 0; i < kRounds; ++i) pool.run(ctx.nproc, [](std::size_t) {});
        },
        0.1, 5);
    result.set("core.pool_fence_us", batch / kRounds * 1e6, "us");
  });

  probe("io", [&] {
    const std::string path = ctx.scratch + "/probe.issp";
    result.set("io.pack_write_s",
               median_time([&] { io::write_shardpack(path, data); }, 0.05, 3),
               "s");
    std::filesystem::remove(path);
  });

  probe("data", [&] {
    const data::PackedOptions packed = packed_options(ctx);
    result.set("data.open_s",
               median_time([&] { (void)ctx.execution->open_packed(ctx.pack_path, packed); },
                           0.02, 5),
               "s");
    result.set("data.materialize_s",
               median_time(
                   [&] {
                     const auto source = ctx.execution->open_packed(ctx.pack_path, packed);
                     (void)source->materialize();
                   },
                   0.05, 3),
               "s");
    // Cold shard fetches under the budget, in shard order, twice over.
    const auto source = ctx.execution->open_packed(ctx.pack_path, packed);
    std::vector<double> fetch;
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::size_t s = 0; s < source->shard_count(); ++s) {
        const Clock::time_point t = Clock::now();
        (void)source->shard(s);
        fetch.push_back(since(t));
      }
    }
    result.set("data.shard_fetch_us", median(fetch) * 1e6, "us");
    result.set("data.shard_fetch_count", static_cast<double>(fetch.size()),
               "count");
    // Cache behaviour of the serial SGD baseline streaming the pack.
    const SolverRun sgd = run_solver(ctx, "sgd", 1, Path::kPackedStreaming,
                                     false, nullptr, std::min<std::size_t>(wl.epochs, 3));
    const data::CacheStats& c = *sgd.cache;
    result.set("data.miss_ratio",
               ratio(static_cast<double>(c.misses),
                     static_cast<double>(c.hits + c.misses)),
               "ratio");
    result.set("data.prefetch_useful_ratio",
               ratio(static_cast<double>(c.prefetch_hits),
                     static_cast<double>(c.prefetch_issued)),
               "ratio");
  });

  probe("metrics", [&] {
    std::shared_ptr<data::PackedSource> packed;
    if (wl.packed) {
      packed = ctx.execution->open_packed(ctx.pack_path, packed_options(ctx));
    }
    core::TrainerBuilder builder;
    if (packed) {
      builder.source(*packed);
    } else {
      builder.data(data);
    }
    const core::Trainer trainer = builder.objective(kLoss)
                                      .regularization(options.reg)
                                      .execution(ctx.execution)
                                      .build();
    const std::vector<double> w(data.dim(), 1e-3);
    result.set("metrics.eval_s",
               median_time([&] { (void)trainer.evaluate(w); }, 0.1, 5), "s");
  });

  probe("io.checkpoint", [&] {
    const core::Trainer trainer = core::TrainerBuilder()
                                      .data(data)
                                      .objective(kLoss)
                                      .regularization(options.reg)
                                      .execution(ctx.execution)
                                      .build();
    solvers::SolverOptions one = options;
    one.epochs = 1;
    CaptureFirstFence sink;
    solvers::SnapshotHooks hooks;
    hooks.sink = &sink;
    (void)trainer.train("is_sgd", one, nullptr, hooks);
    const std::string path = ctx.scratch + "/probe.ck";
    result.set("io.checkpoint_write_s",
               median_time([&] { io::save_checkpoint(path, *sink.state); }, 0.05, 5),
               "s");
    std::filesystem::remove(path);
  });

  probe("service", [&] {
    const std::vector<service::JobSpec> specs = batch_specs(ctx);
    double direct = 0;
    std::vector<std::uint64_t> expected;
    for (const service::JobSpec& spec : specs) {
      double s = 0;
      expected.push_back(direct_hash(ctx, spec, &s));
      direct += s;
    }
    service::TrainingService service(service_options(ctx));
    std::vector<double> walls;
    for (int rep = 0; rep < 3; ++rep) {
      const BatchRun batch = run_batch(service, specs);
      for (std::size_t j = 0; j < specs.size(); ++j) {
        result.count(batch.hashes[j] != 0 && batch.hashes[j] == expected[j],
                     "service job " + std::to_string(j) +
                         " did not complete with its direct-run model hash");
      }
      walls.push_back(batch.wall_s);
    }
    const double concurrency =
        static_cast<double>(std::min(specs.size(), ctx.nproc));
    result.set("service.overhead_share",
               ratio(median(walls), direct / concurrency), "ratio");
    result.set("service.latency_samples", static_cast<double>(specs.size()),
               "count");
  });

  probe("net", [&] {
    // One push carries a row's (index, value) pairs.
    const std::size_t push = static_cast<std::size_t>(
        12.0 * static_cast<double>(data.nnz()) / static_cast<double>(data.rows()));
    result.set("net.shm_rtt_us", rtt_us("shm://" + ctx.scratch + "/rtt", push),
               "us");
    result.set("net.tcp_rtt_us", rtt_us("tcp://127.0.0.1:0", push), "us");
  });

  auto set_distributed = [&](const SolverRun& run, std::size_t epochs) {
    const distributed::ParamServerReport& r = run.report.value();
    const double samples =
        static_cast<double>(epochs) * static_cast<double>(data.rows());
    result.set("distributed.msgs_per_sample",
               static_cast<double>(r.messages) / samples, "msg/sample");
    result.set("distributed.bytes_per_sample",
               static_cast<double>(r.bytes_sent) / samples, "B/sample");
    result.set("distributed.wire_retries", static_cast<double>(r.wire_retries),
               "count");
  };
  if (!wl.process_group) {
    probe("distributed", [&] {
      constexpr std::size_t kEpochs = 2;
      set_distributed(run_solver(ctx, "dist.ps.is_asgd", ctx.nproc,
                                 Path::kProcessGroup, false, nullptr, kEpochs),
                      kEpochs);
    });
  }

  probe("solvers", [&] {
    // IS-ASGD thread sweep (in memory), 1..nproc, repeats interleaved.
    std::vector<std::vector<SolverRun>> sweep(ctx.nproc + 1);
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t t = 1; t <= ctx.nproc; ++t) {
        sweep[t].push_back(run_solver(ctx, "is_asgd", t, Path::kInMemory, false));
      }
    }
    auto med = [&](std::size_t t, auto field) {
      std::vector<double> v;
      for (const SolverRun& r : sweep[t]) v.push_back(field(r));
      return median(v);
    };
    auto sps = [](const SolverRun& r) { return r.samples_per_s; };
    auto epoch = [](const SolverRun& r) { return median(r.epoch_s); };
    auto fence = [](const SolverRun& r) { return median(r.fence_s); };
    const std::size_t n = ctx.nproc;
    // One fence's scoring of the in-memory model the sweep trains.
    const core::Trainer trainer = core::TrainerBuilder()
                                      .data(data)
                                      .objective(kLoss)
                                      .regularization(options.reg)
                                      .execution(ctx.execution)
                                      .build();
    const std::vector<double> w(data.dim(), 1e-3);
    const double eval =
        median_time([&] { (void)trainer.evaluate(w); }, 0.05, 5);
    result.set("solvers.scaling_eff",
               ratio(med(n, sps), static_cast<double>(n) * med(1, sps)), "ratio");
    // Where the nproc-thread run loses time per epoch against a perfect
    // 1/nproc split of the one-thread epoch: eval, the rest of the fence,
    // one pool dispatch, and what remains inside the epoch (contention).
    const auto pool = result.metrics.find("core.pool_fence_us");
    const double dispatch =
        pool == result.metrics.end() ? 0 : pool->second.value * 1e-6;
    result.set("solvers.loss_eval_s", eval, "s");
    result.set("solvers.loss_fence_s", med(n, fence) - eval, "s");
    result.set("solvers.loss_dispatch_s", dispatch, "s");
    result.set("solvers.loss_contention_s",
               med(n, epoch) - med(1, epoch) / static_cast<double>(n) - dispatch,
               "s");
    // Kernel backend end to end: scalar against the dispatched backend.
    const k::Backend active = k::active_backend();
    std::vector<double> scalar, dispatched;
    for (int rep = 0; rep < 2; ++rep) {
      dispatched.push_back(
          run_solver(ctx, "is_asgd", n, Path::kInMemory, false).samples_per_s);
      k::set_backend(k::Backend::kScalar);
      scalar.push_back(
          run_solver(ctx, "is_asgd", n, Path::kInMemory, false).samples_per_s);
      k::set_backend(active);
    }
    // Scalar cost over dispatched cost, as for the kernel: above 1 means
    // the vector backend gains.
    result.set("sparse.scalar_over_active",
               ratio(median(dispatched), median(scalar)), "ratio");
  });

  // The workload's own IS-ASGD run, traced and untraced in turn.
  std::vector<double> traced_wall, plain_wall, epoch_s, fence_s, attributed;
  std::map<std::string, std::vector<double>> self;
  const std::string is_name = is_solver(wl);
  probe("trace", [&] {
    do {
      plain_wall.push_back(
          run_solver(ctx, is_name, ctx.nproc, is_path(wl), false).wall_s);
      const SolverRun run =
          run_solver(ctx, is_name, ctx.nproc, is_path(wl), false, &tracer);
      traced_wall.push_back(run.wall_s);
      epoch_s.push_back(median(run.epoch_s));
      fence_s.push_back(median(run.fence_s));
      double total = 0;
      for (const auto& [name, s] : run.self_s) total += s;
      const auto self_of = [&](const char* name) {
        const auto it = run.self_s.find(name);
        return it == run.self_s.end() ? 0.0 : it->second;
      };
      attributed.push_back(1.0 - ratio(self_of(""), total));
      self["self.data_s"].push_back(self_of("data.open") + self_of("data.close"));
      self["self.trainer_s"].push_back(self_of("core.trainer"));
      self["self.setup_s"].push_back(self_of("solvers.setup"));
      self["self.epoch_s"].push_back(self_of("solvers.epoch"));
      self["self.fence_s"].push_back(self_of("solvers.fence"));
      self["self.teardown_s"].push_back(self_of("solvers.teardown"));
      self["self.unattributed_s"].push_back(self_of(""));
      if (wl.process_group && run.report) set_distributed(run, wl.epochs);
    } while (traced_wall.size() < 2 || since(t0) < seconds);
  });
  result.set("solvers.epoch_s", median(epoch_s), "s");
  result.set("solvers.fence_s", median(fence_s), "s");
  result.set("attributed_share", median(attributed), "ratio");
  result.set("trace.overhead_share",
             ratio(median(traced_wall), median(plain_wall)) - 1.0, "ratio");
  for (const auto& [name, values] : self) result.set(name, median(values), "s");
}

}  // namespace ladder
