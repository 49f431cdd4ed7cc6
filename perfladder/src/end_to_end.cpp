// The untraced run: end-to-end metrics of one workload, measured over
// repeated rounds and reported as medians. A round is one IS-ASGD run, one
// ASGD run, one serial SGD run and the workload's closed batches of service
// jobs; every operation is checked and counted, in every round.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "data/packed_source.hpp"
#include "runs.hpp"

namespace ladder {

using namespace isasgd;

namespace {

constexpr double kWarmupSeconds = 2.0;

/// The end-to-end metrics each round measures once, with their units.
const std::map<std::string, std::string> kRoundUnits = {
    {"time_to_target_s", "s"},      {"asgd_time_to_target_s", "s"},
    {"serial_time_to_target_s", "s"}, {"samples_per_s", "1/s"},
    {"setup_s", "s"},               {"run_wall_s", "s"},
    {"final_rmse", "rmse"},         {"jobs_per_s", "1/s"}};

/// One measured value and the share of the host's CPU time the hypervisor
/// gave to other guests while it was measured.
struct Sample {
  double value = 0;
  double steal = 0;
};

/// The steal share between two /proc/stat readings.
double steal_share(const CpuTicks& before, const CpuTicks& after) {
  return after.total > before.total
             ? (after.steal - before.steal) / (after.total - before.total)
             : 0.0;
}

/// Indices of the samples taken under the least steal: the quarter with
/// the least, at least five, and every one whose steal ties the last one
/// kept. On a quiet host every sample is kept.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  const std::size_t k =
      std::min(order.size(), std::max<std::size_t>(5, (order.size() + 3) / 4));
  std::vector<std::size_t> kept;
  for (const std::size_t i : order) {
    if (kept.size() >= k && steal[i] > steal[order[k - 1]]) break;
    kept.push_back(i);
  }
  return kept;
}

bool same_matrix(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(), [](auto p, auto q) {
             return std::memcmp(&p, &q, sizeof p) == 0;
           });
  };
  return a.rows() == b.rows() && a.dim() == b.dim() &&
         same(a.row_ptr(), b.row_ptr()) && same(a.col_idx(), b.col_idx()) &&
         same(a.values(), b.values()) && same(a.labels(), b.labels());
}

void log_run(const char* what, const SolverRun& r, double steal) {
  std::fprintf(stderr,
               "  %-6s setup %.4fs (solver %.4fs)  to-target %.4fs  %.0f "
               "samples/s  wall %.4fs  final rmse %.5f  steal %.4f\n",
               what, r.setup_s, r.solver_setup_s, r.time_to_target_s,
               r.samples_per_s, r.wall_s, r.final_rmse, steal);
}

}  // namespace

void run_end_to_end(Context& ctx, double seconds, Result& result) {
  const Workload& wl = *ctx.workload;
  const std::string is_name = is_solver(wl);
  const std::string asgd_name = asgd_solver(wl);
  const Path sgd_path = wl.packed ? Path::kPackedStreaming : Path::kInMemory;

  // References the checks compare against, computed once per run.
  std::vector<double> sim_model;  // dist-shm: the fenced simulator's model
  if (wl.process_group) {
    sim_model = run_solver(ctx, "dist.ps.is_asgd", ctx.nproc,
                           Path::kFencedSimulator, /*keep_model=*/true)
                    .final_model;
  }
  const std::vector<service::JobSpec> specs = batch_specs(ctx);
  std::vector<std::uint64_t> expected_hashes;
  for (const service::JobSpec& spec : specs) {
    expected_hashes.push_back(direct_hash(ctx, spec));
  }
  std::vector<double> sgd_reference;  // news20-inmem: first serial SGD model
  service::TrainingService service(service_options(ctx));

  // Every recorded value, with the steal over the operation that measured
  // it; the batches' job latencies, with the steal over each batch.
  std::map<std::string, std::vector<Sample>> recorded;
  std::vector<std::pair<double, std::vector<double>>> batches;
  std::size_t rounds = 0;
  double peak_rss = 0;

  // One solver run, checked: it must not throw and must reach the target.
  // `steal` receives the steal share over the run.
  auto checked = [&](const std::string& solver, std::size_t threads, Path path,
                     bool keep_model, double& steal) -> std::optional<SolverRun> {
    const CpuTicks before = cpu_ticks();
    try {
      SolverRun run = run_solver(ctx, solver, threads, path, keep_model);
      steal = steal_share(before, cpu_ticks());
      peak_rss = std::max(peak_rss, run.peak_rss_mb);
      result.count(run.reached() && std::isfinite(run.final_rmse),
                   solver + " did not reach RMSE " +
                       std::to_string(wl.target_rmse) + " (final " +
                       std::to_string(run.final_rmse) + ")");
      return run;
    } catch (const std::exception& e) {
      result.count(false, solver + " threw: " + e.what());
      return std::nullopt;
    }
  };

  // One round; with `record`, its values join the recorded samples.
  auto round = [&](bool record) {
    auto keep = [&](const char* name, double value, double steal) {
      if (record) recorded[name].push_back({value, steal});
    };
    double steal = 0;
    if (auto run = checked(is_name, ctx.nproc, is_path(wl), wl.process_group,
                           steal)) {
      if (wl.process_group) {
        result.count(same_bits(run->final_model, sim_model),
                     "process-group model differs from the fenced simulator");
      }
      keep("time_to_target_s", run->time_to_target_s, steal);
      keep("samples_per_s", run->samples_per_s, steal);
      keep("setup_s", run->setup_s, steal);
      keep("run_wall_s", run->wall_s, steal);
      keep("final_rmse", run->final_rmse, steal);
      log_run("is", *run, steal);
    }
    if (auto run = checked(asgd_name, ctx.nproc, is_path(wl), false, steal)) {
      keep("asgd_time_to_target_s", run->time_to_target_s, steal);
      log_run("asgd", *run, steal);
    }
    const bool rerun_check = wl.name == "news20-inmem";
    if (auto run = checked("sgd", 1, sgd_path, rerun_check, steal)) {
      if (rerun_check) {
        if (sgd_reference.empty()) {
          sgd_reference = run->final_model;
        } else {
          result.count(same_bits(run->final_model, sgd_reference),
                       "serial sgd rerun is not bit-identical");
        }
      }
      keep("serial_time_to_target_s", run->time_to_target_s, steal);
      log_run("sgd", *run, steal);
    }
    if (wl.packed) {
      const auto packed = ctx.execution->open_packed(ctx.pack_path);
      result.count(same_matrix(packed->materialize(), *ctx.data),
                   "PackedSource::materialize() differs from the generated "
                   "matrix");
    }
    for (std::size_t b = 0; b < wl.batches; ++b) {
      try {
        const CpuTicks before = cpu_ticks();
        const BatchRun batch = run_batch(service, specs);
        steal = steal_share(before, cpu_ticks());
        peak_rss = std::max(peak_rss, batch.peak_rss_mb);
        for (std::size_t j = 0; j < specs.size(); ++j) {
          result.count(batch.hashes[j] != 0 &&
                           batch.hashes[j] == expected_hashes[j],
                       "service job " + std::to_string(j) +
                           " did not complete with its direct-run model hash");
        }
        keep("jobs_per_s", static_cast<double>(specs.size()) / batch.wall_s,
             steal);
        if (record) batches.push_back({steal, batch.latency_s});
        std::fprintf(stderr, "  batch  %zu jobs in %.4fs  steal %.4f\n",
                     specs.size(), batch.wall_s, steal);
      } catch (const std::exception& e) {
        result.count(false, std::string("service batch threw: ") + e.what());
      }
    }
  };

  // Warm-up: the first second or so of rounds runs slow (page faults,
  // pool and allocator arenas filling, clock ramp), so it is not recorded.
  const Clock::time_point warm = Clock::now();
  do {
    std::fprintf(stderr, "perfladder: %s warm-up round\n", wl.name.c_str());
    round(false);
  } while (since(warm) < kWarmupSeconds);
  const Clock::time_point t0 = Clock::now();
  do {
    std::fprintf(stderr, "perfladder: %s round %zu\n", wl.name.c_str(),
                 ++rounds);
    round(true);
  } while (since(t0) < seconds);

  // Only the values measured under the least steal count: steal slows
  // every layer alike, and no change to the program can cause it. Steal is
  // read around each solver run and each batch, not around the round, so a
  // burst drops only what it overlapped.
  for (const auto& [name, unit] : kRoundUnits) {
    const std::vector<Sample>& samples = recorded[name];
    std::vector<double> steal, kept;
    for (const Sample& s : samples) steal.push_back(s.steal);
    for (const std::size_t i : least_stolen(steal)) kept.push_back(samples[i].value);
    result.set(name, median(kept), unit);
    result.samples[name] = static_cast<double>(kept.size());
  }
  std::vector<double> batch_steal, latency;
  for (const auto& [steal, batch] : batches) batch_steal.push_back(steal);
  for (const std::size_t b : least_stolen(batch_steal)) {
    latency.insert(latency.end(), batches[b].second.begin(), batches[b].second.end());
  }
  result.set("job_latency_p50_s", median(latency), "s");
  result.set("peak_rss_mb", peak_rss, "MiB");
  result.samples["rounds"] = static_cast<double>(rounds);
  result.samples["job_latency_p50_s"] = static_cast<double>(latency.size());
  std::fprintf(stderr,
               "perfladder: %s: %zu rounds (%.0f IS-ASGD runs kept), %zu job "
               "latencies, failed share %zu/%zu\n",
               wl.name.c_str(), rounds, result.samples["time_to_target_s"],
               latency.size(), result.failed, result.attempted);
}

}  // namespace ladder
