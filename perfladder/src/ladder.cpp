// Layer-ladder benchmark driver.
//
//   ladder --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Generates the workload's inputs from the seed, measures for S seconds,
// checks every operation, and prints one JSON object as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. DIR receives the full result (host fingerprint, failed
// share, layer mapping) and, for traced runs, the span file. Exits 1 when
// any check failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace ladder;

std::string metrics_json(const Result& result) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

void write_result_file(const std::string& path, const Context& ctx,
                       const Result& result, bool traced,
                       const std::string& fingerprint, double steal_share) {
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << ctx.workload->name << "\",\n"
      << "  \"seed\": " << ctx.seed << ",\n"
      << "  \"trace\": " << (traced ? 1 : 0) << ",\n"
      << "  \"target_rmse\": " << ctx.workload->target_rmse << ",\n"
      << "  \"host\": " << fingerprint << ",\n"
      << "  \"host_steal_share\": " << steal_share << ",\n"
      << "  \"attempted\": " << result.attempted << ",\n"
      << "  \"failed\": " << result.failed << ",\n"
      << "  \"failed_share\": "
      << static_cast<double>(result.failed) /
             static_cast<double>(std::max<std::size_t>(1, result.attempted))
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(result.failures[i]) << "\"";
  }
  out << "],\n  \"samples\": {";
  bool first_sample = true;
  for (const auto& [name, count] : result.samples) {
    out << (first_sample ? "" : ", ") << "\"" << name << "\": " << count;
    first_sample = false;
  }
  out << "},\n  \"metrics\": " << metrics_json(result);
  if (traced) {
    out << ",\n  \"layer_map\": [";
    bool first = true;
    for (const LayerMapping& m : layer_map()) {
      out << (first ? "\n" : ",\n") << "    {\"metric\": \"" << m.metric
          << "\", \"moves\": \"" << m.moves << "\", \"workload\": \""
          << m.workload << "\"}";
      first = false;
    }
    out << "\n  ]";
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      std::cerr << "ladder: unknown flag " << flag << "\n";
      return 2;
    }
  }
  Context ctx;
  for (const Workload& wl : workloads()) {
    if (wl.name == workload_name) ctx.workload = &wl;
  }
  if (!ctx.workload) {
    std::cerr << "ladder: unknown workload '" << workload_name << "' (";
    for (const Workload& wl : workloads()) std::cerr << " " << wl.name;
    std::cerr << " )\n";
    return 2;
  }
  ctx.seed = seed;
  ctx.nproc = std::max(1U, std::thread::hardware_concurrency());
  const std::string tag = ctx.workload->name + "-seed" + std::to_string(seed) +
                          "-trace" + std::to_string(trace);
  std::filesystem::create_directories(out_dir);
  ctx.scratch = std::filesystem::absolute(out_dir).string() + "/scratch-" +
                tag + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(ctx.scratch);
  ctx.execution = std::make_shared<isasgd::core::ExecutionContext>();

  const std::string fingerprint = host_fingerprint_json();
  std::cout << "host " << fingerprint << std::endl;
  Result result;
  Tracer tracer;
  const CpuTicks ticks_before = cpu_ticks();
  try {
    prepare(ctx);
    std::cout << "workload " << ctx.workload->name << ": rows "
              << ctx.data->rows() << ", dim " << ctx.data->dim() << ", nnz "
              << ctx.data->nnz() << ", epochs " << ctx.workload->epochs
              << ", target rmse " << ctx.workload->target_rmse << std::endl;
    if (trace) {
      run_layers(ctx, seconds, result, tracer);
      tracer.write(out_dir + "/trace-" + tag + ".json");
    } else {
      run_end_to_end(ctx, seconds, result);
    }
  } catch (const std::exception& e) {
    result.count(false, std::string("run threw: ") + e.what());
  }
  std::filesystem::remove_all(ctx.scratch);
  ctx.execution.reset();
  // Share of the host's CPU time the hypervisor gave to other guests while
  // this run measured: a noisy neighbour shows here, not in the metrics.
  const CpuTicks ticks_after = cpu_ticks();
  const double steal_share =
      ticks_after.total > ticks_before.total
          ? (ticks_after.steal - ticks_before.steal) /
                (ticks_after.total - ticks_before.total)
          : 0.0;

  // Every metric the run owes is present; a missing one is a failure.
  if (trace) {
    for (const LayerMapping& m : layer_map()) {
      if (!result.metrics.count(m.metric)) {
        result.count(false, std::string("metric ") + m.metric + " missing");
        result.set(m.metric, 0, "missing");
      }
    }
  }
  write_result_file(out_dir + "/result-" + tag + ".json", ctx, result,
                    trace != 0, fingerprint, steal_share);
  for (const auto& [name, m] : result.metrics) {
    std::printf("%-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (trace) {
    std::printf("\nlayer metric -> end-to-end metric it should move (workload)\n");
    for (const LayerMapping& m : layer_map()) {
      std::printf("  %-34s -> %s (%s)\n", m.metric, m.moves, m.workload);
    }
  }
  std::printf("failed share: %zu/%zu\n", result.failed, result.attempted);
  std::printf("host steal share: %.4f\n", steal_share);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false", result.attempted,
              result.failed, metrics_json(result).c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
