// Shared pieces of the layer-ladder benchmark: the workload table, the
// result record every measurement writes into, and the in-memory span
// tracer of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/execution.hpp"
#include "sparse/csr_matrix.hpp"

namespace ladder {

using Clock = std::chrono::steady_clock;

/// Seconds since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// One benchmark workload: a generated dataset, the path IS-ASGD trains it
/// on, and the fixed RMSE target every solver must cross.
struct Workload {
  std::string name;
  /// Paper analog the dataset is generated from ("news20", "kdda", "url").
  std::string dataset;
  double scale = 1.0;
  /// IS-ASGD and ASGD train from a compiled shardpack served by
  /// PackedSource (else straight from the in-memory matrix).
  bool packed = false;
  /// IS-ASGD and ASGD run on a real process group over shm (dist.ps.*).
  bool process_group = false;
  std::size_t epochs = 10;
  double step_size = 0.5;
  /// Fixed RMSE target, chosen so every solver crosses it mid-budget.
  double target_rmse = 0;
  /// Service batch: jobs, epochs per job, checkpoint at every fence.
  std::size_t jobs = 4;
  std::size_t job_epochs = 3;
  bool job_checkpoints = false;
  /// Closed batches per round: more where a batch is short against the
  /// round, so jobs_per_s and the job latencies get more samples.
  std::size_t batches = 1;
};

/// The four workloads, by name.
const std::vector<Workload>& workloads();

/// What one run produces: named metrics with units, the operation
/// accounting (attempted, failed, and what failed), and sample counts for
/// the result file.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one operation; a false `ok` records `what` as a failure.
  void count(bool ok, const std::string& what);
};

/// One span of the traced run: a call into a layer, timed from outside.
struct Span {
  std::string name;
  double start = 0;  ///< seconds since the tracer's origin
  double end = 0;
  long parent = -1;  ///< index into Tracer::spans(), -1 for a root
};

/// Keeps spans in memory; written out once when the benchmark ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  [[nodiscard]] double now() const { return since(origin_); }
  /// Tracer time of a steady-clock instant.
  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  /// Records a span with explicit bounds; returns its index.
  long add(const std::string& name, double start, double end,
           long parent = -1);
  void close(long id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  /// Self time per span name below `root`: each span's duration minus the
  /// part its children cover. The root's own self time is keyed "".
  [[nodiscard]] std::map<std::string, double> self_times(long root) const;
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A root span that opens on construction and closes on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.add(name, tracer.now(), tracer.now())) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

/// Everything a workload run shares: the generated data, the seed, the
/// execution context, and a private scratch directory.
struct Context {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::size_t nproc = 1;
  std::string scratch;  ///< absolute directory for packs, rings, checkpoints
  std::string pack_path;
  std::shared_ptr<const isasgd::sparse::CsrMatrix> data;
  isasgd::core::ExecutionContextPtr execution;
};

/// Generates the workload's dataset from `seed` and compiles its shardpack.
void prepare(Context& ctx);

/// Resident set of this process right now, MiB.
double rss_mb();

/// Host CPU time counters (all, steal) from /proc/stat, in ticks. Steal is
/// time the hypervisor ran someone else on this machine's CPUs.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
CpuTicks cpu_ticks();

/// `s` with JSON string escapes for quotes, backslashes and control bytes.
std::string json_escape(const std::string& s);

/// Host fingerprint as a JSON object (nproc, CPU, kernel backend, NUMA
/// nodes, compiler, build type); logs a warning for unoptimized builds.
std::string host_fingerprint_json();

/// End-to-end metrics (untraced run) measured for `seconds`.
void run_end_to_end(Context& ctx, double seconds, Result& result);

/// Per-layer metrics (traced run) measured for about `seconds`, with the
/// spans recorded into `tracer`.
void run_layers(Context& ctx, double seconds, Result& result, Tracer& tracer);

/// A per-layer metric and the end-to-end metric it should move, on which
/// workload.
struct LayerMapping {
  const char* metric;
  const char* moves;
  const char* workload;
};
const std::vector<LayerMapping>& layer_map();

}  // namespace ladder
