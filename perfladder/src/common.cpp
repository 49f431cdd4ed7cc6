#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/numa.hpp"
#include "data/paper_datasets.hpp"
#include "io/shardpack.hpp"
#include "sparse/dispatch.hpp"

namespace ladder {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

const std::vector<Workload>& workloads() {
  // Targets are fixed, not derived in-run: each sits between two epoch
  // fences that every solver and every seed cross in the same order, well
  // inside the epoch budget (the crossing is interpolated between fences).
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w(4);
    w[0] = {.name = "news20-inmem", .dataset = "news20", .scale = 1.0,
            .epochs = 15, .step_size = 0.5, .target_rmse = 0.575,
            .jobs = 4, .job_epochs = 3, .batches = 2};
    w[1] = {.name = "kdda-packed", .dataset = "kdda", .scale = 1.0,
            .packed = true, .epochs = 12, .step_size = 0.5,
            .target_rmse = 0.754, .jobs = 4, .job_epochs = 2};
    w[2] = {.name = "dist-shm", .dataset = "url", .scale = 0.1,
            .process_group = true, .epochs = 12, .step_size = 0.05,
            .target_rmse = 0.8038, .jobs = 4, .job_epochs = 3, .batches = 4};
    w[3] = {.name = "service-jobs", .dataset = "news20", .scale = 0.5,
            .epochs = 15, .step_size = 0.5, .target_rmse = 0.583,
            .jobs = 16, .job_epochs = 6, .job_checkpoints = true};
    return w;
  }();
  return table;
}

void Result::count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
    std::cerr << "perfladder: CHECK FAILED: " << what << "\n";
  }
}

long Tracer::add(const std::string& name, double start, double end,
                 long parent) {
  spans_.push_back({name, start, end, parent});
  return static_cast<long>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_times(long root) const {
  // Children are recorded after their parent, so one forward pass over the
  // tail of the span list sees every descendant of `root`.
  std::vector<double> child_time(spans_.size(), 0);
  std::vector<char> inside(spans_.size(), 0);
  const auto r = static_cast<std::size_t>(root);
  inside[r] = 1;
  for (std::size_t i = r + 1; i < spans_.size(); ++i) {
    const long p = spans_[i].parent;
    if (p < 0 || !inside[static_cast<std::size_t>(p)]) continue;
    inside[i] = 1;
    child_time[static_cast<std::size_t>(p)] += spans_[i].end - spans_[i].start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = r; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const double own = spans_[i].end - spans_[i].start - child_time[i];
    self[i == r ? std::string() : spans_[i].name] += own;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %ld}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

void prepare(Context& ctx) {
  using namespace isasgd;
  const Workload& wl = *ctx.workload;
  data::PaperDatasetConfig cfg = data::paper_dataset_config(
      data::paper_dataset_from_name(wl.dataset), wl.scale);
  cfg.spec.seed += 0x9E3779B97F4A7C15ULL * ctx.seed;
  ctx.data = std::make_shared<const sparse::CsrMatrix>(data::generate(cfg.spec));
  ctx.pack_path = ctx.scratch + "/data.issp";
  io::write_shardpack(ctx.pack_path, *ctx.data);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  CpuTicks ticks;
  double field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string host_fingerprint_json() {
  namespace k = isasgd::sparse::kernels;
  const std::string build_type = LADDER_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "perfladder: WARNING: build type is '" << build_type
              << "', not Release — timings are not those of an optimized "
                 "build\n";
  }
  std::ostringstream os;
  os << "{\"nproc\": " << std::max(1U, std::thread::hardware_concurrency())
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
     << ", \"kernel_backend\": \"" << k::backend_name(k::active_backend())
     << "\", \"numa_nodes\": "
     << isasgd::core::NumaTopology::detect().node_count()
     << ", \"compiler\": \"" << json_escape(LADDER_COMPILER) << " ("
     << json_escape(__VERSION__) << ")\", \"build_type\": \"" << build_type
     << "\"}";
  return os.str();
}

}  // namespace ladder
