// perfbench_e2e: runs one workload against an in-process Moira deployment and
// writes the raw measurements as JSON.  Normally invoked by perfbench/run.py,
// which builds this program, derives the metrics and prints the result:
//
//   perfbench_e2e --workload lookup --seed 1 --seconds 20 --trace 0
//                 [--setup-only 1] --work-dir DIR --out FILE
//   perfbench_e2e --self-test 1     # checks the histogram's bucket math
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace {

void WriteSamples(FILE* f, const std::vector<int64_t>& values) {
  std::fputc('[', f);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, i == 0 ? "%lld" : ",%lld", static_cast<long long>(values[i]));
  }
  std::fputc(']', f);
}

// [[low, width, count], ...] of the non-empty buckets.
void WriteHistogram(FILE* f, const perfbench::LatencyHistogram& h) {
  std::fputc('[', f);
  bool first = true;
  for (const perfbench::LatencyHistogram::Bucket& b : h.NonEmpty()) {
    std::fprintf(f, "%s[%lld,%lld,%llu]", first ? "" : ",", static_cast<long long>(b.low),
                 static_cast<long long>(b.width), static_cast<unsigned long long>(b.count));
    first = false;
  }
  std::fputc(']', f);
}

// Every bucket's values map back to it, buckets tile the range without gaps,
// and no bucket is wider than 1/512 of its lowest value.
int SelfTest() {
  using H = perfbench::LatencyHistogram;
  int64_t next = 0;
  for (size_t i = 0; i < H::kBuckets; ++i) {
    const auto [low, width] = H::Bounds(i);
    const int64_t mid = low + (width - 1) / 2;
    if (low != next || H::Index(low) != i || H::Index(low + width - 1) != i ||
        H::Index(mid) != i || (width > 1 && width * 512 > low)) {
      std::fprintf(stderr, "histogram self-test: bucket %zu [%lld, +%lld) is wrong\n", i,
                   static_cast<long long>(low), static_cast<long long>(width));
      return 1;
    }
    next = low + width;
  }
  if (H::Index(-5) != 0 || H::Index(next) != H::kBuckets - 1 ||
      H::Index(int64_t{1} << 60) != H::kBuckets - 1) {
    std::fprintf(stderr, "histogram self-test: out-of-range values are not clamped\n");
    return 1;
  }
  H h;
  for (int64_t v : {5, 5, 2000, 3000000}) {
    h.Add(v);
  }
  const auto buckets = h.NonEmpty();
  if (h.count() != 4 || buckets.size() != 3 || buckets[0].low != 5 || buckets[0].width != 1 ||
      buckets[0].count != 2 || buckets[2].low > 3000000 ||
      buckets[2].low + buckets[2].width <= 3000000) {
    std::fprintf(stderr, "histogram self-test: counting is wrong\n");
    return 1;
  }
  std::printf("histogram self-test: %zu buckets OK\n", H::kBuckets);
  return 0;
}

bool WriteJson(const std::string& path, const perfbench::RunConfig& cfg,
               const perfbench::RunOutput& out) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %.3f,\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.trace ? 1 : 0, cfg.seconds);
  std::fprintf(f, " \"build_type\": \"%s\", \"optimized\": %s, \"nproc\": %ld,\n",
               PERFBENCH_BUILD_TYPE, optimized ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f, " \"threads\": %d, \"connections\": %d, \"server_threads\": %d,\n",
               out.threads, out.connections, out.server_threads);
  std::fprintf(f, " \"setup_s\": [");
  for (size_t i = 0; i < out.setup_s.size(); ++i) {
    std::fprintf(f, i == 0 ? "%.6f" : ", %.6f", out.setup_s[i]);
  }
  std::fprintf(f, "],\n \"measured_s\": %.6f, \"ops\": %llu, \"attempted\": %llu, "
               "\"failed\": %llu,\n",
               out.measured_s, static_cast<unsigned long long>(out.ops),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  std::fprintf(f, " \"peak_rss_kb\": %lld,\n", static_cast<long long>(out.peak_rss_kb));
  std::fprintf(f, " \"oracles\": {");
  bool first = true;
  for (const auto& [name, result] : out.oracles) {
    std::fprintf(f, "%s\"%s\": {\"checked\": %llu, \"failed\": %llu}", first ? "" : ", ",
                 name.c_str(), static_cast<unsigned long long>(result.first),
                 static_cast<unsigned long long>(result.second));
    first = false;
  }
  std::fprintf(f, "},\n \"counters\": {");
  first = true;
  for (const auto& [name, value] : out.counters) {
    std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "},\n \"peeled_core\": [");
  for (size_t i = 0; i < out.peeled_core.size(); ++i) {
    std::fprintf(f, "%s[%llu, %lld]", i == 0 ? "" : ",",
                 static_cast<unsigned long long>(out.peeled_core[i].first),
                 static_cast<long long>(out.peeled_core[i].second));
  }
  std::fprintf(f, "],\n \"spans\": \"%s\",\n \"histograms\": {", out.spans_path.c_str());
  first = true;
  for (const auto& [name, hist] : out.histograms) {
    std::fprintf(f, "%s\n  \"%s\": ", first ? "" : ",", name.c_str());
    WriteHistogram(f, hist);
    first = false;
  }
  std::fprintf(f, "},\n \"samples\": {");
  first = true;
  for (const auto& [name, values] : out.samples) {
    std::fprintf(f, "%s\n  \"%s\": ", first ? "" : ",", name.c_str());
    WriteSamples(f, values);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload lookup|term_start|propagate --seed N "
               "--seconds S --trace 0|1 [--setup-only 1] --work-dir DIR "
               "--out FILE\n       perfbench_e2e --self-test 1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--setup-only") {
      cfg.setup_only = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--self-test") {
      return SelfTest();
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || out_path.empty() || cfg.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(cfg.work_dir);
  perfbench::RunOutput out;
  std::string error;
  if (!perfbench::RunWorkload(cfg, &out, &error)) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", error.c_str());
    return 1;
  }
  if (!WriteJson(out_path, cfg, out)) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
