// The three closed-loop workloads.  Each returns raw measurements; the
// statistics (percentiles, ratios, span self times) are computed by
// perfbench/stats.py so that one tested implementation serves every metric.
#ifndef MOIRA_PERFBENCH_WORKLOADS_H_
#define MOIRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/histogram.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false; // time the setup and stop (no measurement)
  std::string work_dir;    // scratch space for data directories and spans
};

struct RunOutput {
  std::vector<double> setup_s;  // one timed set-up
  double measured_s = 0;
  uint64_t ops = 0;        // operations as ops_per_s counts them
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Process peak RSS (VmHWM) at the end of the measured window.  The
  // harness records into fixed-size histograms allocated before the warmup,
  // so what grows during the window is the program's memory.
  int64_t peak_rss_kb = 0;
  // Latencies of the operations the run counts, in nanoseconds: "op" (every
  // operation ops counts), "read" (retrieve queries), "write" (mutation
  // acks), "pass" (DCM passes), "query.<name>" (per query).
  std::map<std::string, LatencyHistogram> histograms;
  // Per-layer sample sets of the traced run, and term_start's per-slice
  // medians ("slice.op_p50", "slice.read_p50"), in nanoseconds.
  std::map<std::string, std::vector<int64_t>> samples;
  // Raw counter deltas over the measured window.
  std::map<std::string, double> counters;
  // Output oracles: name -> (checked, failed).
  std::map<std::string, std::pair<uint64_t, uint64_t>> oracles;
  // Layer peeling (traced lookup): request id -> direct-execution time (ns).
  std::vector<std::pair<uint64_t, int64_t>> peeled_core;
  std::string spans_path;  // traced run: the span TSV
  int threads = 0;         // generator threads
  int connections = 0;     // client connections
  int server_threads = 0;  // transport thread + read-pool workers
};

// Runs the named workload; returns false (with a message) if the workload is
// unknown or the deployment could not be started.
bool RunWorkload(const RunConfig& config, RunOutput* out, std::string* error);

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_WORKLOADS_H_
