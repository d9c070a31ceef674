// Shared pieces of the benchmark binary: timing and percentiles, the
// in-memory span tracer, order-independent result digests, the
// must-repeat work counts, data-set set-up and the metric report.
//
// Everything here calls the program only through its public headers; the
// spans are recorded around those calls from the benchmark's own code.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/blender.h"
#include "core/preprocessor.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "gui/actions.h"
#include "gui/latency_model.h"

namespace boomer {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A sample of one timing. Quantiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t n() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const;

 private:
  std::vector<double> values_;
};

/// A timing sample kept as counts in logarithmic buckets 2% wide, so its
/// memory does not grow with the run: served-wire takes millions of
/// samples, and keeping them raw made peak memory follow the host's speed.
/// Quantiles are exact to the bucket (within 2% of the value).
class Histogram {
 public:
  void Add(double v);
  void Merge(const Histogram& other);
  size_t n() const { return n_; }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  static constexpr double kMin = 1e-4;  // values at or below land in bucket 0
  static constexpr int kBuckets = 1200;  // 2% steps: 1e-4 to ~2e6
  std::vector<uint32_t> counts_;
  size_t n_ = 0;
};

/// Median over the parts of a run (rounds or windows) of one per-part
/// statistic.
template <typename Part, typename Stat>
double MedianOver(const std::vector<Part>& parts, Stat stat) {
  Samples per_part;
  for (const Part& part : parts) per_part.Add(stat(part));
  return per_part.Median();
}

/// Deterministic 64-bit mixing of a seed with a stream index.
uint64_t Mix(uint64_t seed, uint64_t index);

// ---- Spans ------------------------------------------------------------------

/// One span: a call into a layer, timed from the benchmark's own code.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint64_t session = 0;
};

/// Spans stay in memory (one buffer per thread, no locking on the hot
/// path) and are written out once, when the benchmark ends.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// All spans recorded so far, from every thread. Call once the threads
  /// that record have been joined.
  std::vector<SpanRecord> Collect() const;
  /// Durations of every span called `name`, in nanoseconds times `scale`.
  static Samples Durations(const std::vector<SpanRecord>& spans,
                           const std::string& name, double scale);
  /// Writes one tab-separated line per span. False on an I/O error.
  static bool WriteTsv(const std::vector<SpanRecord>& spans,
                       const std::string& path);
  /// Per span name: count, total and self time (the span minus the part of
  /// its interval its child spans cover), as printable lines.
  static std::vector<std::string> SelfTimeTable(
      const std::vector<SpanRecord>& spans);

 private:
  friend class Span;
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    uint32_t current = 0;  // innermost open span on this thread
  };
  ThreadBuffer* Local();

  const uint64_t serial_ = next_serial_.fetch_add(1);
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  static inline std::atomic<uint64_t> next_serial_{1};
};

/// RAII span. A null tracer makes it a no-op, which is how untraced runs
/// stay free of tracing cost.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t session);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  SpanRecord record_;
};

/// Span name of a Blender OnAction call for an action of `kind`.
const char* ActionSpanName(gui::ActionKind kind);

// ---- Results and work counts -----------------------------------------------

/// Order-independent digest of a result set.
uint64_t DigestMatches(const std::vector<core::PartialMatch>& matches);

/// The counts a run must reproduce exactly for its seed: the blender's
/// decisions and the work behind them. Keys are the per-layer metric names.
using WorkCounts = std::map<std::string, uint64_t>;

/// Adds one session's BlendReport counts to `counts`.
void AddBlendCounts(const core::BlendReport& report, WorkCounts* counts);

/// What one session produced; compared against the expected value for its
/// position in the round.
struct SessionOutcome {
  bool ok = false;
  std::string error;
  size_t results = 0;
  uint64_t digest = 0;
  WorkCounts counts;
};

/// Empty when `got` equals `want`; otherwise names the first field that
/// moved.
std::string CompareOutcome(const SessionOutcome& want,
                           const SessionOutcome& got);

// ---- Set-up -----------------------------------------------------------------

struct DataSet {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<core::PreprocessResult> prep;
};

struct SetupTimes {
  Samples total_s;       // one per repetition
  Samples gen_s;         // graph generation
  Samples build_s;       // PmlIndex::Build (traced runs)
  Samples prep_other_s;  // two-hop counts + t_avg (traced runs)
};

/// Generates the data set and preprocesses it `reps` times, keeping the
/// last. Traced runs time the PML build and the other preprocessing steps
/// apart on every repetition, then build the kept result in one piece.
StatusOr<DataSet> BuildDataSet(const graph::DatasetSpec& spec, int reps,
                               bool traced, SetupTimes* times);

/// Human latencies measured in distance-query times: every latency of the
/// Section 5.3 model, and t_lat, is multiplied by kLatencyPerTavg * t_avg,
/// so t_lat = t_e lasts 60000.5 distance queries, a vertex 90000.75, an
/// edge with bounds 105000.875, a bounds edit 45000.375 and a deletion
/// 24000.2. Definition 5.8 then compares a candidate-pair count with
/// 60000.5, and DI's idle-window test a pending edge's pair count with the
/// window's, less the real time the engine still owes for earlier actions.
/// That real time is why the blender's t_avg is a model constant (see
/// UseModelTavg): with the measured t_avg (about 1 us) an action's few
/// milliseconds took thousands of pairs off the next window, so a pending
/// edge near a window's size was probed or not depending on the host's
/// speed, and one round of 240 sessions moved pvs.distance_queries from
/// the round before it. Every window has a fractional part of at least 0.2
/// pairs, so a decision moves only if an action takes longer than
/// 0.2 * kModelTavgSeconds = 20 s of real time.
inline constexpr double kLatencyPerTavg = 30000.25;

/// The t_avg, in seconds, the blender of the in-process workloads runs with.
inline constexpr double kModelTavgSeconds = 100.0;

/// Every workload runs on one fixed data set; the seed draws its sessions.
inline constexpr uint64_t kDataSetSeed = 42;

/// The latency model scaled by t_avg as described above.
gui::LatencyParams ScaledLatency(double t_avg_seconds);

struct Report;

/// Replaces `data`'s preprocessing by the same index and two-hop counts
/// with t_avg = kModelTavgSeconds. PreprocessResult keeps t_avg private;
/// its Save and Load (with t_avg_samples = 0, which keeps the stored
/// estimate) are the public way to set it. The files go to `path_prefix`
/// and are removed again. Save and Load hold three to four copies of the
/// index at once, which would set peak_rss_mib on every workload, so the
/// peak before the swap goes to `report` and the peak restarts after it.
Status UseModelTavg(DataSet* data, const std::string& path_prefix,
                    Report* report);

// ---- Process ----------------------------------------------------------------

struct ProcUsage {
  double cpu_seconds = 0.0;
  uint64_t context_switches = 0;
};
ProcUsage ReadProcUsage();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMib();
/// Restarts the peak resident set from the current one. False when the
/// kernel refuses.
bool ResetPeakRss();

// ---- Report -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// What a workload hands back to main(): metrics with their sample counts,
/// the work counts of one round of sessions, and the output-check verdicts.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    size_t n = 0;
  };
  std::map<std::string, Metric> metrics;
  WorkCounts round_counts;
  uint64_t outcome_digest = 0;  // digest of every expected session outcome
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  double t_avg_us = 0.0;
  double setup_peak_rss_mib = 0.0;  // the peak before UseModelTavg
  size_t rounds = 0;
  size_t round_sessions = 0;
  std::vector<std::string> notes;  // extra lines for the log

  void Set(const std::string& name, double value, const std::string& unit,
           size_t n) {
    metrics[name] = Metric{value, unit, n};
  }
  void Fail(const std::string& why);
};

/// Combines the expected outcomes into one number the run record keeps.
uint64_t DigestOutcomes(const std::vector<SessionOutcome>& outcomes);

/// Writes the spans next to the run's other files and adds the per-layer
/// self-time table to the report's log lines.
void WriteSpans(const std::vector<SpanRecord>& spans, const Options& options,
                Report* report);

/// Percent by which `traced` exceeds `untraced`.
double OverheadPct(double traced, double untraced);

/// Per-layer metric names every traced run reports; the ones a workload
/// does not exercise are reported as 0 with a sample count of 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// setup_s, and in traced runs the set-up and PML layer metrics: set-up
/// steps, index size, t_avg, and WithinDistance/Distance timed over fixed
/// pair samples.
void ReportSetupLayers(const SetupTimes& times, const DataSet& data,
                       const Options& options, Report* report);

/// The core.*, pvs.*, results.* and cap.* metrics from Blender spans, one
/// round's work counts, and one round's CAP sizes, backlogs and Run-time
/// drain and enumeration totals.
void ReportCoreLayer(const std::vector<SpanRecord>& spans,
                     const WorkCounts& round_counts, const Samples& cap_kib,
                     const Samples& backlog_ms, double drain_s_per_round,
                     double enum_s_per_round, Report* report);

int RunBlendWorkload(const Options& options, Report* report);
int RunServedWire(const Options& options, Report* report);

}  // namespace perfbench
}  // namespace boomer

#endif  // PERFBENCH_COMMON_H_
