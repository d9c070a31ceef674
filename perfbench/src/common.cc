#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "pml/pml_index.h"
#include "util/atomic_file.h"

namespace boomer {
namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void Histogram::Add(double v) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  const double steps = v > kMin ? std::log(v / kMin) / std::log(1.02) : 0.0;
  const int bucket = std::min(kBuckets - 1, static_cast<int>(steps));
  ++counts_[bucket];
  ++n_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.n_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
}

double Histogram::Quantile(double q) const {
  if (n_ == 0) return 0.0;
  // Nearest rank, as Samples::Quantile. Within its bucket the rank is
  // placed as if the bucket's samples were spread evenly over it, so that
  // runs whose quantile falls in the same bucket still read differently.
  const double rank = std::ceil(q * static_cast<double>(n_));
  const size_t want = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  size_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (seen + counts_[i] >= want) {
      const double within =
          (static_cast<double>(want - seen) - 0.5) / counts_[i];
      return kMin * std::pow(1.02, i + within);
    }
    seen += counts_[i];
  }
  return kMin * std::pow(1.02, kBuckets);
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- Spans ------------------------------------------------------------------

Tracer::ThreadBuffer* Tracer::Local() {
  // One cached buffer per thread; the serial tells a later tracer apart from
  // an earlier one that lived at the same address.
  thread_local uint64_t cached_serial = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_serial != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->spans.reserve(1 << 16);
    cached = buffers_.back().get();
    cached_serial = serial_;
  }
  return cached;
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

Samples Tracer::Durations(const std::vector<SpanRecord>& spans,
                          const std::string& name, double scale) {
  Samples out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) * scale);
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\tsession\tname\tstart_ns\tend_ns\n";
  for (const SpanRecord& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.session << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::string> Tracer::SelfTimeTable(
    const std::vector<SpanRecord>& spans) {
  // Children nest inside their parent on the parent's own thread, so the
  // part of the parent's interval they cover is the sum of their lengths.
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans) {
    Row& row = rows[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    ++row.count;
    row.total_ns += duration;
    auto it = child_ns.find(s.id);
    row.self_ns += duration - (it == child_ns.end() ? 0 : it->second);
  }
  std::vector<std::string> lines;
  for (const auto& [name, row] : rows) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-22s n=%-8zu total=%10.3f ms  self=%10.3f ms", name.c_str(),
                  row.count, row.total_ns * 1e-6, row.self_ns * 1e-6);
    lines.emplace_back(line);
  }
  return lines;
}

Span::Span(Tracer* tracer, const char* name, uint64_t session)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  buffer_ = tracer_->Local();
  record_.name = name;
  record_.session = session;
  record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = buffer_->current;
  buffer_->current = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  buffer_->current = record_.parent;
  buffer_->spans.push_back(record_);
}

const char* ActionSpanName(gui::ActionKind kind) {
  switch (kind) {
    case gui::ActionKind::kNewVertex:
      return "core.vertex";
    case gui::ActionKind::kNewEdge:
      return "core.edge";
    case gui::ActionKind::kModify:
      return "core.modify";
    case gui::ActionKind::kRun:
      return "core.run";
  }
  return "core.action";
}

// ---- Results and work counts -----------------------------------------------

uint64_t DigestMatches(const std::vector<core::PartialMatch>& matches) {
  // Sum and xor of per-match hashes: both commute, so the digest does not
  // depend on the order the enumeration produced the matches in.
  uint64_t sum = 0;
  uint64_t xr = 0;
  for (const core::PartialMatch& m : matches) {
    uint64_t h = m.assignment.size();
    for (graph::VertexId v : m.assignment) h = Mix(h, v);
    sum += h;
    xr ^= Mix(h, 0x5eed);
  }
  return Mix(sum ^ Mix(xr, 1), matches.size());
}

void AddBlendCounts(const core::BlendReport& report, WorkCounts* counts) {
  WorkCounts& c = *counts;
  c["core.edges_immediate"] += report.edges_processed_immediately;
  c["core.edges_deferred"] += report.edges_deferred;
  c["core.edges_idle"] += report.edges_processed_idle;
  c["core.edges_at_run"] += report.edges_processed_at_run;
  c["core.prune_removals"] += report.prune_removals;
  c["core.modifications"] += report.modifications;
  c["pvs.distance_queries"] += report.pvs_totals.distance_queries;
  c["pvs.pairs_added"] += report.pvs_totals.pairs_added;
  c["results.count"] += report.num_results;
  // Pairs the CAP kept after pruning: the numerator of cap.kept_frac.
  c["cap.pairs_kept"] += report.cap_stats.num_adjacency_pairs;
}

std::string CompareOutcome(const SessionOutcome& want,
                           const SessionOutcome& got) {
  if (!got.ok) return "session failed: " + got.error;
  if (got.results != want.results) {
    return "results.count moved: " + std::to_string(want.results) + " -> " +
           std::to_string(got.results);
  }
  if (got.digest != want.digest) return "result digest moved";
  for (const auto& [name, value] : want.counts) {
    auto it = got.counts.find(name);
    const uint64_t now = it == got.counts.end() ? 0 : it->second;
    if (now != value) {
      return name + " moved: " + std::to_string(value) + " -> " +
             std::to_string(now);
    }
  }
  return "";
}

uint64_t DigestOutcomes(const std::vector<SessionOutcome>& outcomes) {
  uint64_t acc = outcomes.size();
  for (const SessionOutcome& o : outcomes) {
    acc = Mix(acc, o.results);
    acc = Mix(acc, o.digest);
    for (const auto& [name, value] : o.counts) acc = Mix(acc, value);
  }
  return acc;
}

// ---- Set-up -----------------------------------------------------------------

StatusOr<DataSet> BuildDataSet(const graph::DatasetSpec& spec, int reps,
                               bool traced, SetupTimes* times) {
  core::PreprocessOptions prep_options;
  prep_options.t_avg_samples = 200000;
  DataSet data;
  for (int rep = 0; rep < reps; ++rep) {
    // Free the previous repetition first so peak memory holds one copy.
    data.prep.reset();
    data.graph.reset();
    const int64_t t0 = NowNs();
    BOOMER_ASSIGN_OR_RETURN(graph::Graph g, graph::GenerateDataset(spec));
    data.graph = std::make_unique<graph::Graph>(std::move(g));
    const int64_t t1 = NowNs();
    times->gen_s.Add((t1 - t0) * 1e-9);
    if (!traced) {
      BOOMER_ASSIGN_OR_RETURN(core::PreprocessResult prep,
                              core::Preprocess(*data.graph, prep_options));
      data.prep = std::make_unique<core::PreprocessResult>(std::move(prep));
      times->total_s.Add((NowNs() - t0) * 1e-9);
      continue;
    }
    // The steps core::Preprocess runs, timed one by one.
    BOOMER_ASSIGN_OR_RETURN(pml::PmlIndex index,
                            pml::PmlIndex::Build(*data.graph));
    const int64_t t2 = NowNs();
    const std::vector<uint32_t> two_hop = pml::ComputeTwoHopCounts(*data.graph);
    const double t_avg = pml::EstimateAvgEdgeTime(
        *data.graph, index, prep_options.t_avg_samples, prep_options.seed);
    const int64_t t3 = NowNs();
    (void)two_hop;
    (void)t_avg;
    times->build_s.Add((t2 - t1) * 1e-9);
    times->prep_other_s.Add((t3 - t2) * 1e-9);
    times->total_s.Add((t3 - t0) * 1e-9);
  }
  if (traced) {
    BOOMER_ASSIGN_OR_RETURN(core::PreprocessResult prep,
                            core::Preprocess(*data.graph, prep_options));
    data.prep = std::make_unique<core::PreprocessResult>(std::move(prep));
  }
  return data;
}

gui::LatencyParams ScaledLatency(double t_avg_seconds) {
  const double factor = kLatencyPerTavg * t_avg_seconds;
  gui::LatencyParams p;
  p.movement_seconds *= factor;
  p.selection_seconds *= factor;
  p.drag_seconds *= factor;
  p.edge_seconds *= factor;
  p.bounds_seconds *= factor;
  return p;
}

Status UseModelTavg(DataSet* data, const std::string& path_prefix,
                    Report* report) {
  report->setup_peak_rss_mib = PeakRssMib();
  const std::string meta_path = path_prefix + ".prep";
  BOOMER_RETURN_NOT_OK(data->prep->Save(path_prefix));
  data->prep.reset();  // one index in memory at a time
  // The meta file's first line is t_avg; the rest stays as saved.
  BOOMER_ASSIGN_OR_RETURN(std::string meta,
                          ReadFileVerified(meta_path, FileKind::kText));
  char t_avg[32];
  std::snprintf(t_avg, sizeof(t_avg), "%.17g", kModelTavgSeconds);
  meta.replace(0, meta.find('\n'), t_avg);
  BOOMER_RETURN_NOT_OK(WriteFileAtomic(meta_path, meta, FileKind::kText));
  core::PreprocessOptions keep_stored;
  keep_stored.t_avg_samples = 0;
  auto loaded = core::PreprocessResult::Load(path_prefix, *data->graph,
                                             keep_stored);
  std::error_code ec;
  std::filesystem::remove(path_prefix + ".pml", ec);
  std::filesystem::remove(meta_path, ec);
  if (!loaded.ok()) return loaded.status();
  if (loaded->t_avg_seconds() != kModelTavgSeconds) {
    return Status::Internal("the loaded t_avg is not the model's");
  }
  data->prep = std::make_unique<core::PreprocessResult>(std::move(*loaded));
  // The copies are freed, but the allocator keeps some of their pages; hand
  // them back so that the restarted peak starts from the live data.
  malloc_trim(0);
  if (!ResetPeakRss()) {
    report->notes.push_back("peak RSS could not be restarted after the "
                            "t_avg swap and includes it");
  }
  return Status::OK();
}

// ---- Process ----------------------------------------------------------------

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_seconds =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.context_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- Report -----------------------------------------------------------------

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void WriteSpans(const std::vector<SpanRecord>& spans, const Options& options,
                Report* report) {
  const std::string path = options.work_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".spans.tsv";
  report->notes.push_back(Tracer::WriteTsv(spans, path)
                              ? "spans: " + path
                              : "spans: could not write " + path);
  for (const std::string& line : Tracer::SelfTimeTable(spans)) {
    report->notes.push_back("self " + line);
  }
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.gen_s", "s"},
      {"pml.build_s", "s"},
      {"pml.prep_other_s", "s"},
      {"pml.index_mib", "MiB"},
      {"pml.within_ns", "ns"},
      {"pml.distance_ns", "ns"},
      {"pml.t_avg_us", "us"},
      {"core.vertex_p50_us", "us"},
      {"core.edge_p50_ms", "ms"},
      {"core.edge_p99_ms", "ms"},
      {"core.modify_p50_ms", "ms"},
      {"core.modify_p99_ms", "ms"},
      {"core.run_p50_ms", "ms"},
      {"core.run_p95_ms", "ms"},
      {"core.backlog_p50_ms", "ms"},
      {"core.drain_s", "s"},
      {"core.enum_s", "s"},
      {"core.edges_immediate", "count"},
      {"core.edges_deferred", "count"},
      {"core.edges_idle", "count"},
      {"core.edges_at_run", "count"},
      {"core.prune_removals", "count"},
      {"core.modifications", "count"},
      {"pvs.distance_queries", "count"},
      {"pvs.pairs_added", "count"},
      {"results.count", "count"},
      {"cap.kib_p50", "KiB"},
      {"cap.kib_max", "KiB"},
      {"cap.kept_frac", "frac"},
      {"serve.open_p50_us", "us"},
      {"serve.submit_p50_us", "us"},
      {"serve.submit_p99_us", "us"},
      {"serve.drain_p50_ms", "ms"},
      {"serve.drain_p95_ms", "ms"},
      {"serve.results_p50_us", "us"},
      {"serve.evict_p50_ms", "ms"},
      {"serve.resume_p50_ms", "ms"},
      {"serve.close_p50_us", "us"},
      {"serve.wal_records", "count"},
      {"serve.evictions", "count"},
      {"serve.rejected", "count"},
      {"net.open_rtt_us", "us"},
      {"net.poll_rtt_us", "us"},
      {"net.resume_rtt_ms", "ms"},
      {"net.polls_per_session", "count"},
      {"net.poll_useful_frac", "frac"},
      {"net.frames_in", "count"},
      {"net.frames_out", "count"},
      {"net.protocol_errors", "count"},
      {"split.net_p50_ms", "ms"},
      {"split.serve_p50_ms", "ms"},
      {"proc.cpu_ms_per_session", "ms"},
      {"proc.ctx_switches_per_session", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

}  // namespace perfbench
}  // namespace boomer
