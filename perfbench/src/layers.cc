// Per-layer metrics shared by the workloads: the set-up and PML layers, and
// the core layer read from Blender spans and one round's work counts.

#include "common.h"
#include "pml/pml_index.h"
#include "util/rng.h"

namespace boomer {
namespace perfbench {

void ReportCoreLayer(const std::vector<SpanRecord>& spans,
                     const WorkCounts& round_counts, const Samples& cap_kib,
                     const Samples& backlog_ms, double drain_s_per_round,
                     double enum_s_per_round, Report* report) {
  const Samples vertex = Tracer::Durations(spans, "core.vertex", 1e-3);
  const Samples edge = Tracer::Durations(spans, "core.edge", 1e-6);
  const Samples modify = Tracer::Durations(spans, "core.modify", 1e-6);
  const Samples run = Tracer::Durations(spans, "core.run", 1e-6);
  report->Set("core.vertex_p50_us", vertex.Median(), "us", vertex.n());
  report->Set("core.edge_p50_ms", edge.Median(), "ms", edge.n());
  report->Set("core.edge_p99_ms", edge.Quantile(0.99), "ms", edge.n());
  report->Set("core.modify_p50_ms", modify.Median(), "ms", modify.n());
  report->Set("core.modify_p99_ms", modify.Quantile(0.99), "ms", modify.n());
  report->Set("core.run_p50_ms", run.Median(), "ms", run.n());
  report->Set("core.run_p95_ms", run.Quantile(0.95), "ms", run.n());
  report->Set("core.backlog_p50_ms", backlog_ms.Median(), "ms", backlog_ms.n());
  report->Set("core.drain_s", drain_s_per_round, "s", 1);
  report->Set("core.enum_s", enum_s_per_round, "s", 1);
  for (const auto& [name, value] : round_counts) {
    if (name == "cap.pairs_kept") continue;
    report->Set(name, static_cast<double>(value), "count", 1);
  }
  report->Set("cap.kib_p50", cap_kib.Median(), "KiB", cap_kib.n());
  report->Set("cap.kib_max", cap_kib.Max(), "KiB", cap_kib.n());
  const auto added = round_counts.find("pvs.pairs_added");
  const auto kept = round_counts.find("cap.pairs_kept");
  if (added != round_counts.end() && kept != round_counts.end() &&
      added->second > 0) {
    report->Set("cap.kept_frac",
                static_cast<double>(kept->second) /
                    static_cast<double>(added->second),
                "frac", 1);
  }
}

void ReportSetupLayers(const SetupTimes& times, const DataSet& data,
                       const Options& options, Report* report) {
  report->Set("setup_s", times.total_s.Median(), "s", times.total_s.n());
  if (!options.trace) return;
  report->Set("graph.gen_s", times.gen_s.Median(), "s", times.gen_s.n());
  report->Set("pml.build_s", times.build_s.Median(), "s", times.build_s.n());
  report->Set("pml.prep_other_s", times.prep_other_s.Median(), "s",
              times.prep_other_s.n());
  const pml::PmlIndex& index = data.prep->pml();
  report->Set("pml.index_mib",
              static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
              "MiB", 1);
  report->Set("pml.t_avg_us", data.prep->t_avg_seconds() * 1e6, "us", 1);
  // Fixed pair samples, timed in five passes; the median pass is reported.
  constexpr size_t kPairs = 100000;
  Rng rng(Mix(options.seed, 0x9a175));
  const size_t n = data.graph->NumVertices();
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
  pairs.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Uniform(n)),
                       static_cast<graph::VertexId>(rng.Uniform(n)));
  }
  Samples within_ns;
  Samples distance_ns;
  uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    int64_t t0 = NowNs();
    for (const auto& [u, v] : pairs) sink += index.WithinDistance(u, v, 3);
    within_ns.Add(static_cast<double>(NowNs() - t0) / kPairs);
    t0 = NowNs();
    for (const auto& [u, v] : pairs) sink += index.Distance(u, v);
    distance_ns.Add(static_cast<double>(NowNs() - t0) / kPairs);
  }
  asm volatile("" : : "r"(sink) : "memory");
  report->Set("pml.within_ns", within_ns.Median(), "ns", kPairs * 5);
  report->Set("pml.distance_ns", distance_ns.Median(), "ns", kPairs * 5);
}

}  // namespace perfbench
}  // namespace boomer
