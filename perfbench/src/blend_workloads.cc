// The two in-process workloads: wordnet-blend and dblp-edit.
//
// Both run one thread that drives Blender sessions back to back. The
// sessions form a fixed round drawn from the seed over a fixed data set; the
// measured loop replays the whole round until the run's time is up. Every
// round must reproduce the first one's results and work counts exactly, and
// the first round must match a reference answer: the drawn query blended
// with the Immediate strategy and no edits, so no deferral, idle probing,
// drain or rollback is involved. End-to-end metrics are computed per round
// and reported as the median over rounds, which keeps a few seconds of host
// slowdown from moving them.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common.h"
#include "gui/trace_builder.h"
#include "query/templates.h"
#include "util/rng.h"

namespace boomer {
namespace perfbench {
namespace {

struct BlendConfig {
  graph::DatasetKind kind;
  double scale;
  std::vector<query::TemplateId> templates;
  /// Query instances per template: for WordNet a multiple of its five
  /// labels, so the label draw can be balanced. Each instance runs once per
  /// edge (see PlanSession).
  size_t instances;
  /// Tighten and restore one edge, then delete and redraw one, before Run.
  bool edits;
};

/// Results viewed through GenerateResultSubgraph after each Run.
constexpr size_t kViewsPerSession = 4;
constexpr int kSetupReps = 3;
/// Rounds every run completes, whatever --seconds says: the repeat check
/// needs a second round, and traced runs alternate plain and traced rounds.
constexpr size_t kMinRounds = 2;
/// Draws the labels of the round's queries (see PlanRound).
constexpr uint64_t kQuerySeed = 0x1abe1;

struct PlannedSession {
  size_t query_index = 0;  // sessions of one query share its reference
  query::BphQuery query;
  gui::ActionTrace trace;
};

/// Labels for `count` instances of a template with `arity` vertices. Each
/// vertex position runs through its own shuffle of a balanced label list,
/// so with `count` a multiple of the label count every label fills every
/// position equally often.
std::vector<std::vector<graph::LabelId>> BalancedLabels(size_t num_labels,
                                                        size_t arity,
                                                        size_t count,
                                                        Rng* rng) {
  std::vector<std::vector<graph::LabelId>> labels(
      count, std::vector<graph::LabelId>(arity));
  for (size_t p = 0; p < arity; ++p) {
    const size_t offset = rng->Uniform(num_labels);
    std::vector<graph::LabelId> column(count);
    for (size_t j = 0; j < count; ++j) {
      column[j] = static_cast<graph::LabelId>((offset + j) % num_labels);
    }
    for (size_t j = count; j > 1; --j) {
      std::swap(column[j - 1], column[rng->Uniform(j)]);
    }
    for (size_t j = 0; j < count; ++j) labels[j][p] = column[j];
  }
  return labels;
}

/// The session of `query` that rotates edge `edge`. Without edits, that
/// edge is drawn last and the seed orders the others. With edits, the edges
/// are drawn in template order, the seed picks the edge that is tightened
/// and restored, and edge `edge` is deleted and redrawn.
StatusOr<PlannedSession> PlanSession(const BlendConfig& config,
                                     const query::BphQuery& query,
                                     query::QueryEdgeId edge,
                                     uint64_t session_seed, double t_avg) {
  PlannedSession plan;
  plan.query = query;
  // The formulation order moves every deferral, idle and drain decision.
  Rng rng(session_seed);
  gui::FormulationSequence sequence = gui::DefaultSequence(plan.query);
  if (!config.edits) {
    std::swap(sequence[edge], sequence.back());
    for (size_t j = sequence.size() - 1; j > 1; --j) {
      std::swap(sequence[j - 1], sequence[rng.Uniform(j)]);
    }
  }
  gui::LatencyModel latency(ScaledLatency(t_avg), session_seed);
  BOOMER_ASSIGN_OR_RETURN(gui::ActionTrace drawn,
                          gui::BuildTrace(plan.query, sequence, &latency));
  if (!config.edits) {
    plan.trace = std::move(drawn);
    return plan;
  }
  // Everything but the closing Run, then the edits, then Run. The blender
  // numbers edges in drawing order, so the k-th edge drawn is sequence[k].
  for (size_t i = 0; i + 1 < drawn.size(); ++i) {
    plan.trace.Append(drawn.actions()[i]);
  }
  std::vector<query::QueryEdgeId> loose;
  for (query::QueryEdgeId k = 0; k < sequence.size(); ++k) {
    if (plan.query.Edge(sequence[k]).bounds.upper >= 2) loose.push_back(k);
  }
  if (!loose.empty()) {
    const query::QueryEdgeId k = loose[rng.Uniform(loose.size())];
    const query::Bounds original = plan.query.Edge(sequence[k]).bounds;
    query::Bounds tight = original;
    tight.upper = original.upper - 1;
    plan.trace.Append(
        gui::Action::SetBounds(k, tight, latency.ModifyLatencyMicros(true)));
    plan.trace.Append(gui::Action::SetBounds(
        k, original, latency.ModifyLatencyMicros(true)));
  }
  const query::QueryEdge redrawn = plan.query.Edge(sequence[edge]);
  plan.trace.Append(
      gui::Action::DeleteEdge(edge, latency.ModifyLatencyMicros(false)));
  plan.trace.Append(gui::Action::NewEdge(
      redrawn.src, redrawn.dst, redrawn.bounds,
      latency.EdgeLatencyMicros(redrawn.bounds)));
  plan.trace.Append(gui::Action::Run());
  return plan;
}

StatusOr<std::vector<PlannedSession>> PlanRound(const graph::Graph& g,
                                                const BlendConfig& config,
                                                uint64_t seed, double t_avg) {
  // The queries are the same for every seed: which labels meet in one query
  // sets its candidate sets and result count, and a seeded draw swung peak
  // memory by up to 60% and the SRT tail by a third from seed to seed
  // (dblp-edit: one Q5 instance in about sixty enumerates 1.9M matches
  // instead of 0.2-1M; wordnet-blend: a noun-only triangle runs ten times
  // the p95). Each query runs once per edge, with that edge drawn last, or
  // deleted and redrawn, so those choices are the same for every seed; the
  // seed orders the other edges or picks the tightened one (PlanSession).
  // Left to the seed, the last edge moved wordnet-blend's SRT median by a
  // quarter from seed to seed: its work is still owed at Run, and the
  // median sits where the SRT distribution is sparse (p45 to p55 spans
  // 1.1 to 1.6 ms). On dblp-edit the deleted edge decides how much of the
  // CAP is rolled back and rebuilt, the bulk of a round's work.
  std::vector<std::vector<std::vector<graph::LabelId>>> labels;
  Rng rng(kQuerySeed);
  for (query::TemplateId tmpl : config.templates) {
    labels.push_back(BalancedLabels(g.NumLabels(),
                                    query::GetTemplate(tmpl).num_vertices,
                                    config.instances, &rng));
  }
  std::vector<PlannedSession> plan;
  size_t query_index = 0;
  for (size_t i = 0; i < config.instances; ++i) {
    for (size_t t = 0; t < config.templates.size(); ++t, ++query_index) {
      const query::TemplateId tmpl = config.templates[t];
      BOOMER_ASSIGN_OR_RETURN(
          query::BphQuery query,
          query::InstantiateTemplate(tmpl, labels[t][i],
                                     bench::Exp3Overrides(config.kind, tmpl)));
      for (query::QueryEdgeId edge = 0; edge < query.NumEdges(); ++edge) {
        BOOMER_ASSIGN_OR_RETURN(
            PlannedSession session,
            PlanSession(config, query, edge, Mix(seed, plan.size()), t_avg));
        session.query_index = query_index;
        plan.push_back(std::move(session));
      }
    }
  }
  return plan;
}

core::BlenderOptions SessionOptions(double t_avg, core::Strategy strategy) {
  core::BlenderOptions options;
  options.strategy = strategy;
  options.t_lat_seconds = ScaledLatency(t_avg).edge_seconds;  // t_lat = t_e
  return options;
}

/// The reference answer: the drawn query, no edits, Immediate strategy.
SessionOutcome ReferenceOutcome(const DataSet& data, const PlannedSession& plan,
                                double t_avg) {
  SessionOutcome out;
  gui::LatencyModel latency(ScaledLatency(t_avg), 1);
  auto trace =
      gui::BuildTrace(plan.query, gui::DefaultSequence(plan.query), &latency);
  if (!trace.ok()) {
    out.error = trace.status().ToString();
    return out;
  }
  core::Blender blender(*data.graph, *data.prep,
                        SessionOptions(t_avg, core::Strategy::kImmediate));
  const Status st = blender.RunTrace(*trace);
  if (!st.ok() || blender.report().truncated()) {
    out.error = st.ok() ? "reference truncated" : st.ToString();
    return out;
  }
  out.ok = true;
  out.results = blender.Results().size();
  out.digest = DigestMatches(blender.Results());
  return out;
}

/// What one round of measured sessions adds up to.
struct RoundSamples {
  Samples srt_ms;
  Samples act_ms;
  Samples view_ms;
  Samples backlog_ms;
  Samples cap_kib;
  double drain_s = 0.0;
  double enum_s = 0.0;
  double wall_s = 0.0;  // session work only: actions and views
  size_t sessions = 0;
};

SessionOutcome RunSession(const DataSet& data, const PlannedSession& plan,
                          const core::BlenderOptions& options,
                          uint64_t session_id, Tracer* tracer,
                          RoundSamples* samples) {
  SessionOutcome out;
  double wall_s = 0.0;
  double srt_ms = 0.0;
  core::Blender blender(*data.graph, *data.prep, options);
  {
    Span session_span(tracer, "session", session_id);
    for (const gui::Action& a : plan.trace.actions()) {
      Span span(tracer, ActionSpanName(a.kind), session_id);
      const int64_t t0 = NowNs();
      const Status st = blender.OnAction(a);
      const double ms = (NowNs() - t0) * 1e-6;
      wall_s += ms * 1e-3;
      if (!st.ok()) {
        out.error = gui::ActionKindName(a.kind) + std::string(": ") +
                    st.ToString();
        return out;
      }
      if (a.kind == gui::ActionKind::kRun) {
        // The paper's SRT: the backlog still owed at the Run click plus
        // the Run call itself.
        srt_ms = blender.report().run_backlog_seconds * 1e3 + ms;
      } else {
        samples->act_ms.Add(ms);
      }
    }
    const size_t views = std::min(kViewsPerSession, blender.Results().size());
    for (size_t i = 0; i < views; ++i) {
      Span span(tracer, "core.view", session_id);
      const int64_t t0 = NowNs();
      auto subgraph = blender.GenerateResultSubgraph(i);
      const double ms = (NowNs() - t0) * 1e-6;
      wall_s += ms * 1e-3;
      samples->view_ms.Add(ms);
      if (!subgraph.ok() && subgraph.status().code() != StatusCode::kNotFound) {
        out.error = "view: " + subgraph.status().ToString();
        return out;
      }
    }
  }
  const core::BlendReport& report = blender.report();
  if (report.truncated()) {
    out.error = std::string("truncated: ") +
                core::TruncationReasonName(report.truncation);
    return out;
  }
  samples->srt_ms.Add(srt_ms);
  samples->backlog_ms.Add(report.run_backlog_seconds * 1e3);
  samples->cap_kib.Add(static_cast<double>(report.cap_stats.size_bytes) /
                       1024.0);
  samples->drain_s += report.run_drain_wall_seconds;
  samples->enum_s += report.enumeration_wall_seconds;
  samples->wall_s += wall_s;
  ++samples->sessions;
  out.ok = true;
  out.results = blender.Results().size();
  out.digest = DigestMatches(blender.Results());
  AddBlendCounts(report, &out.counts);
  return out;
}

/// One log line per round: host drift shows as rounds of the same sessions
/// that ran at different speeds.
std::string RoundNote(size_t round, bool traced, const RoundSamples& r) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "round %zu%s: srt_p50=%.4g srt_p95=%.4g act_p50=%.4g "
                "act_p99=%.4g ms, %.4g sessions/s",
                round, traced ? " (traced)" : "", r.srt_ms.Median(),
                r.srt_ms.Quantile(0.95), r.act_ms.Median(),
                r.act_ms.Quantile(0.99), r.sessions / r.wall_s);
  return line;
}

}  // namespace

int RunBlendWorkload(const Options& options, Report* report) {
  using query::TemplateId;
  const BlendConfig config =
      options.workload == "wordnet-blend"
          ? BlendConfig{graph::DatasetKind::kWordNet, 0.03,
                        {TemplateId::kQ1, TemplateId::kQ2, TemplateId::kQ3,
                         TemplateId::kQ4, TemplateId::kQ5, TemplateId::kQ6},
                        /*instances=*/10, /*edits=*/false}
          // Q3 and Q6 are left out: DBLP's Q3, Q4 and Q6 all end in under
          // 0.3 ms and the others above 0.5 ms, and with Q3 or Q6 in the
          // mix exactly half the sessions were the short ones, so the SRT
          // median sat on the gap and jumped by a third from round to
          // round. The order is fixed for the same reason: a third of the
          // actions are vertex draws of a few microseconds, so the
          // action-time median sits where edge and edit times start, and
          // seeded orders moved it by half.
          : BlendConfig{graph::DatasetKind::kDblp, 0.02,
                        {TemplateId::kQ1, TemplateId::kQ2, TemplateId::kQ4,
                         TemplateId::kQ5},
                        /*instances=*/10, /*edits=*/true};

  SetupTimes setup;
  const graph::DatasetSpec spec{config.kind, config.scale, kDataSetSeed};
  auto data_or = BuildDataSet(spec, kSetupReps, options.trace, &setup);
  if (!data_or.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 data_or.status().ToString().c_str());
    return 2;
  }
  DataSet& data = *data_or;
  report->t_avg_us = data.prep->t_avg_seconds() * 1e6;
  ReportSetupLayers(setup, data, options, report);
  // From here on the blender runs with the model's t_avg (see
  // kLatencyPerTavg); the swap is not part of the set-up time.
  const int64_t swap_start = NowNs();
  const Status swapped = UseModelTavg(
      &data, options.work_dir + "/" + options.workload + "-model", report);
  if (!swapped.ok()) {
    std::fprintf(stderr, "setting the model t_avg failed: %s\n",
                 swapped.ToString().c_str());
    return 2;
  }
  char note[80];
  std::snprintf(note, sizeof(note), "model t_avg %g s, set in %.3f s",
                kModelTavgSeconds, (NowNs() - swap_start) * 1e-9);
  report->notes.push_back(note);
  const double t_avg = kModelTavgSeconds;

  auto plan_or = PlanRound(*data.graph, config, options.seed, t_avg);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan_or.status().ToString().c_str());
    return 2;
  }
  const std::vector<PlannedSession>& plan = *plan_or;
  std::vector<SessionOutcome> reference;
  for (const PlannedSession& p : plan) {
    if (p.query_index == reference.size()) {
      reference.push_back(ReferenceOutcome(data, p, t_avg));
    }
  }

  const core::BlenderOptions blend_options =
      SessionOptions(t_avg, core::Strategy::kDeferToIdle);
  Tracer tracer;
  std::vector<RoundSamples> plain;
  std::vector<RoundSamples> traced;
  std::vector<SessionOutcome> expected(plan.size());
  const ProcUsage usage0 = ReadProcUsage();
  const int64_t start = NowNs();
  double last_round_s = 0.0;
  size_t round = 0;
  // Whole rounds only; stop when the next one would end further past the
  // requested time than the run stands short of it.
  while (round < kMinRounds ||
         (NowNs() - start) * 1e-9 + last_round_s / 2 < options.seconds) {
    // Traced runs alternate plain and traced rounds; the difference between
    // the two is the tracing overhead.
    const bool trace_round = options.trace && round % 2 == 1;
    RoundSamples samples;
    const int64_t round_start = NowNs();
    for (size_t i = 0; i < plan.size(); ++i) {
      const uint64_t session_id = round * plan.size() + i + 1;
      SessionOutcome got =
          RunSession(data, plan[i], blend_options, session_id,
                     trace_round ? &tracer : nullptr, &samples);
      ++report->attempted;
      std::string why;
      if (round == 0) {
        if (!got.ok) {
          why = "session failed: " + got.error;
        } else if (const SessionOutcome& want =
                       reference[plan[i].query_index];
                   got.results != want.results || got.digest != want.digest) {
          why = "results differ from the reference (" +
                std::to_string(got.results) + " vs " +
                std::to_string(want.results) + " matches)";
        }
        expected[i] = got;
      } else {
        why = CompareOutcome(expected[i], got);
      }
      if (!why.empty()) {
        report->Fail("session " + std::to_string(i) + " round " +
                     std::to_string(round) + ": " + why);
      }
    }
    last_round_s = (NowNs() - round_start) * 1e-9;
    report->notes.push_back(RoundNote(round, trace_round, samples));
    (trace_round ? traced : plain).push_back(std::move(samples));
    ++round;
  }
  const ProcUsage usage1 = ReadProcUsage();
  report->rounds = round;
  report->round_sessions = plan.size();
  for (const SessionOutcome& o : expected) {
    for (const auto& [name, value] : o.counts) {
      report->round_counts[name] += value;
    }
  }
  report->outcome_digest = DigestOutcomes(expected);

  size_t srt_n = 0;
  size_t act_n = 0;
  size_t view_n = 0;
  size_t sessions = 0;
  for (const RoundSamples& r : plain) {
    srt_n += r.srt_ms.n();
    act_n += r.act_ms.n();
    view_n += r.view_ms.n();
    sessions += r.sessions;
  }
  auto srt = [](double q) {
    return [q](const RoundSamples& r) { return r.srt_ms.Quantile(q); };
  };
  auto act = [](double q) {
    return [q](const RoundSamples& r) { return r.act_ms.Quantile(q); };
  };
  report->Set("srt_p50_ms", MedianOver(plain, srt(0.5)), "ms", srt_n);
  report->Set("srt_p95_ms", MedianOver(plain, srt(0.95)), "ms", srt_n);
  report->Set("act_p50_ms", MedianOver(plain, act(0.5)), "ms", act_n);
  report->Set("act_p99_ms", MedianOver(plain, act(0.99)), "ms", act_n);
  report->Set("view_p50_ms",
              MedianOver(plain,
                               [](const RoundSamples& r) {
                                 return r.view_ms.Median();
                               }),
              "ms", view_n);
  const auto throughput = [](const RoundSamples& r) {
    return r.wall_s > 0 ? static_cast<double>(r.sessions) / r.wall_s : 0.0;
  };
  report->Set("sessions_per_s", MedianOver(plain, throughput), "1/s",
              sessions);

  const size_t attempted = std::max<size_t>(report->attempted, 1);
  report->Set("proc.cpu_ms_per_session",
              (usage1.cpu_seconds - usage0.cpu_seconds) * 1e3 / attempted,
              "ms", attempted);
  report->Set("proc.ctx_switches_per_session",
              static_cast<double>(usage1.context_switches -
                                  usage0.context_switches) /
                  attempted,
              "count", attempted);
  if (options.trace) {
    const std::vector<SpanRecord> spans = tracer.Collect();
    const RoundSamples& first = plain.front();
    ReportCoreLayer(spans, report->round_counts, first.cap_kib,
                    first.backlog_ms, first.drain_s, first.enum_s, report);
    const auto mean_wall = [](const RoundSamples& r) {
      return r.sessions ? r.wall_s / r.sessions : 0.0;
    };
    size_t traced_sessions = 0;
    for (const RoundSamples& r : traced) traced_sessions += r.sessions;
    report->Set("trace.overhead_pct",
                OverheadPct(MedianOver(traced, mean_wall),
                            MedianOver(plain, mean_wall)),
                "%", traced_sessions);
    WriteSpans(spans, options, report);
  }
  return 0;
}

}  // namespace perfbench
}  // namespace boomer
