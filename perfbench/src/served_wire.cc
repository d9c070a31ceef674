// The served-wire workload: net::Server + serve::SessionManager on loopback
// inside this process, driven by a closed-loop client.
//
// One client connection runs sessions back to back with zero think time:
// the next request goes out only when the previous reply is in. The server
// has one event loop and one worker. All three threads share one CPU (the
// highest-numbered one the process may use), so a request's path through
// client, event loop and worker is a series of context switches on it
// rather than wake-ups on other vCPUs, which a busy shared host may have
// descheduled. Run alternately with and without this on seeds 81-85, three
// of the five unpinned runs fell to 490-800 sessions/s with an SRT p95 of
// 1.8-3.2 ms, while the pinned ones held 1118-1456 sessions/s and
// 0.48-0.60 ms. With a second connection, an act that arrived while the
// other connection evicted or resumed waited for it, and act p99 followed
// those waits: over ten seeds it ranged 0.34-0.53 ms, against 0.17-0.20 ms
// with one. max_live exceeds the number of connections, so admission never
// refuses. Every 8th session is force-evicted after its 4th action and
// resumed over the wire.
//
// The WAL is off. With it on, the worker fsyncs whenever a session's queue
// drains, which a closed loop makes once per action, and on a shared
// virtual disk the runs then moved with other tenants' I/O: ten seeds
// served 384 to 1633 sessions/s and their SRT p95 spanned 0.85-7.6 ms.
// Eviction still writes (and resume reads) the session snapshot.
//
// The traces' latencies are measured in distance-query times and the
// blender runs with the model t_avg, as in process (see kLatencyPerTavg), so
// whether an edge is expensive does not depend on the host's speed.
//
// A round is a fixed list of serve::SeededTraces drawn from the seed. The
// clients take the next session from a shared dispenser that stops only at a
// window boundary (8 rounds), so every run serves whole rounds and the
// server's counters per round repeat exactly. Each session's results must
// equal an in-process Blender replay of the same trace.

#include <sched.h>
#include <sys/prctl.h>

#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/workload.h"

namespace boomer {
namespace perfbench {

namespace {

constexpr double kScale = 0.02;
/// Sessions per round: a multiple of the 3 templates and of kEvictEvery.
constexpr size_t kRoundSessions = 240;
/// Metrics are taken per window of rounds and reported as the median over
/// windows; a window holds enough sessions for its p95 and p99.
constexpr size_t kWindowRounds = 8;
constexpr size_t kWindowSessions = kRoundSessions * kWindowRounds;
constexpr size_t kMinWindows = 2;
constexpr size_t kEvictEvery = 8;
constexpr size_t kEvictAfterActions = 4;
constexpr size_t kConnections = 1;
constexpr size_t kViewsPerSession = 4;
constexpr int kSetupReps = 3;
/// Span session ids of the two in-process replays, apart from the wire's.
constexpr uint64_t kBlenderReplayIds = uint64_t{1} << 40;
constexpr uint64_t kManagerReplayIds = uint64_t{2} << 40;

struct Stack {
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<net::Server> server;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    manager.reset();
  }
};

serve::ServeOptions StackOptions(const std::string& snapshot_dir) {
  serve::ServeOptions options;
  options.num_workers = 1;
  options.max_live_sessions = 2 * kConnections;
  options.snapshot_dir = snapshot_dir;
  options.blender.t_lat_seconds = ScaledLatency(kModelTavgSeconds).edge_seconds;
  return options;
}

/// Starts the serving stack on `data`.
Status StartStack(const DataSet& data, const std::string& snapshot_dir,
                  std::unique_ptr<Stack>* stack) {
  *stack = std::make_unique<Stack>();
  (*stack)->manager = std::make_unique<serve::SessionManager>(
      *data.graph, *data.prep, StackOptions(snapshot_dir));
  (*stack)->server = std::make_unique<net::Server>((*stack)->manager.get(),
                                                   net::ServerOptions{});
  return (*stack)->server->Start();
}

/// `traces` with every latency measured in distance-query times, as in the
/// in-process workloads (see kLatencyPerTavg): SeededTraces draws them in
/// seconds of the Section 5.3 model.
std::vector<gui::ActionTrace> InModelTime(
    const std::vector<gui::ActionTrace>& traces) {
  const double factor = kLatencyPerTavg * kModelTavgSeconds;
  std::vector<gui::ActionTrace> scaled(traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    for (gui::Action a : traces[i].actions()) {
      a.latency_micros = static_cast<int64_t>(
          static_cast<double>(a.latency_micros) * factor);
      scaled[i].Append(a);
    }
  }
  return scaled;
}

/// Hands out session indices. It stops only at a window boundary, so every
/// run serves whole windows (and rounds), and only once the next window
/// would end further past the requested time than the run stands short of it.
class Dispenser {
 public:
  explicit Dispenser(double seconds) : seconds_(seconds) {}

  void Start() { start_ns_ = NowNs(); }

  std::optional<size_t> Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return std::nullopt;
    const size_t windows = next_ / kWindowSessions;
    if (next_ % kWindowSessions == 0 && windows >= kMinWindows) {
      const double elapsed = (NowNs() - start_ns_) * 1e-9;
      if (elapsed + elapsed / windows / 2 >= seconds_) {
        stopped_ = true;
        return std::nullopt;
      }
    }
    return next_++;
  }

  size_t issued() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

 private:
  const double seconds_;
  int64_t start_ns_ = 0;
  std::mutex mu_;
  size_t next_ = 0;
  bool stopped_ = false;
};

/// What the sessions of one window add up to, from one client or all.
struct WireSamples {
  Histogram srt_ms;
  Histogram act_ms;
  Histogram view_ms;
  Histogram open_us;
  Histogram poll_us;
  Histogram resume_ms;
  size_t polls = 0;
  size_t useful_polls = 0;
  size_t sessions = 0;
  double session_wall_s = 0.0;
  int64_t first_start_ns = INT64_MAX;
  int64_t last_end_ns = 0;

  void Merge(const WireSamples& o) {
    srt_ms.Merge(o.srt_ms);
    act_ms.Merge(o.act_ms);
    view_ms.Merge(o.view_ms);
    open_us.Merge(o.open_us);
    poll_us.Merge(o.poll_us);
    resume_ms.Merge(o.resume_ms);
    polls += o.polls;
    useful_polls += o.useful_polls;
    sessions += o.sessions;
    session_wall_s += o.session_wall_s;
    first_start_ns = std::min(first_start_ns, o.first_start_ns);
    last_end_ns = std::max(last_end_ns, o.last_end_ns);
  }
};

/// Waits for a terminal poll reply. The first re-poll goes out as soon as
/// the previous reply is in, later ones after a backoff of 10, 20, then 40
/// microseconds, which keeps two waiting clients from saturating the event
/// loop; every poll is counted.
StatusOr<net::PollReply> AwaitResults(net::Client* client, Tracer* tracer,
                                      uint64_t session, WireSamples* samples) {
  for (int attempt = 0;; ++attempt) {
    if (attempt >= 2) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(10 << std::min(attempt - 2, 2)));
    }
    Span span(tracer, "net.poll", session);
    const int64_t t0 = NowNs();
    auto reply = client->Poll();
    samples->poll_us.Add((NowNs() - t0) * 1e-3);
    ++samples->polls;
    if (!reply.ok() || !reply->active) {
      if (reply.ok()) ++samples->useful_polls;
      return reply;
    }
  }
}

SessionOutcome WireSession(net::Client* client, serve::SessionManager* manager,
                           const gui::ActionTrace& trace, size_t position,
                           uint64_t session, Tracer* tracer,
                           WireSamples* samples) {
  SessionOutcome out;
  Span session_span(tracer, "net.session", session);
  auto fail = [&](const std::string& what, const Status& st) {
    out.error = what + ": " + st.ToString();
    return out;
  };
  int64_t t0 = NowNs();
  StatusOr<serve::SessionId> id = Status::Internal("not opened");
  {
    Span span(tracer, "net.open", session);
    id = client->OpenSession();
  }
  samples->open_us.Add((NowNs() - t0) * 1e-3);
  if (!id.ok()) return fail("open", id.status());
  const bool evict = position % kEvictEvery == kEvictEvery - 1;
  const std::vector<gui::Action>& actions = trace.actions();
  for (size_t j = 0; j + 1 < actions.size(); ++j) {
    t0 = NowNs();
    Status st;
    {
      Span span(tracer, "net.act", session);
      st = client->SubmitAction(actions[j]);
    }
    samples->act_ms.Add((NowNs() - t0) * 1e-6);
    if (!st.ok()) return fail("act", st);
    if (!evict || j + 1 != kEvictAfterActions) continue;
    {
      Span span(tracer, "net.force_evict", session);
      st = manager->WaitIdle(*id);
      if (st.ok()) st = manager->EvictSession(*id);
    }
    if (!st.ok()) return fail("evict", st);
    auto evicted = client->Poll();
    if (!evicted.ok()) return fail("poll after evict", evicted.status());
    if (evicted->active || evicted->state != serve::SessionState::kEvicted) {
      out.error = "evicted session did not report its snapshot";
      return out;
    }
    st = client->CloseSession();
    if (!st.ok()) return fail("close evicted", st);
    t0 = NowNs();
    {
      Span span(tracer, "net.resume", session);
      id = client->ResumeSession(evicted->snapshot.prefix);
    }
    samples->resume_ms.Add((NowNs() - t0) * 1e-6);
    if (!id.ok()) return fail("resume", id.status());
  }
  // Wire SRT: from sending `act run` until the last result page arrives.
  t0 = NowNs();
  StatusOr<net::PollReply> reply = Status::Internal("not polled");
  {
    Span span(tracer, "net.run_wait", session);
    const Status st = client->SubmitAction(actions.back());
    if (!st.ok()) return fail("act run", st);
    reply = AwaitResults(client, tracer, session, samples);
  }
  samples->srt_ms.Add((NowNs() - t0) * 1e-6);
  if (!reply.ok()) return fail("poll", reply.status());
  if (reply->state != serve::SessionState::kCompleted || !reply->status.ok()) {
    out.error = std::string("ended ") + serve::SessionStateName(reply->state) +
                ": " + reply->status.ToString();
    return out;
  }
  const size_t views = std::min(kViewsPerSession, reply->results.size());
  for (size_t i = 0; i < views; ++i) {
    std::string body;
    t0 = NowNs();
    Status st;
    {
      Span span(tracer, "net.view", session);
      st = client->Call("results " + std::to_string(i) + " 1", &body);
    }
    samples->view_ms.Add((NowNs() - t0) * 1e-6);
    if (!st.ok()) return fail("view", st);
  }
  const Status st = client->CloseSession();
  if (!st.ok()) return fail("close", st);
  out.ok = true;
  out.results = reply->results.size();
  out.digest = DigestMatches(reply->results);
  ++samples->sessions;
  return out;
}

/// The in-process reference: the same trace through one Blender, with the
/// serving runtime's blender options. Records core spans when traced.
SessionOutcome BlenderReplay(const DataSet& data,
                             const core::BlenderOptions& options,
                             const gui::ActionTrace& trace, uint64_t session,
                             Tracer* tracer, Samples* run_ms,
                             Samples* cap_kib, Samples* backlog_ms,
                             double* drain_s, double* enum_s) {
  SessionOutcome out;
  core::Blender blender(*data.graph, *data.prep, options);
  for (const gui::Action& a : trace.actions()) {
    Span span(tracer, ActionSpanName(a.kind), session);
    const int64_t t0 = NowNs();
    const Status st = blender.OnAction(a);
    if (a.kind == gui::ActionKind::kRun) run_ms->Add((NowNs() - t0) * 1e-6);
    if (!st.ok()) {
      out.error = st.ToString();
      return out;
    }
  }
  const core::BlendReport& report = blender.report();
  if (report.truncated()) {
    out.error = "replay truncated";
    return out;
  }
  cap_kib->Add(static_cast<double>(report.cap_stats.size_bytes) / 1024.0);
  backlog_ms->Add(report.run_backlog_seconds * 1e3);
  *drain_s += report.run_drain_wall_seconds;
  *enum_s += report.enumeration_wall_seconds;
  out.ok = true;
  out.results = blender.Results().size();
  out.digest = DigestMatches(blender.Results());
  AddBlendCounts(report, &out.counts);
  return out;
}

/// Replays the cycle through SessionManager directly (no wire), timing each
/// call; gives the serve.* layer and the manager side of the SRT split.
void ManagerReplay(serve::SessionManager* manager,
                   const std::vector<gui::ActionTrace>& traces,
                   const std::vector<SessionOutcome>& expected, Tracer* tracer,
                   uint64_t first_session, Report* report) {
  for (size_t i = 0; i < traces.size(); ++i) {
    const uint64_t session = first_session + i;
    const std::vector<gui::Action>& actions = traces[i].actions();
    auto fail = [&](const std::string& what, const Status& st) {
      report->Fail("manager replay session " + std::to_string(i) + ": " +
                   what + ": " + st.ToString());
    };
    StatusOr<serve::SessionId> id = Status::Internal("not opened");
    {
      Span span(tracer, "serve.open", session);
      id = manager->OpenSession();
    }
    if (!id.ok()) return fail("open", id.status());
    const bool evict = i % kEvictEvery == kEvictEvery - 1;
    Status st;
    for (size_t j = 0; j < actions.size() && st.ok(); ++j) {
      {
        Span span(tracer, "serve.submit", session);
        st = manager->SubmitAction(*id, actions[j]);
      }
      if (st.ok() && j + 1 == actions.size()) {
        Span span(tracer, "serve.drain", session);
        st = manager->WaitIdle(*id);
      }
      if (!st.ok() || !evict || j + 1 != kEvictAfterActions) continue;
      st = manager->WaitIdle(*id);
      if (st.ok()) {
        Span span(tracer, "serve.evict", session);
        st = manager->EvictSession(*id);
      }
      auto snapshot = manager->GetEviction(*id);
      if (!snapshot.ok()) {
        st = snapshot.status();
        continue;
      }
      st = manager->CloseSession(*id);
      Span span(tracer, "serve.resume", session);
      if (st.ok()) id = manager->ResumeSession(snapshot->prefix);
      if (!id.ok()) st = id.status();
    }
    if (!st.ok()) return fail("submit", st);
    auto result = manager->PollSession(*id);
    if (!result.ok()) return fail("poll", result.status());
    StatusOr<std::vector<core::PartialMatch>> page =
        Status::Internal("not paged");
    {
      Span span(tracer, "serve.results", session);
      page = manager->SessionResults(*id, 0, result->results.size() + 1);
    }
    if (!page.ok()) return fail("results", page.status());
    if (page->size() != expected[i].results ||
        DigestMatches(*page) != expected[i].digest) {
      report->Fail("manager replay session " + std::to_string(i) +
                   ": results differ from the Blender replay");
    }
    Span span(tracer, "serve.close", session);
    st = manager->CloseSession(*id);
    if (!st.ok()) return fail("close", st);
  }
}

}  // namespace

int RunServedWire(const Options& options, Report* report) {
  namespace fs = std::filesystem;
  // One CPU for every thread this workload starts: they inherit the mask.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    int last = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &cpus)) last = c;
    }
    CPU_ZERO(&cpus);
    CPU_SET(last, &cpus);
  }
  if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
    report->notes.push_back("could not keep served-wire on one CPU");
  }
  const std::string snapshot_dir = options.work_dir + "/served-wire-snapshots";
  std::error_code ec;
  fs::remove_all(snapshot_dir, ec);
  fs::create_directories(snapshot_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", snapshot_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // Set-up, repeated: the data set, then the serving stack on top of it.
  // Repetition i's time is data set i's plus Server::Start on it; the
  // stack is started on the kept (last) data set, which the timing of an
  // earlier data set stands in for. The measured stack is started once
  // more, untimed, after the blender's t_avg is set to the model's.
  SetupTimes setup;
  const graph::DatasetSpec spec{graph::DatasetKind::kDblp, kScale,
                                kDataSetSeed};
  auto data_or = BuildDataSet(spec, kSetupReps, options.trace, &setup);
  if (!data_or.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 data_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Stack> stack;
  Samples setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const int64_t t0 = NowNs();
    const Status started = StartStack(*data_or, snapshot_dir, &stack);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    setup_s.Add(setup.total_s.values()[rep] + (NowNs() - t0) * 1e-9);
  }
  setup.total_s = setup_s;
  DataSet& data = *data_or;
  report->t_avg_us = data.prep->t_avg_seconds() * 1e6;
  ReportSetupLayers(setup, data, options, report);
  stack.reset();
  Status restarted =
      UseModelTavg(&data, options.work_dir + "/served-wire-model", report);
  if (restarted.ok()) restarted = StartStack(data, snapshot_dir, &stack);
  if (!restarted.ok()) {
    std::fprintf(stderr, "restarting with the model t_avg failed: %s\n",
                 restarted.ToString().c_str());
    return 2;
  }
  serve::SessionManager* manager = stack->manager.get();

  // The in-process Blender replay of every trace: the expected results, and
  // in traced runs the core layer and the Blender side of the SRT split.
  const std::vector<gui::ActionTrace> traces = InModelTime(
      serve::SeededTraces(*data.graph, kRoundSessions, Mix(options.seed, 7)));
  const core::BlenderOptions blender_options =
      StackOptions(snapshot_dir).blender;
  Tracer tracer;
  std::vector<SessionOutcome> expected;
  Samples replay_run_ms;
  Samples cap_kib;
  Samples backlog_ms;
  double drain_s = 0.0;
  double enum_s = 0.0;
  for (size_t i = 0; i < traces.size(); ++i) {
    expected.push_back(BlenderReplay(
        data, blender_options, traces[i], kBlenderReplayIds + i,
        options.trace ? &tracer : nullptr, &replay_run_ms, &cap_kib,
        &backlog_ms, &drain_s, &enum_s));
    if (!expected.back().ok) {
      report->Fail("blender replay session " + std::to_string(i) + ": " +
                   expected.back().error);
    }
  }
  for (const SessionOutcome& o : expected) {
    for (const auto& [name, value] : o.counts) {
      report->round_counts[name] += value;
    }
  }

  // The closed loop. Each client keeps its own per-window samples.
  Dispenser dispenser(options.seconds);
  std::vector<std::vector<WireSamples>> per_client(kConnections);
  std::vector<std::vector<std::string>> client_failures(kConnections);
  std::vector<size_t> client_attempted(kConnections, 0);
  const uint16_t port = stack->server->port();
  const ProcUsage usage0 = ReadProcUsage();
  dispenser.Start();
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        // Microsecond backoff needs microsecond timers: the default 50 us
        // timer slack would round every backoff up to it.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        net::Client client;
        net::ClientOptions client_options;
        client_options.port = port;
        const Status connected = client.Connect(client_options);
        if (!connected.ok()) {
          client_failures[c].push_back("connect: " + connected.ToString());
          return;
        }
        std::vector<WireSamples>& windows = per_client[c];
        while (std::optional<size_t> index = dispenser.Next()) {
          const size_t position = *index % kRoundSessions;
          const size_t window = *index / kWindowSessions;
          if (windows.size() <= window) windows.resize(window + 1);
          WireSamples& samples = windows[window];
          // Traced runs alternate plain and traced windows.
          const bool traced = options.trace && window % 2 == 1;
          const int64_t t0 = NowNs();
          SessionOutcome got =
              WireSession(&client, manager, traces[position], position,
                          *index + 1, traced ? &tracer : nullptr, &samples);
          const int64_t t1 = NowNs();
          samples.session_wall_s += (t1 - t0) * 1e-9;
          samples.first_start_ns = std::min(samples.first_start_ns, t0);
          samples.last_end_ns = std::max(samples.last_end_ns, t1);
          ++client_attempted[c];
          std::string why;
          if (!got.ok) {
            why = "session failed: " + got.error;
          } else if (got.results != expected[position].results ||
                     got.digest != expected[position].digest) {
            why = "results differ from the Blender replay (" +
                  std::to_string(got.results) + " vs " +
                  std::to_string(expected[position].results) + " matches)";
          }
          if (!why.empty()) {
            client_failures[c].push_back(
                "session " + std::to_string(position) + " round " +
                std::to_string(*index / kRoundSessions) + ": " + why);
          }
          if (!got.ok) break;  // the connection may be unusable
        }
      });
    }
  }
  const ProcUsage usage1 = ReadProcUsage();
  const size_t served = dispenser.issued();
  const size_t rounds = served / kRoundSessions;

  std::vector<WireSamples> windows(served / kWindowSessions);
  for (size_t c = 0; c < kConnections; ++c) {
    for (size_t w = 0; w < per_client[c].size() && w < windows.size(); ++w) {
      windows[w].Merge(per_client[c][w]);
    }
    report->attempted += client_attempted[c];
    for (const std::string& why : client_failures[c]) report->Fail(why);
  }
  if (report->attempted != served) {
    report->Fail("a client stopped early: " +
                 std::to_string(report->attempted) + " of " +
                 std::to_string(served) + " sessions attempted");
  }

  // The serving stack's own counters must account for exactly the sessions
  // served: whole rounds, each with the same evictions and WAL records.
  const serve::ServeStats serve_stats = manager->stats();
  const net::NetStats net_stats = stack->server->stats();
  const uint64_t rejected =
      serve_stats.admission_rejected + serve_stats.actions_rejected;
  const uint64_t evictions_per_round = kRoundSessions / kEvictEvery;
  if (rejected != 0) {
    report->Fail("serve.rejected moved: 0 -> " + std::to_string(rejected));
  }
  if (serve_stats.evictions != rounds * evictions_per_round) {
    report->Fail("serve.evictions moved: " +
                 std::to_string(rounds * evictions_per_round) + " -> " +
                 std::to_string(serve_stats.evictions));
  }
  if (serve_stats.wal_records != 0) {
    report->Fail("serve.wal_records moved: 0 -> " +
                 std::to_string(serve_stats.wal_records));
  }
  if (net_stats.protocol_errors != 0) {
    report->Fail("net.protocol_errors moved: 0 -> " +
                 std::to_string(net_stats.protocol_errors));
  }
  report->round_counts["serve.wal_records"] = 0;
  report->round_counts["serve.evictions"] = evictions_per_round;
  report->round_counts["serve.rejected"] = 0;
  report->outcome_digest = DigestOutcomes(expected);
  report->rounds = rounds;
  report->round_sessions = kRoundSessions;

  std::vector<WireSamples> plain;
  std::vector<WireSamples> traced;
  WireSamples all;
  for (size_t w = 0; w < windows.size(); ++w) {
    const WireSamples& win = windows[w];
    const bool traced_window = options.trace && w % 2 == 1;
    (traced_window ? traced : plain).push_back(win);
    all.Merge(win);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "window %zu%s: srt_p50=%.4g srt_p95=%.4g act_p50=%.4g "
                  "act_p99=%.4g ms, %.4g sessions/s",
                  w, traced_window ? " (traced)" : "", win.srt_ms.Median(),
                  win.srt_ms.Quantile(0.95), win.act_ms.Median(),
                  win.act_ms.Quantile(0.99),
                  win.sessions /
                      ((win.last_end_ns - win.first_start_ns) * 1e-9));
    report->notes.push_back(line);
  }
  auto quantile = [](Histogram WireSamples::*field, double q) {
    return [field, q](const WireSamples& w) { return (w.*field).Quantile(q); };
  };
  report->Set("srt_p50_ms",
              MedianOver(plain, quantile(&WireSamples::srt_ms, 0.5)),
              "ms", all.srt_ms.n());
  report->Set("srt_p95_ms",
              MedianOver(plain, quantile(&WireSamples::srt_ms, 0.95)),
              "ms", all.srt_ms.n());
  report->Set("act_p50_ms",
              MedianOver(plain, quantile(&WireSamples::act_ms, 0.5)),
              "ms", all.act_ms.n());
  report->Set("act_p99_ms",
              MedianOver(plain, quantile(&WireSamples::act_ms, 0.99)),
              "ms", all.act_ms.n());
  report->Set("view_p50_ms",
              MedianOver(plain, quantile(&WireSamples::view_ms, 0.5)),
              "ms", all.view_ms.n());
  report->Set("sessions_per_s",
              MedianOver(plain,
                                [](const WireSamples& w) {
                                  return w.sessions /
                                         ((w.last_end_ns - w.first_start_ns) *
                                          1e-9);
                                }),
              "1/s", all.sessions);
  const size_t sessions = std::max<size_t>(served, 1);
  report->Set("proc.cpu_ms_per_session",
              (usage1.cpu_seconds - usage0.cpu_seconds) * 1e3 / sessions, "ms",
              sessions);
  report->Set("proc.ctx_switches_per_session",
              static_cast<double>(usage1.context_switches -
                                  usage0.context_switches) /
                  sessions,
              "count", sessions);

  if (options.trace) {
    // The manager-direct replay runs after the wire loop, whose counters
    // were read above, so neither disturbs the other.
    ManagerReplay(manager, traces, expected, &tracer, kManagerReplayIds,
                  report);
    const std::vector<SpanRecord> spans = tracer.Collect();
    ReportCoreLayer(spans, report->round_counts, cap_kib, backlog_ms, drain_s,
                    enum_s, report);
    const Samples open = Tracer::Durations(spans, "serve.open", 1e-3);
    const Samples submit = Tracer::Durations(spans, "serve.submit", 1e-3);
    const Samples drain = Tracer::Durations(spans, "serve.drain", 1e-6);
    const Samples results = Tracer::Durations(spans, "serve.results", 1e-3);
    const Samples evict = Tracer::Durations(spans, "serve.evict", 1e-6);
    const Samples resume = Tracer::Durations(spans, "serve.resume", 1e-6);
    const Samples close = Tracer::Durations(spans, "serve.close", 1e-3);
    report->Set("serve.open_p50_us", open.Median(), "us", open.n());
    report->Set("serve.submit_p50_us", submit.Median(), "us", submit.n());
    report->Set("serve.submit_p99_us", submit.Quantile(0.99), "us",
                submit.n());
    report->Set("serve.drain_p50_ms", drain.Median(), "ms", drain.n());
    report->Set("serve.drain_p95_ms", drain.Quantile(0.95), "ms", drain.n());
    report->Set("serve.results_p50_us", results.Median(), "us", results.n());
    report->Set("serve.evict_p50_ms", evict.Median(), "ms", evict.n());
    report->Set("serve.resume_p50_ms", resume.Median(), "ms", resume.n());
    report->Set("serve.close_p50_us", close.Median(), "us", close.n());
    report->Set("serve.wal_records",
                static_cast<double>(serve_stats.wal_records), "count", served);
    report->Set("serve.evictions", static_cast<double>(evictions_per_round),
                "count", rounds);
    report->Set("serve.rejected", static_cast<double>(rejected), "count",
                served);
    report->Set("net.open_rtt_us", all.open_us.Median(), "us",
                all.open_us.n());
    report->Set("net.poll_rtt_us", all.poll_us.Median(), "us",
                all.poll_us.n());
    report->Set("net.resume_rtt_ms", all.resume_ms.Median(), "ms",
                all.resume_ms.n());
    report->Set("net.polls_per_session",
                static_cast<double>(all.polls) / sessions, "count", sessions);
    report->Set("net.poll_useful_frac",
                all.polls ? static_cast<double>(all.useful_polls) / all.polls
                          : 0.0,
                "frac", all.polls);
    report->Set("net.frames_in",
                static_cast<double>(net_stats.frames_in) / sessions, "count",
                sessions);
    report->Set("net.frames_out",
                static_cast<double>(net_stats.frames_out) / sessions, "count",
                sessions);
    report->Set("net.protocol_errors",
                static_cast<double>(net_stats.protocol_errors), "count",
                sessions);
    report->Set("split.net_p50_ms", all.srt_ms.Median() - drain.Median(), "ms",
                all.srt_ms.n());
    report->Set("split.serve_p50_ms", drain.Median() - replay_run_ms.Median(),
                "ms", drain.n());
    const auto mean_wall = [](const WireSamples& w) {
      return w.sessions ? w.session_wall_s / w.sessions : 0.0;
    };
    size_t traced_sessions = 0;
    for (const WireSamples& w : traced) traced_sessions += w.sessions;
    report->Set("trace.overhead_pct",
                OverheadPct(MedianOver(traced, mean_wall),
                            MedianOver(plain, mean_wall)),
                "%", traced_sessions);
    WriteSpans(spans, options, report);
  }
  stack.reset();
  fs::remove_all(snapshot_dir, ec);
  return 0;
}

}  // namespace perfbench
}  // namespace boomer
