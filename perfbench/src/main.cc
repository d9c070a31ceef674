// boomer_perfbench: runs one benchmark workload and prints its metrics.
//
//   boomer_perfbench --workload <wordnet-blend|dblp-edit|served-wire>
//                    --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// The last line of standard output is one JSON object: the output-check
// verdict, sessions attempted and failed, the work counts of one session
// round, and every metric with its unit and sample count. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// taken from spans this binary records around its calls into the program.
// perfbench/run.py builds this binary and wraps it.

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/metrics.h"

namespace boomer {
namespace perfbench {
namespace {

const char* const kEndToEnd[] = {
    "srt_p50_ms",     "srt_p95_ms",  "act_p50_ms", "act_p99_ms",
    "sessions_per_s", "view_p50_ms", "setup_s",    "peak_rss_mib",
    "ok_frac",
};

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: boomer_perfbench --workload "
               "<wordnet-blend|dblp-edit|served-wire> --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();
  // End-to-end numbers come from runs with the program's own metrics
  // registry disarmed, whatever the environment says.
  obs::Disable();

  Report report;
  int rc = 0;
  if (options.workload == "wordnet-blend" || options.workload == "dblp-edit") {
    rc = RunBlendWorkload(options, &report);
  } else if (options.workload == "served-wire") {
    rc = RunServedWire(options, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;

  const size_t attempted = report.attempted;
  const size_t ok = attempted - std::min(report.failed, attempted);
  report.Set("ok_frac",
             attempted
                 ? static_cast<double>(ok) / static_cast<double>(attempted)
                 : 0.0,
             "frac", attempted);
  report.Set("peak_rss_mib", std::max(report.setup_peak_rss_mib, PeakRssMib()),
             "MiB", 1);

  std::vector<std::pair<std::string, std::string>> wanted;
  if (options.trace) {
    wanted = PerLayerMetrics();
  } else {
    for (const char* name : kEndToEnd) {
      wanted.emplace_back(name, report.metrics.count(name)
                                    ? report.metrics[name].unit
                                    : std::string("?"));
    }
  }

  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& why : report.failures) {
    std::printf("FAILED %s\n", why.c_str());
  }
  std::printf("%-32s %14s %-6s %s\n", "metric", "value", "unit", "samples");
  std::string metrics_json;
  for (const auto& [name, unit] : wanted) {
    Report::Metric m;
    m.unit = unit;
    auto it = report.metrics.find(name);
    if (it != report.metrics.end()) m = it->second;
    std::printf("%-32s %14.6g %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.n);
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " + Number(m.value) +
                    ", \"unit\": " + JsonString(m.unit) +
                    ", \"n\": " + std::to_string(m.n) + "}";
  }
  std::string counts_json;
  for (const auto& [name, value] : report.round_counts) {
    if (!counts_json.empty()) counts_json += ", ";
    counts_json += JsonString(name) + ": " + std::to_string(value);
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, report.outcome_digest);
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"build_type\": \"%s\", \"t_avg_us\": %s, \"rounds\": %zu, "
      "\"round_sessions\": %zu, "
      "\"outcome_digest\": \"%s\", \"counts\": {%s}, \"metrics\": {%s}}\n",
      JsonString(options.workload).c_str(), options.seed,
      report.failed == 0 ? "true" : "false", report.attempted, report.failed,
      PERFBENCH_BUILD_TYPE, Number(report.t_avg_us).c_str(), report.rounds,
      report.round_sessions,
      digest, counts_json.c_str(), metrics_json.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
}  // namespace boomer

int main(int argc, char** argv) { return boomer::perfbench::Main(argc, argv); }
