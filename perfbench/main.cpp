// perfbench_session: runs one benchmark session (or the cold serial
// reference) and prints one JSON object on stdout. perfbench/run.py starts
// one process per session, so each session's peak RSS is its own.
//
//   perfbench_session session   --workload W --seed N --experiments N
//                               [--archive PATH] [--trace-out PATH]
//   perfbench_session reference --workload W --seed N --experiments N
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "adapter.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Digest;
using perfbench::SessionResult;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", value);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const SessionResult& r, const std::map<std::string, std::string>& extra) {
  std::string out = "{";
  out += "\"error\": " + Quote(r.error);
  out += ", \"experiments\": " + std::to_string(r.experiments);
  out += ", \"setup_s\": " + Number(r.setup_s);
  out += ", \"campaign_s\": " + Number(r.campaign_s);
  out += ", \"recovery_s\": " + Number(r.recovery_s);
  out += ", \"analysis_s\": " + Number(r.analysis_s);
  out += ", \"peak_rss_mb\": " + Number(PeakRssMb());
  out += ", \"build\": {\"compiler\": " + Quote(__VERSION__) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) + "}";
  const Digest& d = r.digest;
  out += ", \"digest\": {\"tables\": " + Hex(d.tables) +
         ", \"reference\": " + Hex(d.reference) +
         ", \"rows\": " + std::to_string(d.rows) + ", \"outcomes\": {";
  bool first = true;
  for (const auto& [name, count] : d.outcomes) {
    out += (first ? "" : ", ") + Quote(name) + ": " + std::to_string(count);
    first = false;
  }
  out += "}, \"experiments\": [";
  for (size_t i = 0; i < d.experiments.size(); ++i) {
    out += (i ? "," : "") + Hex(d.experiments[i]);
  }
  out += "]}, \"layers\": {";
  first = true;
  for (const auto& [name, value] : r.layers) {
    out += (first ? "" : ", ") + Quote(name) + ": " + Number(value);
    first = false;
  }
  out += "}";
  for (const auto& [key, value] : extra) out += ", " + Quote(key) + ": " + value;
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_session: %s\n"
               "usage: perfbench_session session|reference --workload W --seed N\n"
               "       --experiments N [--archive PATH] [--trace-out PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage(("bad option " + key).c_str());
    options[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage("option without a value");
  auto option = [&](const std::string& key, const std::string& fallback) {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  };

  perfbench::Workload workload;
  if (!perfbench::ParseWorkload(option("workload", ""), &workload)) {
    return Usage("unknown --workload");
  }
  const uint64_t seed = std::strtoull(option("seed", "1").c_str(), nullptr, 10);
  const int experiments = std::atoi(option("experiments", "0").c_str());
  if (experiments < 1) return Usage("--experiments must be at least 1");

  if (command == "reference") {
    const SessionResult result =
        perfbench::RunColdReference(workload, seed, experiments);
    PrintResult(result, {});
    return result.error.empty() ? 0 : 1;
  }
  if (command != "session") return Usage("unknown command");

  const std::string trace_out = option("trace-out", "");
  std::unique_ptr<perfbench::Tracer> tracer;
  if (!trace_out.empty()) tracer = std::make_unique<perfbench::Tracer>();

  perfbench::SessionConfig config;
  config.workload = workload;
  config.seed = seed;
  config.experiments = experiments;
  config.archive_path = option("archive", "perfbench.goofidb");
  config.tracer = tracer.get();
  SessionResult result = perfbench::RunSession(config);

  std::map<std::string, std::string> extra;
  if (tracer != nullptr && result.error.empty()) {
    result.error = perfbench::TimePlanPhases(workload, seed, experiments,
                                             tracer.get(), &result.layers);
    std::string error;
    if (result.error.empty() && !tracer->WriteChromeTrace(trace_out, &error)) {
      result.error = error;
    }
    extra["trace"] = "{\"path\": " + Quote(trace_out) +
                     ", \"lanes\": " + std::to_string(tracer->lanes()) +
                     ", \"spans\": " + std::to_string(tracer->spans_recorded()) +
                     ", \"spans_dropped\": " +
                     std::to_string(tracer->spans_dropped()) + "}";
  }
  PrintResult(result, extra);
  return result.error.empty() ? 0 : 1;
}
