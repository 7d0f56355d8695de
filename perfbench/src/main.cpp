// fastcons_perf: runs one benchmark workload and prints its result as one
// JSON line on stdout (progress and errors go to stderr).
//
//   fastcons_perf --workload sim-fig5|sim-stream|live-mesh --seed N
//                 --seconds S --trace 0|1 --workdir DIR
//   fastcons_perf --negative
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[40];
    // A ratio over an empty set reads 0, not NaN (JSON has no NaN).
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ",";
    out += json_string(m.name) + ":{\"value\":" + value +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

void print_result(const Result& r) {
  std::string violations = "[";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    if (i > 0) violations += ",";
    violations += json_string(r.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"violations\":%s,"
      "\"digest\":%s,\"end_to_end\":%s,\"layers\":%s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), violations.c_str(),
      json_string(r.results_digest).c_str(), json_metrics(r.end_to_end).c_str(),
      json_metrics(r.layers).c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: fastcons_perf --workload sim-fig5|sim-stream|live-mesh "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       fastcons_perf --negative\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--negative") {
      return perfbench::run_negative_cases() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();
  try {
    std::filesystem::create_directories(args.workdir);
    Result result;
    if (args.workload == "sim-fig5") {
      result = perfbench::run_fig5(args);
    } else if (args.workload == "sim-stream") {
      result = perfbench::run_stream(args);
    } else if (args.workload == "live-mesh") {
      result = perfbench::run_live(args);
    } else {
      return usage();
    }
    result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fastcons_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
