// Shared plumbing of the benchmark binary (fastcons_perf): command-line arguments, clocks,
// order statistics, the in-memory span recorder and the result record that
// main() prints as one JSON line.
#ifndef FASTCONS_PERFBENCH_BENCH_HPP
#define FASTCONS_PERFBENCH_BENCH_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/counters.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable state and the span dump.
  std::string workdir = ".";
};

/// Monotonic wall clock and CPU clocks, nanoseconds.
std::int64_t now_ns() noexcept;
std::int64_t thread_cpu_ns() noexcept;
std::int64_t process_cpu_ns() noexcept;

/// Monotonic instant taken during static initialisation, i.e. at process
/// start; set-up times are measured from it.
std::int64_t process_start_ns() noexcept;

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Order statistic by linear interpolation; q in [0, 1]. Sorts `v`.
double quantile(std::vector<double>& v, double q);

/// splitmix64 finaliser: derives independent seeds from (seed, a, b).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Spans kept in memory for the traced run and written out at the end.
/// Each span has a name, a start, an end, the index of the span that
/// caused it (-1 for a root) and the id of the trial, round or write it
/// belongs to. Recording is a no-op when the tracer is disabled, so the
/// untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t op, std::int64_t parent = -1);
  void close(std::int64_t span);

  /// Quantile q of the durations of every span called `name`, in
  /// microseconds (0 when there is none).
  double quantile_us(const std::string& name, double q) const;
  /// Summed durations of every span called `name`, in microseconds.
  double total_us(const std::string& name) const;
  std::size_t size() const noexcept { return spans_.size(); }

  /// Writes one line per span: name,op,parent,start_ns,end_ns.
  void dump(const std::string& path) const;

 private:
  std::vector<double> durations_us(const std::string& name) const;

  struct Span {
    const char* name;
    std::uint64_t op;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op,
        std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.open(name, op, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run produced. Any recorded violation makes the run
/// fail.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Digest of the deterministic per-trial results of a fixed prefix of the
  /// run (equal across traced and untraced runs of one seed).
  std::string results_digest;

  /// Records `violation` unless it is empty (checks.hpp convention).
  void require(const std::string& violation) {
    if (violation.empty()) return;
    if (violations.size() < 20) violations.push_back(violation);
    correct = false;
  }
  bool correct = true;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Reports core.messages_per_op / core.bytes_per_op, in total and split by
/// the four replication traffic classes, for `traffic` spread over `ops`.
void report_traffic(Result& result, const fastcons::TrafficCounters& traffic,
                    double ops);

Result run_fig5(const Args& args);
Result run_stream(const Args& args);
Result run_live(const Args& args);

/// Feeds every correctness check a deliberately wrong input; returns the
/// number of checks that failed to reject it (0 = all negative cases pass).
int run_negative_cases();

}  // namespace perfbench

#endif  // FASTCONS_PERFBENCH_BENCH_HPP
