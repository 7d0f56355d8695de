#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Captured during static initialisation, before main() runs.
const std::int64_t g_process_start = clock_ns(CLOCK_MONOTONIC);

}  // namespace

std::int64_t now_ns() noexcept { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}
std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
std::int64_t process_start_ns() noexcept { return g_process_start; }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image before exec (the launching interpreter's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ull) ^
                    (b * 0xc2b2ae3d27d4eb4full) ^ 0x632be59bd9b4e019ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::int64_t Tracer::open(const char* name, std::uint64_t op,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, parent, now_ns(), 0});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now_ns();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> us;
  for (const Span& s : spans_) {
    if (name == s.name) us.push_back(static_cast<double>(s.end - s.start) / 1e3);
  }
  return us;
}

double Tracer::quantile_us(const std::string& name, double q) const {
  std::vector<double> us = durations_us(name);
  return quantile(us, q);
}

double Tracer::total_us(const std::string& name) const {
  const std::vector<double> us = durations_us(name);
  return std::accumulate(us.begin(), us.end(), 0.0);
}

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  out << "name,op,parent,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.name << ',' << s.op << ',' << s.parent << ',' << s.start << ','
        << s.end << '\n';
  }
}

void report_traffic(Result& result, const fastcons::TrafficCounters& traffic,
                    double ops) {
  using fastcons::TrafficClass;
  const double per = ops > 0.0 ? 1.0 / ops : 0.0;
  result.layer("core.messages_per_op",
               static_cast<double>(traffic.total_messages()) * per, "count");
  result.layer("core.bytes_per_op",
               static_cast<double>(traffic.total_bytes()) * per, "B");
  for (const TrafficClass c :
       {TrafficClass::session_control, TrafficClass::session_payload,
        TrafficClass::fast_control, TrafficClass::fast_payload}) {
    std::string name(fastcons::traffic_class_name(c));
    std::replace(name.begin(), name.end(), '-', '_');
    result.layer("core.messages_per_op." + name,
                 static_cast<double>(traffic.messages(c)) * per, "count");
    result.layer("core.bytes_per_op." + name,
                 static_cast<double>(traffic.bytes(c)) * per, "B");
  }
}

}  // namespace perfbench
