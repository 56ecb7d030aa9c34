#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "bench.h"

namespace perfbench {

void Report::EndToEnd(const std::string& name, double value, const char* unit,
                      std::uint64_t samples, std::string note) {
  end_to_end.push_back(Metric{name, value, unit, samples, std::move(note)});
}

void Report::Layer(const std::string& name, double value, const char* unit,
                   std::uint64_t samples, std::string note) {
  per_layer.push_back(Metric{name, value, unit, samples, std::move(note)});
}

void Report::Error(std::string message) {
  // Keep the first few messages verbatim; the count is what gates.
  if (errors.size() < 20) errors.push_back(std::move(message));
  else if (errors.size() == 20) errors.push_back("... further errors elided");
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const double v : samples) total += v;
  summary.mean = total / static_cast<double>(samples.size());
  summary.p50 = SortedQuantile(samples, 0.5);
  // At least ten samples must lie beyond the reported tail quantile.
  const double n = static_cast<double>(samples.size());
  summary.tail_quantile = n >= 20.0 ? std::min(0.99, 1.0 - 10.0 / n) : 1.0;
  summary.p99 = SortedQuantile(samples, summary.tail_quantile);
  return summary;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, 0.5);
}

namespace {

/// 10th percentile of a sample set: the least-disturbed value of
/// repeated identical work, since host interference only ever slows it.
double LeastDisturbed(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, 0.1);
}

}  // namespace

void SetupSamples::Add(Clock::time_point start, Clock::time_point extracted,
                       Clock::time_point built) {
  extract_ms.push_back(MsBetween(start, extracted));
  build_ms.push_back(MsBetween(extracted, built));
}

void SetupSamples::ReportTo(const char* build_layer, Report& report) const {
  std::vector<double> total_s;
  for (std::size_t i = 0; i < extract_ms.size(); ++i) {
    total_s.push_back((extract_ms[i] + build_ms[i]) / 1e3);
  }
  const std::uint64_t reps = extract_ms.size();
  report.EndToEnd("setup_s", LeastDisturbed(std::move(total_s)), "s", reps);
  report.Layer("core.feature_cache.gallery_extract_ms",
               LeastDisturbed(extract_ms), "ms", reps);
  report.Layer(build_layer, LeastDisturbed(build_ms), "ms", reps);
}

std::string TailNote(const Summary& summary) {
  if (summary.tail_quantile >= 0.99) return {};
  char buf[64];
  std::snprintf(buf, sizeof buf, "tail thin: reported p%.1f",
                summary.tail_quantile * 100.0);
  return buf;
}

BlockStats LeastDisturbedBlocks(const std::vector<double>& end_s,
                                const std::vector<double>& latency_ms,
                                std::size_t per_block) {
  BlockStats stats;
  stats.blocks = per_block > 0 ? end_s.size() / per_block : 0;
  if (stats.blocks == 0) {
    // Shorter than one block: the whole window is the only block.
    stats.p50_ms = Median(latency_ms);
    stats.rate_per_s = end_s.empty() ? 0.0 : end_s.size() / end_s.back();
    return stats;
  }
  std::vector<double> block_p50, block_rate;
  for (std::size_t b = 0; b < stats.blocks; ++b) {
    const std::size_t first = b * per_block;
    const std::size_t last = first + per_block;  // exclusive
    block_p50.push_back(Median(std::vector<double>(
        latency_ms.begin() + first, latency_ms.begin() + last)));
    const double began = first == 0 ? 0.0 : end_s[first - 1];
    block_rate.push_back(static_cast<double>(per_block) /
                         (end_s[last - 1] - began));
  }
  std::sort(block_p50.begin(), block_p50.end());
  std::sort(block_rate.begin(), block_rate.end());
  stats.p50_ms = SortedQuantile(block_p50, 0.1);
  stats.rate_per_s = SortedQuantile(block_rate, 0.9);
  return stats;
}

TailStats LeastDisturbedTail(const std::vector<double>& latency_ms) {
  constexpr std::size_t kBlock = 1000;
  TailStats stats;
  stats.blocks = latency_ms.size() / kBlock;
  const Summary whole = Summarize(latency_ms);
  if (stats.blocks < 2) {
    stats.p99_ms = whole.p99;
    stats.note = TailNote(whole);
    return stats;
  }
  std::vector<double> block_p99;
  for (std::size_t b = 0; b < stats.blocks; ++b) {
    block_p99.push_back(Summarize(std::vector<double>(
        latency_ms.begin() + b * kBlock,
        latency_ms.begin() + (b + 1) * kBlock)).p99);
  }
  std::sort(block_p99.begin(), block_p99.end());
  stats.p99_ms = SortedQuantile(block_p99, 0.25);
  stats.note = std::to_string(stats.blocks) + " blocks; whole window " +
               std::to_string(whole.p99);
  return stats;
}

namespace {

/// A "VmXXX:  <n> kB" field of /proc/self/status in MiB, or -1.
double ProcStatusMb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

}  // namespace

bool PeakRss::Start() {
  malloc_trim(0);
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return false;
  const bool reset = std::fputs("5", clear) >= 0;
  if (std::fclose(clear) != 0 || !reset) return false;
  baseline_mb_ = ProcStatusMb("VmRSS");
  return baseline_mb_ >= 0.0;
}

double PeakRss::GrowthMb() const {
  return ProcStatusMb("VmHWM") - baseline_mb_;
}

double HostReferenceMs() {
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    times.push_back(MsBetween(start, Clock::now()));
  }
  return Median(std::move(times));
}

}  // namespace perfbench
