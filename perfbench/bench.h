#ifndef SNOR_PERFBENCH_BENCH_H_
#define SNOR_PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark: run configuration, the
// metric report, sample statistics, and the benchmark-side span log.
// Everything here times the program's public calls from the outside;
// nothing is compiled into the snor libraries.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \brief Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured window length; the traced run splits it into an untraced
  /// and a traced half.
  double seconds = 10.0;
  bool trace = false;
  /// Self-check mode: small inputs and few set-up repetitions.
  bool quick = false;
};

/// \brief One reported number with its unit and the sample count behind
/// it (1 for a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
  /// Human-readable qualifier printed next to the value (e.g. which
  /// percentile a tail metric had to fall back to); never in the JSON.
  std::string note;
};

/// \brief Everything one run reports. End-to-end metrics go into the
/// final JSON line of an untraced run, per-layer metrics into that of a
/// traced run; both are always printed in the human-readable table.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Operations attempted in the measured window(s) and those whose
  /// output was wrong or that errored unexpectedly.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Label comparisons against the cold references, and exactly-once
  /// reconciliations, actually performed.
  std::uint64_t label_checks = 0;
  std::uint64_t accounting_checks = 0;
  /// Invariant violations (label mismatch details, accounting breaks).
  std::vector<std::string> errors;

  void EndToEnd(const std::string& name, double value, const char* unit,
                std::uint64_t samples = 1, std::string note = {});
  void Layer(const std::string& name, double value, const char* unit,
             std::uint64_t samples = 1, std::string note = {});
  void Error(std::string message);
};

/// \brief A sample set's median and tail. `tail_quantile` is the quantile
/// actually reported as "p99": 0.99 when at least ten samples lie beyond
/// it, otherwise the highest quantile that still has ten beyond it (or
/// the maximum for tiny sets) so a tail figure never rests on a handful
/// of samples.
struct Summary {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_quantile = 0.99;
  double mean = 0.0;
};

[[nodiscard]] Summary Summarize(std::vector<double> samples);
/// Linear-interpolated quantile of a sorted sample set.
[[nodiscard]] double SortedQuantile(const std::vector<double>& sorted,
                                    double q);
[[nodiscard]] double Median(std::vector<double> samples);
/// Note text for a tail metric whose quantile fell back below p99.
[[nodiscard]] std::string TailNote(const Summary& summary);

/// \brief Statistics of a closed loop's least-disturbed stretches.
///
/// Host interference on a shared machine only ever slows a run, and it
/// arrives in episodes lasting seconds. The operations are cut into
/// consecutive blocks of `per_block` (a trailing partial block is
/// dropped). With `per_block` equal to the length of the input cycle,
/// every block does identical work, so blocks differ only by
/// interference. `p50_ms` is the 10th percentile over blocks of each
/// block's median latency, and `rate_per_s` the 90th percentile over
/// blocks of each block's operations per wall second. A change to the
/// program moves every block; an episode of interference moves only some.
struct BlockStats {
  double p50_ms = 0.0;
  double rate_per_s = 0.0;
  std::uint64_t blocks = 0;
};

/// `end_s[i]` is when operation i completed (seconds from window start)
/// and `latency_ms[i]` its latency, both in completion order.
[[nodiscard]] BlockStats LeastDisturbedBlocks(
    const std::vector<double>& end_s, const std::vector<double>& latency_ms,
    std::size_t per_block);

/// \brief Tail latency of a run's least-disturbed stretches.
///
/// The latencies, in operation order, are cut into consecutive blocks of
/// 1000 (a trailing partial block is dropped), so that ten samples lie
/// beyond each block's p99. `p99_ms` is the lower quartile over blocks of
/// each block's p99: an episode of host interference inflates the tail of
/// the blocks it touches, while a change to the program moves every block.
/// With fewer than two blocks it is the whole set's tail (Summarize).
/// `note` gives the block count and the whole set's p99, or which
/// quantile the whole set's tail fell back to.
struct TailStats {
  double p99_ms = 0.0;
  std::uint64_t blocks = 0;
  std::string note;
};

[[nodiscard]] TailStats LeastDisturbedTail(
    const std::vector<double>& latency_ms);

/// The approach every workload runs: the paper's best hybrid (Hu L3 +
/// Hellinger, weighted sum, alpha 0.3 / beta 0.7), all program defaults.
inline snor::ApproachSpec HybridSpec() {
  snor::ApproachSpec spec;
  spec.kind = snor::ApproachSpec::Kind::kHybrid;
  return spec;
}

/// \brief Timings of the repeated program set-up: gallery extraction, then
/// classifier or service construction. A workload sets up in two bursts,
/// one before and one after its window, so that the least-disturbed
/// repetition is drawn from the whole run rather than from one moment.
struct SetupSamples {
  std::vector<double> extract_ms;
  std::vector<double> build_ms;

  void Add(Clock::time_point start, Clock::time_point extracted,
           Clock::time_point built);
  /// Reports `setup_s` (the least-disturbed repetition's total), the
  /// extraction layer, and the construction layer named `build_layer`.
  void ReportTo(const char* build_layer, Report& report) const;
};

/// \brief Peak resident set of the program, net of the benchmark's inputs.
///
/// `Start()` runs after the inputs and references exist: it returns the
/// heap's free pages to the OS, resets the kernel's high-water mark
/// (/proc/self/clear_refs) and records the resident set. `GrowthMb()` is
/// the high-water mark since then minus that baseline, so it counts what
/// the program allocates in set-up and in the window, not the inputs that
/// stay resident throughout.
class PeakRss {
 public:
  /// False when the high-water mark cannot be reset.
  [[nodiscard]] bool Start();
  [[nodiscard]] double GrowthMb() const;

 private:
  double baseline_mb_ = 0.0;
};

/// Median wall time (ms) of a fixed benchmark-owned integer loop: a host
/// speed reference that shows slow-host runs. Diagnostic only.
[[nodiscard]] double HostReferenceMs();

/// \brief Benchmark-side layer span names (one per public call timed).
enum class SpanKind : std::uint8_t {
  kFrame,         // one patrol frame, end to end
  kSegment,       // SegmentFrame
  kFeatures,      // ComputeFeatures on one region
  kClassify,      // MatchingClassifier::Classify on one region
  kSubmit,        // RecognitionService::Submit call
  kRequest,       // Submit start -> reply observed
};

/// \brief One span: the operation it belongs to, its kind, and its wall
/// interval.
struct Span {
  std::uint64_t op = 0;
  SpanKind kind = SpanKind::kFrame;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// \brief Per-thread, in-memory span log. Spans are appended while the
/// traced window runs and read once after it ends; a disabled log
/// records nothing and costs one branch per span.
class SpanLog {
 public:
  void Enable(std::size_t expected) {
    enabled_ = true;
    spans_.reserve(expected);
  }
  void Add(std::uint64_t op, SpanKind kind, Clock::time_point start,
           Clock::time_point end) {
    if (enabled_) spans_.push_back(Span{op, kind, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Workload entry points; each fills `report` and returns normally even
/// when invariants fail (the failures are in `report.errors`).
void RunPatrol(const RunConfig& config, Report& report);
void RunServing(const RunConfig& config, Report& report);
[[nodiscard]] bool IsServingWorkload(const std::string& workload);

}  // namespace perfbench

#endif  // SNOR_PERFBENCH_BENCH_H_
