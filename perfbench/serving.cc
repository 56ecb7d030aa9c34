// Service workloads: NYU-style query features sent to a
// RecognitionService (exact hybrid, ~1k-view ShapeNet-style gallery).
//
//   serve_light     open loop, Poisson arrivals at 300/s, no deadline
//   serve_saturate  closed loop, one thread keeping 64 requests in flight
//   serve_overload  open loop, Poisson arrivals at 5000/s, no deadline
//
// One operation is one request. Open-loop requests are timed from the
// moment they were due; the load generator is this process's main thread
// (the sender) plus at most one collector thread.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/experiment.h"
#include "core/feature_cache.h"
#include "data/dataset.h"
#include "data/renderer.h"
#include "obs/metrics.h"
#include "serve/batch_engine.h"
#include "serve/service.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using snor::ImageFeatures;
using snor::ObjectClass;
using snor::Result;
using snor::StatusCode;
using snor::serve::RecognitionService;
using snor::serve::ServiceOptions;
using snor::serve::ServiceReply;
using snor::serve::ServiceStats;

/// \brief Shape of one service workload. Every ServiceOptions field not
/// set here keeps the program default.
struct ServeShape {
  bool open_loop = true;
  /// Offered requests per second (open loop).
  double rate = 0.0;
  /// Requests kept in flight (closed loop).
  int in_flight = 0;
};

bool ShapeFor(const std::string& workload, ServeShape* shape) {
  if (workload == "serve_light") {
    *shape = ServeShape{true, 300.0, 0};
  } else if (workload == "serve_saturate") {
    *shape = ServeShape{false, 0.0, 64};
  } else if (workload == "serve_overload") {
    *shape = ServeShape{true, 5000.0, 0};
  } else {
    return false;
  }
  return true;
}

/// ShapeNet-style gallery rendered on white: every class, `models`
/// models each, `views` seeded viewpoints per model.
snor::Dataset RenderGallery(std::uint64_t seed, int models, int views) {
  snor::Rng rng(seed ^ 0x5EEDBA11ULL);
  snor::Dataset gallery;
  gallery.name = "perfbench-gallery";
  for (int c = 0; c < snor::kNumClasses; ++c) {
    for (int model = 0; model < models; ++model) {
      for (int view = 0; view < views; ++view) {
        snor::RenderOptions render;
        render.white_background = true;
        render.view_angle_deg =
            360.0 * view / views + rng.Uniform(-10.0, 10.0);
        render.scale = rng.Uniform(0.8, 1.1);
        render.aspect = rng.Uniform(0.85, 1.15);
        const ObjectClass cls = snor::ClassFromIndex(c);
        gallery.items.push_back(snor::LabeledImage{
            snor::RenderObjectView(cls, model, render), cls, model, view});
      }
    }
  }
  return gallery;
}

/// Outcome of one request as the client sees it. No workload sets a
/// deadline and the service runs until every reply is in, so admission
/// shedding is the only correct refusal.
enum class Outcome : std::uint8_t {
  kPending,
  kOk,          // OK and label equal to the cold reference
  kWrongLabel,  // OK but label differs from the cold reference
  kShed,        // Unavailable: refused by queue admission
  kError,       // any other error (a failure)
};

/// Client-side exactly-once tallies over the service's whole life.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;  // OK replies, right label or not
  std::uint64_t shed = 0;
  std::uint64_t error = 0;
};

/// Per-request record of one measured window, indexed by operation.
struct OpRecord {
  std::size_t query = 0;
  /// Open loop: when the request is due, from the window's start.
  Clock::duration offset{};
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point replied{};
  double queue_wait_ms = 0.0;
  Outcome outcome = Outcome::kPending;
};

struct ServeWindow {
  double seconds = 0.0;
  std::vector<OpRecord> ops;
  double wall_s = 0.0;
  ServiceStats stats_before;
  ServiceStats stats_after;

  std::uint64_t Count(Outcome outcome) const {
    return static_cast<std::uint64_t>(std::count_if(
        ops.begin(), ops.end(),
        [outcome](const OpRecord& op) { return op.outcome == outcome; }));
  }
  /// End-to-end latencies (ms from due) of OK, correct requests.
  std::vector<double> OkLatencies() const {
    std::vector<double> out;
    for (const OpRecord& op : ops) {
      if (op.outcome == Outcome::kOk) out.push_back(MsBetween(op.due, op.replied));
    }
    return out;
  }
};

/// FIFO hand-off from the open-loop sender to the collector.
struct InFlight {
  std::size_t op = 0;
  std::future<Result<ServiceReply>> reply;
};

class Serving {
 public:
  Serving(const RunConfig& config, const ServeShape& shape, Report& report)
      : config_(config), shape_(shape), report_(report) {}

  void Run() {
    GenerateInputs();
    if (!BuildReferences()) return;
    if (!config_.trace) {
      ServeWindow window = NewWindow(config_.seconds);
      PeakRss rss;
      if (!rss.Start()) report_.Error("cannot reset the peak resident set");
      Setup();
      if (service_ == nullptr) return;
      WarmUp();
      RunWindow(window, false);
      Finish();
      const double rss_mb = rss.GrowthMb();
      Setup();
      ReportEndToEnd(window, rss_mb);
      return;
    }
    Setup();
    if (service_ == nullptr) return;
    WarmUp();
    ServeWindow plain = NewWindow(config_.seconds / 2.0);
    RunWindow(plain, false);
    snor::obs::MetricsRegistry::Global().ResetAll();
    ServeWindow traced = NewWindow(config_.seconds / 2.0);
    RunWindow(traced, true);
    const LayerCounters counters = ReadCounters();
    Finish();
    ReportLayers(plain, traced, counters);
    EngineProbe();
    Setup();
    setup_.ReportTo("serve.service.create_ms", report_);
  }

 private:
  /// Exact registry sums and counts of the traced half (never the
  /// bucketed percentiles).
  struct LayerCounters {
    double engine_queries = 0.0;
    double engine_batch_us_sum = 0.0;
    double engine_batches = 0.0;
    double parallel_items = 0.0;
    double spawn_wait_us_sum = 0.0;
    double spawn_waits = 0.0;
  };

  void GenerateInputs() {
    gallery_ = config_.quick ? RenderGallery(config_.seed, 2, 6)
                             : RenderGallery(config_.seed, 8, 13);
    snor::DatasetOptions nyu;
    nyu.seed = config_.seed;
    nyu.sample_fraction = config_.quick ? 0.01 : 0.075;
    snor::FeatureOptions query_options;
    query_options.preprocess.white_background = false;
    pool_ = snor::ComputeFeatures(snor::MakeNyuSet(nyu), query_options);
    gallery_options_.preprocess.white_background = true;
  }

  /// One burst of set-up repetitions: gallery extraction +
  /// RecognitionService::Create. The last service built stays in
  /// `service_`.
  void Setup() {
    const int reps = config_.quick ? 2 : 20;
    for (int rep = 0; rep < reps; ++rep) {
      if (service_ != nullptr) service_->Shutdown();
      service_.reset();
      const auto t0 = Clock::now();
      std::vector<ImageFeatures> features =
          snor::ComputeFeatures(gallery_, gallery_options_);
      const auto t1 = Clock::now();
      auto service =
          RecognitionService::Create(HybridSpec(), std::move(features),
                                     options_);
      const auto t2 = Clock::now();
      if (!service.ok()) {
        report_.Error("RecognitionService::Create failed: " +
                      service.status().ToString());
        return;
      }
      service_ = std::move(service).value();
      setup_.Add(t0, t1, t2);
    }
  }

  /// Cold-classifier label of every pool query, over a gallery extracted
  /// here (untimed) rather than by the timed set-up. The gallery features
  /// are kept for the traced run's engine probe.
  bool BuildReferences() {
    gallery_features_ = snor::ComputeFeatures(gallery_, gallery_options_);
    auto cold = snor::MakeClassifier(HybridSpec(), gallery_features_);
    if (!cold.ok()) {
      report_.Error("reference MakeClassifier failed: " +
                    cold.status().ToString());
      return false;
    }
    for (const ImageFeatures& query : pool_) {
      refs_.push_back(cold.value()->Classify(query));
    }
    return true;
  }

  std::size_t NextQuery() {
    return static_cast<std::size_t>(query_rng_.UniformInt(
        0, static_cast<std::int64_t>(pool_.size()) - 1));
  }

  /// Tallies one reply into the lifetime counts and returns its outcome.
  Outcome Settle(std::size_t query, const Result<ServiceReply>& result,
                 double* queue_wait_ms) {
    ++tally_.submitted;
    if (result.ok()) {
      ++tally_.ok;
      *queue_wait_ms = result.value().queue_wait_ms;
      ++report_.label_checks;
      if (result.value().label == refs_[query]) return Outcome::kOk;
      report_.Error("query " + std::to_string(query) + ": label " +
                    std::string(snor::ObjectClassName(result.value().label)) +
                    " != cold " +
                    std::string(snor::ObjectClassName(refs_[query])) +
                    (result.value().degraded ? " (degraded)" : ""));
      return Outcome::kWrongLabel;
    }
    if (result.status().code() == StatusCode::kUnavailable) {
      ++tally_.shed;
      return Outcome::kShed;
    }
    ++tally_.error;
    report_.Error("unexpected reply: " + result.status().ToString());
    return Outcome::kError;
  }

  /// Closed-loop pass over the query pool, counted in the lifetime
  /// tallies but in no window.
  void WarmUp() {
    std::deque<std::pair<std::size_t, std::future<Result<ServiceReply>>>> q;
    const std::size_t total = std::min<std::size_t>(pool_.size(), 512);
    double wait = 0.0;
    for (std::size_t i = 0; i < total; ++i) {
      q.emplace_back(i, service_->Submit(&pool_[i]));
      if (q.size() >= 16) {
        Settle(q.front().first, q.front().second.get(), &wait);
        q.pop_front();
      }
    }
    for (auto& [query, reply] : q) Settle(query, reply.get(), &wait);
  }

  /// A window's record storage, sized and its pages touched here, before
  /// the peak-RSS baseline, so that recording the window does not count
  /// as program memory. Open-loop windows get their seeded arrival
  /// offsets and queries here.
  ServeWindow NewWindow(double seconds) {
    ServeWindow window;
    window.seconds = seconds;
    if (shape_.open_loop) {
      const std::vector<Clock::duration> offsets = ArrivalOffsets(seconds);
      window.ops.resize(offsets.size());
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        window.ops[i].query = NextQuery();
        window.ops[i].offset = offsets[i];
      }
    } else {
      // Room for 10000 requests/s, about four times today's capacity.
      window.ops.resize(static_cast<std::size_t>(seconds * 10000.0));
      window.ops.clear();
    }
    return window;
  }

  void RunWindow(ServeWindow& window, bool traced) {
    window.stats_before = service_->stats();
    if (shape_.open_loop) {
      RunOpenLoop(traced, window);
    } else {
      RunClosedLoop(traced, window);
    }
    window.stats_after = service_->stats();
    report_.attempted += window.ops.size();
    report_.failed +=
        window.Count(Outcome::kWrongLabel) + window.Count(Outcome::kError);
  }

  /// Poisson arrivals conditioned on their count: N = rate x seconds
  /// exponential gaps rescaled to span the window exactly, so the offered
  /// load is the same on every seed.
  std::vector<Clock::duration> ArrivalOffsets(double seconds) {
    const std::size_t n = static_cast<std::size_t>(
        std::max(1.0, std::round(shape_.rate * seconds)));
    std::vector<double> gaps(n + 1);
    double total = 0.0;
    for (double& gap : gaps) {
      gap = -std::log(1.0 - arrival_rng_.UniformDouble());
      total += gap;
    }
    std::vector<Clock::duration> offsets(n);
    double at = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      at += gaps[i];
      offsets[i] = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(at / total * seconds));
    }
    return offsets;
  }

  void RunOpenLoop(bool traced, ServeWindow& window) {
    SpanLog sender_log, collector_log;
    if (traced) {
      sender_log.Enable(window.ops.size());
      collector_log.Enable(window.ops.size());
    }

    std::mutex mutex;
    std::condition_variable ready;
    std::deque<InFlight> in_flight;  // GUARDED_BY(mutex)
    bool sending_done = false;       // GUARDED_BY(mutex)
    Clock::time_point last_reply{};

    std::thread collector([&] {
      for (;;) {
        InFlight item;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return !in_flight.empty() || sending_done; });
          if (in_flight.empty()) return;
          item = std::move(in_flight.front());
          in_flight.pop_front();
        }
        const Result<ServiceReply> result = item.reply.get();
        OpRecord& op = window.ops[item.op];
        op.replied = Clock::now();
        last_reply = op.replied;
        collector_log.Add(item.op, SpanKind::kRequest, op.sent, op.replied);
        op.outcome = Settle(op.query, result, &op.queue_wait_ms);
      }
    });

    const auto start = Clock::now();
    for (std::size_t i = 0; i < window.ops.size(); ++i) {
      OpRecord& op = window.ops[i];
      op.due = start + op.offset;
      std::this_thread::sleep_until(op.due);
      op.sent = Clock::now();
      InFlight item{i, service_->Submit(&pool_[op.query])};
      sender_log.Add(i, SpanKind::kSubmit, op.sent, Clock::now());
      {
        std::lock_guard<std::mutex> lock(mutex);
        in_flight.push_back(std::move(item));
      }
      ready.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      sending_done = true;
    }
    ready.notify_one();
    collector.join();
    window.wall_s = MsBetween(start, last_reply) / 1e3;
    MergeSpans(sender_log, collector_log, window.ops.size());
  }

  void RunClosedLoop(bool traced, ServeWindow& window) {
    const std::size_t depth = static_cast<std::size_t>(shape_.in_flight);
    SpanLog log;
    if (traced) log.Enable(2 * window.ops.capacity());
    std::deque<InFlight> in_flight;
    const auto submit = [&] {
      const std::size_t i = window.ops.size();
      window.ops.push_back(OpRecord{});
      OpRecord& op = window.ops.back();
      op.query = NextQuery();
      op.due = Clock::now();
      op.sent = op.due;
      in_flight.push_back(InFlight{i, service_->Submit(&pool_[op.query])});
      log.Add(i, SpanKind::kSubmit, op.due, Clock::now());
    };
    const auto settle_oldest = [&] {
      InFlight item = std::move(in_flight.front());
      in_flight.pop_front();
      const Result<ServiceReply> result = item.reply.get();
      OpRecord& op = window.ops[item.op];
      op.replied = Clock::now();
      log.Add(item.op, SpanKind::kRequest, op.due, op.replied);
      op.outcome = Settle(op.query, result, &op.queue_wait_ms);
      return op.replied;
    };

    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(window.seconds));
    for (std::size_t i = 0; i < depth; ++i) submit();
    Clock::time_point last = start;
    while (!in_flight.empty()) {
      last = settle_oldest();
      if (last < stop) submit();
    }
    window.wall_s = MsBetween(start, last) / 1e3;
    MergeSpans(log, SpanLog{}, window.ops.size());
  }

  /// Folds the window's spans into per-operation Submit-call and
  /// Submit-to-reply durations (indexed by operation id).
  void MergeSpans(const SpanLog& a, const SpanLog& b, std::size_t ops) {
    submit_us_.assign(ops, 0.0);
    request_ms_.assign(ops, 0.0);
    for (const SpanLog* log : {&a, &b}) {
      for (const Span& span : log->spans()) {
        if (span.op >= ops) continue;
        if (span.kind == SpanKind::kSubmit) {
          submit_us_[span.op] = MsBetween(span.start, span.end) * 1e3;
        } else if (span.kind == SpanKind::kRequest) {
          request_ms_[span.op] = MsBetween(span.start, span.end);
        }
      }
    }
  }

  LayerCounters ReadCounters() const {
    auto& registry = snor::obs::MetricsRegistry::Global();
    LayerCounters c;
    c.engine_queries =
        static_cast<double>(registry.counter("serve.engine.queries").value());
    const snor::obs::Histogram& batch =
        registry.histogram("serve.engine.batch_latency_us");
    c.engine_batch_us_sum = batch.sum();
    c.engine_batches = static_cast<double>(batch.count());
    c.parallel_items =
        static_cast<double>(registry.counter("util.parallel.items").value());
    const snor::obs::Histogram& spawn =
        registry.histogram("util.parallel.queue_wait_us");
    c.spawn_wait_us_sum = spawn.sum();
    c.spawn_waits = static_cast<double>(spawn.count());
    return c;
  }

  /// Drains the service and reconciles every request exactly once. Shed
  /// is the only refusal a workload may see: a timeout, an ingest failure
  /// or a shutdown rejection is a program fault.
  void Finish() {
    service_->Shutdown();
    const ServiceStats s = service_->stats();
    const auto check = [&](bool holds, const char* what) {
      if (holds) {
        ++report_.accounting_checks;
      } else {
        report_.Error(std::string("accounting: ") + what);
      }
    };
    check(s.submitted == tally_.submitted, "service submitted != client");
    check(s.ok == tally_.ok, "service ok != client ok");
    check(s.shed == tally_.shed, "service shed != client shed");
    check(s.timed_out == 0, "requests timed out without a deadline");
    check(s.failed == 0, "requests failed");
    check(s.rejected == 0, "requests rejected before shutdown");
    check(s.ok + s.shed + s.timed_out + s.failed + s.rejected == s.submitted,
          "submitted != ok + shed + timed_out + failed + rejected");
    check(service_->queue_stats().shed == s.shed, "queue shed != service shed");
    check(tally_.error == 0, "unexpected error replies");
  }

  void ReportEndToEnd(const ServeWindow& window, double rss_mb) {
    const std::vector<double> ok_ms = window.OkLatencies();
    const Summary latency = Summarize(ok_ms);
    const TailStats tail = LeastDisturbedTail(ok_ms);
    const double attempted = static_cast<double>(window.ops.size());
    const double ok = static_cast<double>(window.Count(Outcome::kOk));
    report_.EndToEnd("goodput_per_s",
                     window.wall_s > 0 ? ok / window.wall_s : 0.0, "1/s",
                     window.ops.size());
    report_.EndToEnd("latency_p50_ms", latency.p50, "ms", latency.count);
    report_.EndToEnd("latency_p99_ms", tail.p99_ms, "ms", latency.count,
                     tail.note);
    report_.EndToEnd("ok_fraction", attempted > 0 ? ok / attempted : 0.0,
                     "fraction", window.ops.size());
    setup_.ReportTo("serve.service.create_ms", report_);
    report_.EndToEnd("rss_mb", rss_mb, "MiB");
    ReportGeneratorLateness(window, /*as_layer=*/false);
  }

  void ReportGeneratorLateness(const ServeWindow& window, bool as_layer) {
    if (!shape_.open_loop) return;
    std::vector<double> late_ms;
    for (const OpRecord& op : window.ops) {
      late_ms.push_back(MsBetween(op.due, op.sent));
    }
    const Summary late = Summarize(std::move(late_ms));
    if (as_layer) {
      report_.Layer("bench.gen_late_ms_p99", late.p99, "ms", late.count,
                    TailNote(late));
    } else {
      std::printf("generator lateness: p50 %.4f ms, p99 %.4f ms (n=%llu)\n",
                  late.p50, late.p99,
                  static_cast<unsigned long long>(late.count));
    }
  }

  void ReportLayers(const ServeWindow& plain, const ServeWindow& traced,
                    const LayerCounters& c) {
    std::vector<double> wait_ms, post_queue_ms, e2e_ms, unaccounted_ms;
    const double engine_batch_ms =
        c.engine_batches > 0 ? c.engine_batch_us_sum / c.engine_batches / 1e3
                             : 0.0;
    for (std::size_t i = 0; i < traced.ops.size(); ++i) {
      const OpRecord& op = traced.ops[i];
      if (op.outcome != Outcome::kOk) continue;
      const double e2e = MsBetween(op.due, op.replied);
      const double late = MsBetween(op.due, op.sent);
      wait_ms.push_back(op.queue_wait_ms);
      post_queue_ms.push_back(request_ms_[i] - op.queue_wait_ms);
      e2e_ms.push_back(e2e);
      unaccounted_ms.push_back(e2e - late - submit_us_[i] / 1e3 -
                               op.queue_wait_ms - engine_batch_ms);
    }
    const double answered_ok =
        static_cast<double>(traced.stats_after.ok - traced.stats_before.ok);
    const double submitted = static_cast<double>(traced.ops.size());
    const double batches = static_cast<double>(traced.stats_after.batches -
                                               traced.stats_before.batches);
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    const Summary wait = Summarize(wait_ms);
    report_.Layer("serve.request_queue.wait_ms_p50", wait.p50, "ms",
                  wait.count);
    report_.Layer("serve.request_queue.wait_ms_p99", wait.p99, "ms",
                  wait.count, TailNote(wait));
    report_.Layer("serve.request_queue.shed_fraction",
                  ratio(static_cast<double>(traced.Count(Outcome::kShed)),
                        submitted),
                  "fraction", traced.ops.size());
    report_.Layer("serve.request_queue.submit_us", Summarize(submit_us_).mean,
                  "us", submit_us_.size());
    report_.Layer("serve.service.post_queue_ms_p50",
                  Summarize(post_queue_ms).p50, "ms", post_queue_ms.size());
    report_.Layer("serve.service.batch_size_mean", ratio(answered_ok, batches),
                  "count", static_cast<std::uint64_t>(batches));
    report_.Layer("serve.batch_engine.batch_ms_mean", engine_batch_ms, "ms",
                  static_cast<std::uint64_t>(c.engine_batches));
    report_.Layer("serve.batch_engine.useful_ratio",
                  ratio(answered_ok, c.engine_queries), "ratio",
                  static_cast<std::uint64_t>(c.engine_queries));
    report_.Layer("util.parallel.spawn_wait_us_mean",
                  ratio(c.spawn_wait_us_sum, c.spawn_waits), "us",
                  static_cast<std::uint64_t>(c.spawn_waits),
                  c.spawn_waits > 0 ? "" : "no pool launches (all inline)");
    report_.Layer("util.parallel.items_per_request",
                  ratio(c.parallel_items, c.engine_queries), "count",
                  static_cast<std::uint64_t>(c.engine_queries));
    ReportGeneratorLateness(traced, /*as_layer=*/true);
    const double e2e_p50 = Median(e2e_ms);
    report_.Layer("bench.unaccounted_pct",
                  ratio(100.0 * Median(unaccounted_ms), e2e_p50), "%",
                  e2e_ms.size());
    const double plain_p50 = Median(plain.OkLatencies());
    report_.Layer("bench.trace_overhead_pct",
                  plain_p50 > 0 ? 100.0 * (e2e_p50 / plain_p50 - 1.0) : 0.0,
                  "%", e2e_ms.size());
  }

  /// Direct BatchEngine::ClassifyBatch probe on the same gallery and
  /// engine options: median per-query time at batch 1 and batch 16.
  void EngineProbe() {
    auto engine = snor::serve::BatchEngine::Create(
        HybridSpec(), gallery_features_, options_.engine);
    if (!engine.ok()) {
      report_.Error("probe BatchEngine failed: " + engine.status().ToString());
      return;
    }
    const auto probe = [&](std::size_t batch, int reps, const char* name) {
      std::vector<double> per_query_us;
      for (int rep = 0; rep < reps; ++rep) {
        std::vector<const ImageFeatures*> queries;
        std::vector<std::size_t> picked;
        for (std::size_t b = 0; b < batch; ++b) {
          picked.push_back(NextQuery());
          queries.push_back(&pool_[picked.back()]);
        }
        const auto t0 = Clock::now();
        const std::vector<ObjectClass> labels =
            engine.value()->ClassifyBatch(queries);
        per_query_us.push_back(MsBetween(t0, Clock::now()) * 1e3 /
                               static_cast<double>(batch));
        for (std::size_t b = 0; b < batch; ++b) {
          ++report_.label_checks;
          if (labels[b] != refs_[picked[b]]) {
            report_.Error("engine probe: label differs from cold reference");
          }
        }
      }
      report_.Layer(name, Median(per_query_us), "us",
                    static_cast<std::uint64_t>(reps));
    };
    probe(1, config_.quick ? 5 : 150, "serve.batch_engine.query_us_b1");
    probe(16, config_.quick ? 2 : 30, "serve.batch_engine.query_us_b16");
  }

  const RunConfig& config_;
  const ServeShape shape_;
  Report& report_;
  ServiceOptions options_;
  snor::FeatureOptions gallery_options_;
  snor::Dataset gallery_;
  std::vector<ImageFeatures> pool_;
  std::vector<ImageFeatures> gallery_features_;
  std::vector<ObjectClass> refs_;
  std::unique_ptr<RecognitionService> service_;
  snor::Rng query_rng_{config_.seed * 7919ULL + 1};
  snor::Rng arrival_rng_{config_.seed * 104729ULL + 3};
  Tally tally_;
  SetupSamples setup_;
  // Per-operation span durations of the last window (traced runs).
  std::vector<double> submit_us_;
  std::vector<double> request_ms_;
};

}  // namespace

bool IsServingWorkload(const std::string& workload) {
  ServeShape shape;
  return ShapeFor(workload, &shape);
}

void RunServing(const RunConfig& config, Report& report) {
  ServeShape shape;
  if (!ShapeFor(config.workload, &shape)) return;
  Serving(config, shape, report).Run();
}

}  // namespace perfbench
