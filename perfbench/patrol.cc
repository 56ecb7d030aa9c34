// `patrol`: the paper's on-board path. A single-thread closed loop over
// pre-rendered corridor frames: SegmentFrame -> ComputeFeatures per
// region -> cold HybridClassifier (Hu L3 + Hellinger, weighted sum) on
// the 82-view ShapeNetSet1 gallery. One operation is one frame.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/experiment.h"
#include "core/feature_cache.h"
#include "core/segmentation.h"
#include "data/dataset.h"
#include "data/scene.h"
#include "obs/metrics.h"
#include "serve/batch_engine.h"

namespace perfbench {
namespace {

using snor::Dataset;
using snor::FeatureOptions;
using snor::ImageFeatures;
using snor::ObjectClass;

/// Expected per-region outcome, computed before any clock starts.
struct RegionRef {
  bool valid = false;
  ObjectClass label = ObjectClass::kChair;
};

/// Per-window tallies of the frame loop.
struct PatrolWindow {
  std::vector<double> frame_ms;     // OK frames only
  std::vector<double> frame_end_s;  // their completion, from window start
  std::uint64_t frames = 0;
  std::uint64_t ok = 0;
  std::uint64_t regions = 0;
  std::uint64_t valid_regions = 0;
  double wall_s = 0.0;
};

class Patrol {
 public:
  Patrol(const RunConfig& config, Report& report)
      : config_(config), report_(report) {
    gallery_options_.preprocess.white_background = true;
    region_options_.preprocess.white_background = false;
  }

  void Run() {
    GenerateInputs();
    if (!BuildReferences()) return;
    if (!config_.trace) {
      PatrolWindow window = NewWindow(config_.seconds);
      PeakRss rss;
      if (!rss.Start()) report_.Error("cannot reset the peak resident set");
      Setup();
      RunWindow(config_.seconds, nullptr, window);
      const double rss_mb = rss.GrowthMb();
      Setup();
      ReportEndToEnd(window, rss_mb);
      return;
    }
    // Traced run: an untraced half for the overhead baseline, then the
    // traced half that yields the per-layer numbers.
    Setup();
    PatrolWindow plain = NewWindow(config_.seconds / 2.0);
    RunWindow(config_.seconds / 2.0, nullptr, plain);
    snor::obs::MetricsRegistry::Global().ResetAll();
    SpanLog log;
    log.Enable(static_cast<std::size_t>(config_.seconds * 20000.0));
    PatrolWindow traced = NewWindow(config_.seconds / 2.0);
    RunWindow(config_.seconds / 2.0, &log, traced);
    // The registry is read before the second set-up burst adds the
    // gallery's preprocessing to it.
    ReportLayers(plain, traced, log);
    Setup();
    setup_.ReportTo("core.classifiers.build_ms", report_);
  }

 private:
  void GenerateInputs() {
    snor::DatasetOptions gallery_options;
    gallery_options.seed = config_.seed;
    gallery_ = snor::MakeShapeNetSet1(gallery_options);
    const int frames = config_.quick ? 8 : 512;
    for (int i = 0; i < frames; ++i) {
      snor::SceneOptions scene;
      scene.seed = config_.seed * 100003ULL + static_cast<std::uint64_t>(i);
      frames_.push_back(snor::RandomScene(scene).frame);
    }
  }

  /// One burst of set-up repetitions: gallery extraction + classifier
  /// construction.
  void Setup() {
    const int reps = config_.quick ? 2 : 100;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      std::vector<ImageFeatures> features =
          snor::ComputeFeatures(gallery_, gallery_options_);
      const auto t1 = Clock::now();
      auto classifier = snor::MakeClassifier(HybridSpec(), std::move(features));
      const auto t2 = Clock::now();
      if (!classifier.ok()) {
        report_.Error("MakeClassifier failed: " +
                      classifier.status().ToString());
        return;
      }
      setup_.Add(t0, t1, t2);
      classifier_ = std::move(classifier).value();
    }
  }

  /// Exact BatchEngine labels for every region of every frame, computed
  /// on the same features the timed loop extracts, over a gallery
  /// extracted here (untimed) rather than by the timed set-up.
  bool BuildReferences() {
    std::vector<ImageFeatures> region_features;
    refs_.resize(frames_.size());
    for (std::size_t f = 0; f < frames_.size(); ++f) {
      for (snor::SegmentedObject& region : snor::SegmentFrame(frames_[f])) {
        const ImageFeatures features = ExtractRegion(std::move(region.crop));
        refs_[f].push_back(RegionRef{features.valid, ObjectClass::kChair});
        if (features.valid) region_features.push_back(features);
      }
    }
    snor::serve::BatchEngineOptions exact;
    exact.match_mode = snor::serve::MatchMode::kExact;
    auto engine = snor::serve::BatchEngine::Create(
        HybridSpec(), snor::ComputeFeatures(gallery_, gallery_options_), exact);
    if (!engine.ok()) {
      report_.Error("reference BatchEngine failed: " +
                    engine.status().ToString());
      return false;
    }
    std::vector<const ImageFeatures*> queries;
    for (const ImageFeatures& f : region_features) queries.push_back(&f);
    const std::vector<ObjectClass> labels =
        engine.value()->ClassifyBatch(queries);
    std::size_t next = 0;
    for (auto& frame_refs : refs_) {
      for (RegionRef& ref : frame_refs) {
        if (ref.valid) ref.label = labels[next++];
      }
    }
    return true;
  }

  ImageFeatures ExtractRegion(snor::ImageU8 crop) const {
    Dataset probe;
    probe.items.push_back(
        snor::LabeledImage{std::move(crop), ObjectClass::kChair, 0, 0});
    return std::move(snor::ComputeFeatures(probe, region_options_)[0]);
  }

  /// Record storage for a window, sized and its pages touched here, before
  /// the peak-RSS baseline, so that recording frames does not count as
  /// program memory. Room for 4000 frames/s, about four times today's rate.
  static PatrolWindow NewWindow(double seconds) {
    const std::size_t room = static_cast<std::size_t>(seconds * 4000.0);
    PatrolWindow window;
    window.frame_ms.resize(room);
    window.frame_ms.clear();
    window.frame_end_s.resize(room);
    window.frame_end_s.clear();
    return window;
  }

  /// Runs frames back to back for `seconds`; spans go to `log` when set.
  void RunWindow(double seconds, SpanLog* log, PatrolWindow& window) {
    if (classifier_ == nullptr) return;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    auto now = start;
    while (now < stop) {
      const std::size_t f = window.frames % frames_.size();
      const std::uint64_t op = ++op_id_;
      const auto t0 = Clock::now();
      std::vector<snor::SegmentedObject> regions =
          snor::SegmentFrame(frames_[f]);
      const auto t1 = Clock::now();
      if (log) log->Add(op, SpanKind::kSegment, t0, t1);
      const std::vector<RegionRef>& refs = refs_[f];
      bool ok = regions.size() == refs.size();
      if (!ok) {
        report_.Error("frame " + std::to_string(f) + ": " +
                      std::to_string(regions.size()) + " regions, expected " +
                      std::to_string(refs.size()));
      }
      for (std::size_t r = 0; r < regions.size(); ++r) {
        const auto ta = Clock::now();
        const ImageFeatures features =
            ExtractRegion(std::move(regions[r].crop));
        const auto tb = Clock::now();
        if (log) log->Add(op, SpanKind::kFeatures, ta, tb);
        ++window.regions;
        const bool expect_valid = r < refs.size() && refs[r].valid;
        if (!features.valid) {
          if (expect_valid) {
            ok = false;
            report_.Error("frame " + std::to_string(f) + " region " +
                          std::to_string(r) + ": features unexpectedly invalid");
          }
          continue;
        }
        ++window.valid_regions;
        const ObjectClass label = classifier_->Classify(features);
        const auto tc = Clock::now();
        if (log) log->Add(op, SpanKind::kClassify, tb, tc);
        ++report_.label_checks;
        if (!expect_valid || label != refs[r].label) {
          ok = false;
          report_.Error(
              "frame " + std::to_string(f) + " region " + std::to_string(r) +
              ": label " + std::string(snor::ObjectClassName(label)) +
              " != exact engine " +
              (expect_valid
                   ? std::string(snor::ObjectClassName(refs[r].label))
                   : std::string("(invalid)")));
        }
      }
      now = Clock::now();
      if (log) log->Add(op, SpanKind::kFrame, t0, now);
      ++window.frames;
      if (ok) {
        ++window.ok;
        window.frame_ms.push_back(MsBetween(t0, now));
        window.frame_end_s.push_back(MsBetween(start, now) / 1e3);
      }
    }
    window.wall_s = MsBetween(start, now) / 1e3;
    report_.attempted += window.frames;
    report_.failed += window.frames - window.ok;
  }

  /// Goodput and median latency come from the run's least-disturbed
  /// passes over the frame set (see LeastDisturbedBlocks): a single-thread
  /// loop swings by up to a third with other tenants' load on a shared
  /// host. The whole-window figures are printed beside them.
  void ReportEndToEnd(const PatrolWindow& window, double rss_mb) {
    const Summary latency = Summarize(window.frame_ms);
    const BlockStats blocks =
        LeastDisturbedBlocks(window.frame_end_s, window.frame_ms, frames_.size());
    const double frames = static_cast<double>(window.frames);
    const std::string blocks_note =
        std::to_string(blocks.blocks) + " blocks; whole window ";
    report_.EndToEnd("goodput_per_s", blocks.rate_per_s, "1/s", window.frames,
                     blocks_note + std::to_string(window.wall_s > 0
                                                      ? window.ok / window.wall_s
                                                      : 0.0));
    report_.EndToEnd("latency_p50_ms", blocks.p50_ms, "ms", latency.count,
                     blocks_note + std::to_string(latency.p50));
    const TailStats tail = LeastDisturbedTail(window.frame_ms);
    report_.EndToEnd("latency_p99_ms", tail.p99_ms, "ms", latency.count,
                     tail.note);
    report_.EndToEnd("ok_fraction", frames > 0 ? window.ok / frames : 0.0,
                     "fraction", window.frames);
    setup_.ReportTo("core.classifiers.build_ms", report_);
    report_.EndToEnd("rss_mb", rss_mb, "MiB");
  }

  void ReportLayers(const PatrolWindow& plain, const PatrolWindow& traced,
                    const SpanLog& log) {
    // Per-frame sums of each layer's spans; spans of one frame share its
    // operation id and are appended in call order, the frame span last.
    double segment_us = 0.0, features_us = 0.0, classify_us = 0.0;
    std::uint64_t segments = 0, extractions = 0, classifications = 0;
    std::vector<double> unaccounted_ms, frame_ms;
    double children_ms = 0.0;
    for (const Span& span : log.spans()) {
      const double ms = MsBetween(span.start, span.end);
      switch (span.kind) {
        case SpanKind::kSegment:
          segment_us += ms * 1e3;
          ++segments;
          children_ms += ms;
          break;
        case SpanKind::kFeatures:
          features_us += ms * 1e3;
          ++extractions;
          children_ms += ms;
          break;
        case SpanKind::kClassify:
          classify_us += ms * 1e3;
          ++classifications;
          children_ms += ms;
          break;
        case SpanKind::kFrame:
          frame_ms.push_back(ms);
          unaccounted_ms.push_back(ms - children_ms);
          children_ms = 0.0;
          break;
        default:
          break;
      }
    }
    const snor::obs::Histogram& preprocess =
        snor::obs::MetricsRegistry::Global().histogram(
            "core.preprocess.latency_us");
    const double preprocess_us =
        preprocess.count() > 0 ? preprocess.sum() / preprocess.count() : 0.0;
    const auto per = [](double total, std::uint64_t n) {
      return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    report_.Layer("core.segmentation.frame_us", per(segment_us, segments),
                  "us", segments);
    report_.Layer("core.segmentation.regions_per_frame",
                  per(static_cast<double>(traced.regions), traced.frames),
                  "count", traced.frames);
    // Self time: ComputeFeatures minus the preprocessing inside it.
    report_.Layer("core.feature_cache.region_us",
                  per(features_us, extractions) - preprocess_us, "us",
                  extractions);
    report_.Layer("core.feature_cache.valid_ratio",
                  per(static_cast<double>(traced.valid_regions),
                      traced.regions),
                  "ratio", traced.regions);
    report_.Layer("core.preprocess.region_us", preprocess_us, "us",
                  preprocess.count());
    report_.Layer("core.classifiers.region_us",
                  per(classify_us, classifications), "us", classifications);
    const double frame_p50 = Median(frame_ms);
    report_.Layer("bench.unaccounted_pct",
                  frame_p50 > 0 ? 100.0 * Median(unaccounted_ms) / frame_p50
                                : 0.0,
                  "%", frame_ms.size());
    const double plain_p50 =
        LeastDisturbedBlocks(plain.frame_end_s, plain.frame_ms, frames_.size())
            .p50_ms;
    const double traced_p50 =
        LeastDisturbedBlocks(traced.frame_end_s, traced.frame_ms,
                             frames_.size())
            .p50_ms;
    report_.Layer("bench.trace_overhead_pct",
                  plain_p50 > 0 ? 100.0 * (traced_p50 / plain_p50 - 1.0) : 0.0,
                  "%", traced.frame_ms.size());
  }

  const RunConfig& config_;
  Report& report_;
  FeatureOptions gallery_options_;
  FeatureOptions region_options_;
  Dataset gallery_;
  std::vector<snor::ImageU8> frames_;
  std::unique_ptr<snor::MatchingClassifier> classifier_;
  std::vector<std::vector<RegionRef>> refs_;
  SetupSamples setup_;
  std::uint64_t op_id_ = 0;
};

}  // namespace

void RunPatrol(const RunConfig& config, Report& report) {
  Patrol(config, report).Run();
}

}  // namespace perfbench
