#include "serve/batch_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace snor::serve {

Result<MatchMode> ParseMatchMode(const std::string& text) {
  if (text == "exact") return MatchMode::kExact;
  if (text == "ann") return MatchMode::kAnn;
  return Status::InvalidArgument("unknown match mode '" + text +
                                 "' (expected 'exact' or 'ann')");
}

const char* MatchModeName(MatchMode mode) {
  return mode == MatchMode::kAnn ? "ann" : "exact";
}

Result<std::unique_ptr<BatchEngine>> BatchEngine::Create(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
    const BatchEngineOptions& options, std::uint64_t baseline_seed) {
  if (gallery.empty()) {
    return Status::InvalidArgument("cannot shard " + spec.DisplayName() +
                                   " over an empty gallery");
  }
  if (spec.kind != ApproachSpec::Kind::kBaseline) {
    const bool any_valid =
        std::any_of(gallery.begin(), gallery.end(),
                    [](const ImageFeatures& f) { return f.valid; });
    if (!any_valid) {
      return Status::Unavailable(
          "gallery has no valid view to match against (all " +
          std::to_string(gallery.size()) + " entries failed extraction)");
    }
  }
  // NOLINTNEXTLINE(raw-new-delete): private ctor, immediately owned.
  return std::unique_ptr<BatchEngine>(new BatchEngine(
      spec, gallery, options, baseline_seed));
}

BatchEngine::BatchEngine(const ApproachSpec& spec,
                         const std::vector<ImageFeatures>& gallery,
                         const BatchEngineOptions& options,
                         std::uint64_t baseline_seed)
    : spec_(spec),
      // Mirrors MatchingClassifier::FallbackLabel (Create rejects an
      // empty gallery).
      fallback_label_(gallery.front().label),
      options_(options) {
  int shards = options.num_shards > 0 ? options.num_shards
                                      : DefaultThreadCount();
  shards = std::max(1, std::min<int>(shards,
                                     static_cast<int>(gallery.size())));
  const std::size_t n = gallery.size();
  const std::size_t per_shard = n / static_cast<std::size_t>(shards);
  const std::size_t remainder = n % static_cast<std::size_t>(shards);
  std::size_t begin = 0;
  for (int s = 0; s < shards; ++s) {
    const std::size_t size =
        per_shard + (static_cast<std::size_t>(s) < remainder ? 1 : 0);
    shards_.push_back({begin, begin + size});
    begin += size;
  }
  SNOR_CHECK_EQ(begin, n);
  obs::MetricsRegistry::Global()
      .gauge("serve.engine.shards")
      .Set(static_cast<double>(shards_.size()));
  obs::MetricsRegistry::Global()
      .gauge("serve.engine.match_mode")
      .Set(options_.match_mode == MatchMode::kAnn ? 1.0 : 0.0);
  if (spec_.kind == ApproachSpec::Kind::kBaseline) {
    baseline_ = std::make_unique<RandomBaselineClassifier>(gallery,
                                                           baseline_seed);
    return;  // The baseline never scores views; no engine bank or index.
  }
  bank_ = PackFeatureBank(gallery);
  if (options_.match_mode == MatchMode::kAnn) {
    // The prefilter must rank with the approach's own shape metric so
    // its top-R equals the exact scan's top-R.
    GalleryIndexOptions index_options = options_.ann;
    index_options.shape_method = spec_.shape;
    index_ = GalleryViewIndex::Build(bank_, index_options);
  }
}

std::vector<ObjectClass> BatchEngine::ClassifyBatch(
    const std::vector<const ImageFeatures*>& queries) {
  return Classify(queries, {}, /*color_only=*/false);
}

std::vector<ObjectClass> BatchEngine::ClassifyBatch(
    const std::vector<const ImageFeatures*>& queries,
    const std::vector<obs::TraceContext>& contexts) {
  return Classify(queries, contexts, /*color_only=*/false);
}

std::vector<ObjectClass> BatchEngine::ClassifyColorOnly(
    const std::vector<const ImageFeatures*>& queries,
    const std::vector<obs::TraceContext>& contexts) {
  SNOR_CHECK_MSG(baseline_ == nullptr,
                 "the random baseline has no colour-only fallback");
  return Classify(queries, contexts, /*color_only=*/true);
}

std::vector<ObjectClass> BatchEngine::Classify(
    const std::vector<const ImageFeatures*>& queries,
    const std::vector<obs::TraceContext>& contexts, bool color_only) {
  SNOR_TRACE_SPAN("serve.engine.batch");
  const obs::TraceContext* context_array =
      contexts.size() == queries.size() && !contexts.empty() ? contexts.data()
                                                             : nullptr;
  static obs::Counter& batches =
      obs::MetricsRegistry::Global().counter("serve.engine.batches");
  static obs::Counter& query_count =
      obs::MetricsRegistry::Global().counter("serve.engine.queries");
  static obs::Histogram& batch_latency_us =
      obs::MetricsRegistry::Global().histogram(
          "serve.engine.batch_latency_us");
  const obs::ScopedLatencyUs latency(batch_latency_us);
  batches.Increment();
  query_count.Increment(queries.size());
  if (queries.empty()) return {};

  if (color_only) {
    // The fallback's degradations must not feed the primary path's
    // stats (the service's breaker reads them).
    DegradationStats unused;
    return ClassifyArgmin(queries, context_array, /*shape=*/false, &unused);
  }
  if (baseline_ != nullptr) {
    // One RNG draw per query, in query order: the draw sequence (and so
    // every prediction) matches the cold classifier exactly.
    std::vector<ObjectClass> predictions;
    predictions.reserve(queries.size());
    for (const ImageFeatures* q : queries) {
      predictions.push_back(baseline_->Classify(*q));
    }
    degradation_ = baseline_->degradation();
    return predictions;
  }
  if (spec_.kind == ApproachSpec::Kind::kHybrid) {
    return ClassifyHybrid(queries, context_array);
  }
  return ClassifyArgmin(queries, context_array,
                        spec_.kind == ApproachSpec::Kind::kShape,
                        &degradation_);
}

std::size_t BatchEngine::TasksPerQuery() const {
  return index_.has_value() ? 1 : shards_.size();
}

template <typename Scan>
void BatchEngine::ScanTask(const ImageFeatures& query,
                           const obs::TraceContext* context, std::size_t task,
                           bool use_shape, bool use_color, char* full_scan,
                           Scan&& scan) const {
  // Scope the scan span to the query's request chain (no-op when the
  // batch carries no contexts).
  std::optional<obs::ScopedTraceContext> scope;
  if (context != nullptr) scope.emplace(*context);
  if (!index_.has_value()) {
    SNOR_TRACE_SPAN("serve.engine.shard_scan");
    scan(ViewRange(shards_[task].begin, shards_[task].end));
    return;
  }
  SNOR_TRACE_SPAN("serve.engine.ann_rerank");
  const std::vector<int> cands =
      index_->Candidates(query, use_shape, use_color);
  if (cands.empty()) {
    // No usable modality embedding: degrade to a full exact scan rather
    // than answering from nothing.
    *full_scan = 1;
    scan(ViewRange(0, bank_.size()));
    return;
  }
  scan(ViewList(cands));
}

void BatchEngine::CountFullScans(const std::vector<char>& full_scan) {
  static obs::Counter& full_scan_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.ann_full_scans");
  const auto scans = static_cast<std::uint64_t>(
      std::count(full_scan.begin(), full_scan.end(), 1));
  ann_full_scans_ += scans;
  full_scan_counter.Increment(scans);
}

std::vector<ObjectClass> BatchEngine::ClassifyArgmin(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts, bool shape, DegradationStats* stats) {
  const std::size_t nq = queries.size();
  const std::size_t nt = TasksPerQuery();
  const bool maximize = !shape && IsSimilarityMetric(spec_.color);

  std::vector<char> usable(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    usable[q] = shape ? ShapeModalityUsable(*queries[q])
                      : queries[q]->valid;
  }

  // One partial arg-optimum per (query, task) cell, filled by the
  // parallel task grid; every worker writes only its own cell.
  std::vector<PartialBest> partials(nq * nt);  // GUARDED_BY(per_worker_slot)
  std::vector<char> full_scan(nq * nt, 0);     // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq * nt,
      [&](std::size_t task) {
        const std::size_t q = task / nt;
        if (!usable[q]) return;
        const ImageFeatures& query = *queries[q];
        ScanTask(query, contexts != nullptr ? &contexts[q] : nullptr,
                 task % nt, shape, !shape, &full_scan[task],
                 [&](const auto& views) {
                   partials[task] =
                       shape ? BankShapeArgmin(query, bank_, views,
                                               spec_.shape)
                             : BankColorArgbest(query, bank_, views,
                                                spec_.color);
                 });
      },
      options_.n_threads);
  CountFullScans(full_scan);

  // Sequential merge in ascending task order: strict comparison keeps
  // the lowest-index optimum, exactly like the cold sequential scan.
  std::vector<ObjectClass> predictions(nq, fallback_label_);
  for (std::size_t q = 0; q < nq; ++q) {
    if (!usable[q]) {
      ++stats->fallback;
      continue;
    }
    double best = maximize ? -kUnusableScore : kUnusableScore;
    bool found = false;
    for (std::size_t t = 0; t < nt; ++t) {
      const PartialBest& p = partials[q * nt + t];
      if (!p.found) continue;
      found = true;
      const bool better = maximize ? p.score > best : p.score < best;
      if (better) {
        best = p.score;
        predictions[q] = p.label;
      }
    }
    // No task found a usable view: the fallback label stands, which is a
    // degradation exactly as in the cold classifier.
    if (!found) ++stats->fallback;
  }
  return predictions;
}

std::vector<ObjectClass> BatchEngine::ClassifyHybrid(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts) {
  const std::size_t nq = queries.size();
  const std::size_t nt = TasksPerQuery();
  const std::size_t n = bank_.size();

  std::vector<char> use_shape(nq);
  std::vector<char> use_color(nq);
  std::vector<std::vector<double>> shape_rows(nq);  // GUARDED_BY(per_worker_slot)
  std::vector<std::vector<double>> color_rows(nq);  // GUARDED_BY(per_worker_slot)
  for (std::size_t q = 0; q < nq; ++q) {
    use_shape[q] = ShapeModalityUsable(*queries[q]);
    use_color[q] = ColorModalityUsable(*queries[q]);
    if (use_shape[q] || use_color[q]) {
      shape_rows[q].assign(n, kUnusableScore);
      color_rows[q].assign(n, kUnusableScore);
    }
  }

  // Per-(query, task) usable-score counts; summed per query after the
  // barrier to decide modality collapse exactly like ScoresForModes.
  std::vector<std::pair<std::size_t, std::size_t>> counts(nq * nt,  // GUARDED_BY(per_worker_slot)
                                                          {0, 0});
  std::vector<char> full_scan(nq * nt, 0);  // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq * nt,
      [&](std::size_t task) {
        const std::size_t q = task / nt;
        if (!use_shape[q] && !use_color[q]) return;
        const ImageFeatures& query = *queries[q];
        ScanTask(query, contexts != nullptr ? &contexts[q] : nullptr,
                 task % nt, use_shape[q] != 0, use_color[q] != 0,
                 &full_scan[task], [&](const auto& views) {
                   BankHybridScores(query, bank_, views, spec_.shape,
                                    spec_.color, use_shape[q] != 0,
                                    use_color[q] != 0, &shape_rows[q],
                                    &color_rows[q], &counts[task].first,
                                    &counts[task].second);
                 });
      },
      options_.n_threads);
  CountFullScans(full_scan);

  std::vector<ObjectClass> predictions(nq, fallback_label_);
  for (std::size_t q = 0; q < nq; ++q) {
    if (!use_shape[q] && !use_color[q]) {
      ++degradation_.fallback;
      continue;
    }
    std::size_t shape_usable = 0;
    std::size_t color_usable = 0;
    for (std::size_t t = 0; t < nt; ++t) {
      shape_usable += counts[q * nt + t].first;
      color_usable += counts[q * nt + t].second;
    }
    const bool shape_live = use_shape[q] != 0 && shape_usable > 0;
    const bool color_live = use_color[q] != 0 && color_usable > 0;
    if (!shape_live && !color_live) {
      ++degradation_.fallback;
      continue;
    }
    if (shape_live != color_live) {
      if (shape_live) {
        ++degradation_.shape_only;
      } else {
        ++degradation_.color_only;
      }
    }
    const std::vector<double> theta =
        AssembleHybridTheta(shape_rows[q], color_rows[q], spec_.alpha,
                            spec_.beta, shape_live, color_live);
    predictions[q] =
        BankHybridArgminLabel(theta, bank_, spec_.strategy, fallback_label_);
  }
  return predictions;
}

Result<EvalReport> RunApproachBatched(const ApproachSpec& spec,
                                      const std::vector<ImageFeatures>& inputs,
                                      const std::vector<ImageFeatures>& gallery,
                                      const WarmRunOptions& options) {
  SNOR_TRACE_SPAN("serve.engine.run");
  StageTiming timing;
  Stopwatch stage_clock;
  SNOR_ASSIGN_OR_RETURN(
      std::unique_ptr<BatchEngine> engine,
      BatchEngine::Create(spec, gallery, options.engine,
                          options.baseline_seed));
  timing.extract_s = stage_clock.ElapsedSeconds();

  static obs::Counter& classified_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.items");
  static obs::Counter& skipped_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.skipped");

  // Identical skip/ledger semantics to the cold RunApproach: ingest
  // failures are skipped and recorded, preprocess failures are
  // fallback-classified and recorded.
  std::vector<ObjectClass> truth;
  std::vector<const ImageFeatures*> eligible;
  std::vector<ItemError> errors;
  truth.reserve(inputs.size());
  eligible.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ImageFeatures& f = inputs[i];
    if (!f.valid && !f.status.ok() &&
        f.status.code() != StatusCode::kNotFound) {
      errors.push_back({static_cast<int>(i), "ingest", f.status});
      skipped_counter.Increment();
      continue;
    }
    if (!f.valid) {
      errors.push_back(
          {static_cast<int>(i), "preprocess",
           f.status.ok() ? Status::NotFound("no foreground component")
                         : f.status});
    }
    truth.push_back(f.label);
    eligible.push_back(&f);
  }

  stage_clock.Reset();
  std::vector<ObjectClass> predictions;
  predictions.reserve(eligible.size());
  {
    SNOR_TRACE_SPAN("serve.engine.match");
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options.engine.batch_size));
    std::vector<const ImageFeatures*> chunk;
    for (std::size_t begin = 0; begin < eligible.size(); begin += batch) {
      const std::size_t end = std::min(eligible.size(), begin + batch);
      chunk.assign(eligible.begin() + static_cast<long>(begin),
                   eligible.begin() + static_cast<long>(end));
      const std::vector<ObjectClass> labels = engine->ClassifyBatch(chunk);
      predictions.insert(predictions.end(), labels.begin(), labels.end());
    }
  }
  timing.match_s = stage_clock.ElapsedSeconds();
  classified_counter.Increment(predictions.size());

  stage_clock.Reset();
  EvalReport report = Evaluate(truth, predictions);
  timing.score_s = stage_clock.ElapsedSeconds();

  report.attempted = static_cast<int>(inputs.size());
  report.errors = std::move(errors);
  report.degraded_shape_only = engine->degradation().shape_only;
  report.degraded_color_only = engine->degradation().color_only;
  report.timing = timing;
  return report;
}

}  // namespace snor::serve
