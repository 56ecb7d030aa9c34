// Serving-layer micro benchmarks: feature-store save/load throughput and
// batched sharded matching versus the cold per-query classifier loop —
// the numbers behind the `--feature-store` warm path on the table benches.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "serve/batch_engine.h"
#include "serve/feature_store.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

/// Synthetic feature bank shaped like SNS1 (8-bin histograms, valid Hu
/// moments): large enough to measure, cheap enough to build per-process.
std::vector<ImageFeatures> SyntheticBank(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ImageFeatures> bank(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = bank[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(8);
    for (double& bin : f.histogram.bins()) bin = rng.UniformDouble();
    f.histogram.NormalizeL1();
  }
  return bank;
}

std::string TempStorePath() {
  return "/tmp/snor_micro_serving.fst";
}

void BM_StoreSave(benchmark::State& state) {
  const auto bank =
      SyntheticBank(static_cast<std::size_t>(state.range(0)), 1);
  const std::string path = TempStorePath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SaveFeatureBank(path, 1, bank).ok());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreSave)->Arg(82)->Arg(1024);

void BM_StoreLoad(benchmark::State& state) {
  const auto bank =
      SyntheticBank(static_cast<std::size_t>(state.range(0)), 1);
  const std::string path = TempStorePath();
  if (!SaveFeatureBank(path, 1, bank).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto loaded = LoadFeatureBank(path, 1);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreLoad)->Arg(82)->Arg(1024);

/// Cold baseline: the sequential per-query classifier loop.
void BM_ColdClassifyAll(benchmark::State& state) {
  const auto gallery = SyntheticBank(1024, 2);
  const auto queries = SyntheticBank(256, 3);
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  auto classifier = MakeClassifier(spec, gallery).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier->ClassifyAll(queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_ColdClassifyAll);

/// Warm path: the same queries through the sharded batch engine.
void BM_BatchEngineClassify(benchmark::State& state) {
  const auto gallery = SyntheticBank(1024, 2);
  const auto queries = SyntheticBank(256, 3);
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  BatchEngineOptions options;
  options.num_shards = static_cast<int>(state.range(0));
  auto engine = BatchEngine::Create(spec, gallery, options).value();
  std::vector<const ImageFeatures*> batch;
  for (const ImageFeatures& q : queries) batch.push_back(&q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->ClassifyBatch(batch));
  }
  // Seconds of matching per query (the exact-path `match_s`).
  state.counters["match_s"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
// The first ClassifyBatch of a process runs several times slower than
// the steady state, and a short --benchmark_min_time would report that
// one cold iteration; the warm-up keeps it out of the measurement.
BENCHMARK(BM_BatchEngineClassify)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)
    ->MinWarmUpTime(0.5)
    ->UseRealTime();

/// ANN path: candidate retrieval + exact rerank. Reports per-query
/// `match_s` and `ann_recall` (label agreement with the exact engine on
/// the same queries) as benchmark counters.
void BM_BatchEngineClassifyAnn(benchmark::State& state) {
  const auto gallery = SyntheticBank(1024, 2);
  const auto queries = SyntheticBank(256, 3);
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  BatchEngineOptions exact_options;
  auto exact_engine = BatchEngine::Create(spec, gallery, exact_options).value();
  BatchEngineOptions ann_options;
  ann_options.match_mode = MatchMode::kAnn;
  ann_options.ann.candidates = static_cast<int>(state.range(0));
  auto engine = BatchEngine::Create(spec, gallery, ann_options).value();
  std::vector<const ImageFeatures*> batch;
  for (const ImageFeatures& q : queries) batch.push_back(&q);
  const std::vector<ObjectClass> exact_labels =
      exact_engine->ClassifyBatch(batch);
  std::vector<ObjectClass> ann_labels;
  for (auto _ : state) {
    ann_labels = engine->ClassifyBatch(batch);
    benchmark::DoNotOptimize(ann_labels);
  }
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ann_labels.size(); ++i) {
    if (ann_labels[i] == exact_labels[i]) ++agree;
  }
  state.counters["ann_recall"] = ann_labels.empty()
                                     ? 0.0
                                     : static_cast<double>(agree) /
                                           static_cast<double>(ann_labels.size());
  state.counters["match_s"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_BatchEngineClassifyAnn)
    ->Arg(16)
    ->Arg(48)
    ->MinWarmUpTime(0.5)
    ->UseRealTime();

}  // namespace
}  // namespace snor::serve

BENCHMARK_MAIN();
