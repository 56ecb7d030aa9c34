#include "core/classifiers.h"

#include <cmath>

namespace snor {

bool ShapeModalityUsable(const ImageFeatures& input) {
  if (!input.valid) return false;
  for (double h : input.hu) {
    if (!std::isfinite(h)) return false;
  }
  return true;
}

bool ColorModalityUsable(const ImageFeatures& input) {
  double mass = 0.0;
  for (double b : input.histogram.bins()) {
    if (!std::isfinite(b) || b < 0.0) return false;
    mass += b;
  }
  return mass > 0.0;
}

MatchingClassifier::MatchingClassifier(
    const std::vector<ImageFeatures>& gallery)
    : bank_(PackFeatureBank(gallery)) {}

std::vector<ObjectClass> MatchingClassifier::ClassifyAll(
    const std::vector<ImageFeatures>& inputs) {
  std::vector<ObjectClass> predictions;
  predictions.reserve(inputs.size());
  for (const auto& input : inputs) predictions.push_back(Classify(input));
  return predictions;
}

ObjectClass MatchingClassifier::FallbackLabel() const {
  if (bank_.empty()) return ClassFromIndex(0);
  return bank_.labels.front();
}

RandomBaselineClassifier::RandomBaselineClassifier(
    const std::vector<ImageFeatures>& gallery, std::uint64_t seed)
    : MatchingClassifier(gallery), rng_(seed) {}

ObjectClass RandomBaselineClassifier::Classify(
    const ImageFeatures& /*input*/) {
  return ClassFromIndex(static_cast<int>(rng_.Index(kNumClasses)));
}

ShapeOnlyClassifier::ShapeOnlyClassifier(
    const std::vector<ImageFeatures>& gallery, ShapeMatchMethod method)
    : MatchingClassifier(gallery), method_(method) {}

ObjectClass ShapeOnlyClassifier::Classify(const ImageFeatures& input) {
  if (!ShapeModalityUsable(input)) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  const PartialBest best = BankShapeArgmin(input, bank(), AllViews(), method_);
  if (!best.found) {
    // Every view's score was unusable (e.g. a NaN-score storm).
    ++degradation_.fallback;
    return FallbackLabel();
  }
  return best.label;
}

ColorOnlyClassifier::ColorOnlyClassifier(
    const std::vector<ImageFeatures>& gallery, HistCompareMethod method)
    : MatchingClassifier(gallery), method_(method) {}

ObjectClass ColorOnlyClassifier::Classify(const ImageFeatures& input) {
  if (!input.valid) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  const PartialBest best =
      BankColorArgbest(input, bank(), AllViews(), method_);
  if (!best.found) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  return best.label;
}

HybridClassifier::HybridClassifier(const std::vector<ImageFeatures>& gallery,
                                   ShapeMatchMethod shape_method,
                                   HistCompareMethod color_method,
                                   double alpha, double beta,
                                   HybridStrategy strategy)
    : MatchingClassifier(gallery),
      shape_method_(shape_method),
      color_method_(color_method),
      alpha_(alpha),
      beta_(beta),
      strategy_(strategy) {}

std::vector<double> HybridClassifier::ScoresForModes(
    const ImageFeatures& input, bool use_shape, bool use_color,
    bool* shape_live_out, bool* color_live_out) const {
  const std::size_t n = bank().size();

  // Per-view raw scores of each requested modality; a non-finite score
  // (e.g. an injected NaN) marks that view's modality unusable.
  std::vector<double> shape_scores(n, kUnusableScore);
  std::vector<double> color_scores(n, kUnusableScore);
  std::size_t shape_usable = 0;
  std::size_t color_usable = 0;
  BankHybridScores(input, bank(), AllViews(), shape_method_, color_method_,
                   use_shape, use_color, &shape_scores, &color_scores,
                   &shape_usable, &color_usable);

  // A modality whose every view score is poisoned has collapsed for this
  // input; the surviving modality alone drives theta.
  const bool shape_live = use_shape && shape_usable > 0;
  const bool color_live = use_color && color_usable > 0;
  if (shape_live_out != nullptr) *shape_live_out = shape_live;
  if (color_live_out != nullptr) *color_live_out = color_live;

  return AssembleHybridTheta(shape_scores, color_scores, alpha_, beta_,
                             shape_live, color_live);
}

std::vector<double> HybridClassifier::ViewScores(
    const ImageFeatures& input) const {
  const bool usable = ShapeModalityUsable(input) && ColorModalityUsable(input);
  return ScoresForModes(input, usable, usable);
}

ObjectClass HybridClassifier::Classify(const ImageFeatures& input) {
  const bool use_shape = ShapeModalityUsable(input);
  const bool use_color = ColorModalityUsable(input);

  // Graceful degradation: a frame with one poisoned modality is matched
  // on the surviving one and recorded, instead of failing outright.
  if (!use_shape && !use_color) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  bool shape_live = false;
  bool color_live = false;
  const std::vector<double> theta =
      ScoresForModes(input, use_shape, use_color, &shape_live, &color_live);
  if (!shape_live && !color_live) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  if (shape_live != color_live) {
    if (shape_live) {
      ++degradation_.shape_only;
    } else {
      ++degradation_.color_only;
    }
  }
  return BankHybridArgminLabel(theta, bank(), strategy_, FallbackLabel());
}

}  // namespace snor
