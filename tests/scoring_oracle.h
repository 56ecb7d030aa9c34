#ifndef SNOR_TESTS_SCORING_ORACLE_H_
#define SNOR_TESTS_SCORING_ORACLE_H_

/// \file
/// Reference oracle for the scoring layer: the array-of-structs loops the
/// classifiers ran before every gallery matcher moved onto the SoA bank
/// kernels of core/feature_bank.h. They walk a `std::vector<ImageFeatures>`
/// view by view, so they share no iteration or row-addressing code with
/// the bank kernels. The differential fuzz tests and the engine
/// bit-identity tests compare both kernel instantiations (ViewRange and
/// ViewList) against them.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "core/feature_bank.h"
#include "util/fault.h"

namespace snor::oracle {

/// Shape-only partial argmin over gallery views [begin, end).
inline PartialBest ShapeArgminOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, ShapeMatchMethod method) {
  PartialBest partial;
  partial.score = kUnusableScore;
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    const double d = MaybePoisonScore(MatchShapes(input.hu, view.hu, method));
    if (!std::isfinite(d)) continue;
    if (d < partial.score) {
      partial.score = d;
      partial.label = view.label;
      partial.found = true;
    }
  }
  return partial;
}

/// Colour-only partial arg-optimum over gallery views [begin, end).
inline PartialBest ColorArgbestOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, HistCompareMethod method) {
  const bool maximize = IsSimilarityMetric(method);
  PartialBest partial;
  partial.score = maximize ? -kUnusableScore : kUnusableScore;
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    const double c = CompareHistograms(input.histogram, view.histogram, method);
    if (!std::isfinite(c)) continue;
    const bool better = maximize ? c > partial.score : c < partial.score;
    if (better) {
      partial.score = c;
      partial.label = view.label;
      partial.found = true;
    }
  }
  return partial;
}

/// Colour comparison as a "smaller is better" theta term.
inline double HybridColorDistance(const ColorHistogram& a,
                                  const ColorHistogram& b,
                                  HistCompareMethod method) {
  const double c = CompareHistograms(a, b, method);
  if (!IsSimilarityMetric(method)) return c;
  return 1.0 / std::max(c, 1e-6);
}

/// Hybrid per-view score fill over gallery views [begin, end).
inline void ComputeHybridScoresOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable) {
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    if (use_shape) {
      const double s =
          MaybePoisonScore(MatchShapes(input.hu, view.hu, shape_method));
      if (std::isfinite(s) && s < kUnusableScore) {
        (*shape_scores)[i] = s;
        ++*shape_usable;
      }
    }
    if (use_color) {
      const double c =
          HybridColorDistance(input.histogram, view.histogram, color_method);
      if (std::isfinite(c)) {
        (*color_scores)[i] = c;
        ++*color_usable;
      }
    }
  }
}

/// The three §3.2 argmin strategies over theta (index-aligned with
/// `gallery`).
inline ObjectClass HybridArgminLabel(const std::vector<double>& theta,
                                     const std::vector<ImageFeatures>& gallery,
                                     HybridStrategy strategy,
                                     ObjectClass fallback) {
  switch (strategy) {
    case HybridStrategy::kWeightedSum: {
      double best = kUnusableScore;
      ObjectClass best_label = fallback;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] < best) {
          best = theta[i];
          best_label = gallery[i].label;
        }
      }
      return best_label;
    }
    case HybridStrategy::kMicroAverage: {
      std::map<std::pair<int, int>, std::pair<double, int>> acc;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] >= kUnusableScore) continue;
        auto& entry = acc[{ClassIndex(gallery[i].label), gallery[i].model_id}];
        entry.first += theta[i];
        entry.second += 1;
      }
      double best = kUnusableScore;
      ObjectClass best_label = fallback;
      for (const auto& [key, entry] : acc) {
        const double mean = entry.first / entry.second;
        if (mean < best) {
          best = mean;
          best_label = ClassFromIndex(key.first);
        }
      }
      return best_label;
    }
    case HybridStrategy::kMacroAverage: {
      std::array<double, kNumClasses> sums{};
      std::array<int, kNumClasses> counts{};
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] >= kUnusableScore) continue;
        const auto c = static_cast<std::size_t>(ClassIndex(gallery[i].label));
        sums[c] += theta[i];
        ++counts[c];
      }
      double best = kUnusableScore;
      ObjectClass best_label = fallback;
      for (std::size_t c = 0; c < sums.size(); ++c) {
        if (counts[c] == 0) continue;
        const double mean = sums[c] / counts[c];
        if (mean < best) {
          best = mean;
          best_label = ClassFromIndex(static_cast<int>(c));
        }
      }
      return best_label;
    }
  }
  return fallback;
}

/// One cold classification of `input` for a non-baseline `spec`, with the
/// classifiers' degradation rules; degradations are counted in `*stats`.
inline ObjectClass Classify(const ApproachSpec& spec,
                            const std::vector<ImageFeatures>& gallery,
                            const ImageFeatures& input,
                            DegradationStats* stats) {
  const ObjectClass fallback =
      gallery.empty() ? ClassFromIndex(0) : gallery.front().label;
  const std::size_t n = gallery.size();
  switch (spec.kind) {
    case ApproachSpec::Kind::kShape: {
      if (!ShapeModalityUsable(input)) {
        ++stats->fallback;
        return fallback;
      }
      const PartialBest best =
          ShapeArgminOverRange(input, gallery, 0, n, spec.shape);
      if (!best.found) {
        ++stats->fallback;
        return fallback;
      }
      return best.label;
    }
    case ApproachSpec::Kind::kColor: {
      if (!input.valid) {
        ++stats->fallback;
        return fallback;
      }
      const PartialBest best =
          ColorArgbestOverRange(input, gallery, 0, n, spec.color);
      if (!best.found) {
        ++stats->fallback;
        return fallback;
      }
      return best.label;
    }
    case ApproachSpec::Kind::kHybrid: {
      const bool use_shape = ShapeModalityUsable(input);
      const bool use_color = ColorModalityUsable(input);
      if (!use_shape && !use_color) {
        ++stats->fallback;
        return fallback;
      }
      std::vector<double> shape_scores(n, kUnusableScore);
      std::vector<double> color_scores(n, kUnusableScore);
      std::size_t shape_usable = 0;
      std::size_t color_usable = 0;
      ComputeHybridScoresOverRange(input, gallery, 0, n, spec.shape,
                                   spec.color, use_shape, use_color,
                                   &shape_scores, &color_scores,
                                   &shape_usable, &color_usable);
      const bool shape_live = use_shape && shape_usable > 0;
      const bool color_live = use_color && color_usable > 0;
      if (!shape_live && !color_live) {
        ++stats->fallback;
        return fallback;
      }
      if (shape_live && !color_live) ++stats->shape_only;
      if (color_live && !shape_live) ++stats->color_only;
      return HybridArgminLabel(
          AssembleHybridTheta(shape_scores, color_scores, spec.alpha,
                              spec.beta, shape_live, color_live),
          gallery, spec.strategy, fallback);
    }
    case ApproachSpec::Kind::kBaseline:
      break;
  }
  return fallback;
}

}  // namespace snor::oracle

#endif  // SNOR_TESTS_SCORING_ORACLE_H_
