#ifndef SNOR_CORE_CLASSIFIERS_H_
#define SNOR_CORE_CLASSIFIERS_H_

#include <cstdint>
#include <vector>

#include "core/feature_bank.h"
#include "core/feature_cache.h"
#include "features/histogram.h"
#include "geometry/moments.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace snor {

/// \brief Counters describing how often a classifier had to shed a
/// modality to keep answering (graceful degradation, never a crash).
struct DegradationStats {
  /// Colour modality unusable for the input; matched on shape alone.
  std::uint64_t shape_only = 0;
  /// Shape modality unusable for the input; matched on colour alone.
  std::uint64_t color_only = 0;
  /// Neither modality usable, or no view scored a usable value; the
  /// deterministic fallback label was used.
  std::uint64_t fallback = 0;

  std::uint64_t total() const { return shape_only + color_only + fallback; }
};

/// \brief Base class for gallery-matching classifiers: the predicted label
/// comes from the reference view(s) optimising a similarity or distance
/// function against the input.
///
/// The constructor packs the gallery into one FeatureBank and keeps
/// nothing else of it; every subclass scores bank rows with the shared
/// kernels of core/feature_bank.h. Construction tolerates an empty
/// gallery (every prediction is then the fallback label); use
/// `MakeClassifier` for a validating factory.
///
/// OWNS_VIEWS: `bank()` rows are borrowed from the classifier and die with
/// it; take them inside the scan that uses them.
class SNOR_OWNS_VIEWS MatchingClassifier {
 public:
  explicit MatchingClassifier(const std::vector<ImageFeatures>& gallery);
  virtual ~MatchingClassifier() = default;

  /// Predicts the class of one input's features. Never fails: degraded
  /// inputs fall back to the surviving modality (see `degradation()`).
  virtual ObjectClass Classify(const ImageFeatures& input) = 0;

  /// Predicts every input (convenience wrapper).
  [[nodiscard]] std::vector<ObjectClass> ClassifyAll(
      const std::vector<ImageFeatures>& inputs);

  /// The packed gallery, view-index-aligned with the constructor input.
  const FeatureBank& bank() const SNOR_LIFETIME_BOUND { return bank_; }

  /// How often Classify had to degrade since construction.
  const DegradationStats& degradation() const { return degradation_; }

 protected:
  /// Deterministic fallback when no gallery view produces a usable score:
  /// the first view's label (class 0 for an empty gallery).
  ObjectClass FallbackLabel() const;

  /// The whole bank as one view set.
  ViewRange AllViews() const { return ViewRange(0, bank_.size()); }

  DegradationStats degradation_;

 private:
  FeatureBank bank_;
};

/// True when the input carries a usable contour-shape modality (valid
/// preprocessing and finite Hu moments).
[[nodiscard]] bool ShapeModalityUsable(const ImageFeatures& input);

/// True when the input carries a usable colour modality (finite histogram
/// with positive mass).
[[nodiscard]] bool ColorModalityUsable(const ImageFeatures& input);

/// \brief Uniform random label assignment (the paper's reference baseline).
class RandomBaselineClassifier : public MatchingClassifier {
 public:
  RandomBaselineClassifier(const std::vector<ImageFeatures>& gallery,
                           std::uint64_t seed);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  Rng rng_;
};

/// \brief Shape-only matching: Hu-moment `MatchShapes` distance, argmin
/// over all gallery views (§3.2, "Shape only L1/L2/L3").
class ShapeOnlyClassifier : public MatchingClassifier {
 public:
  ShapeOnlyClassifier(const std::vector<ImageFeatures>& gallery,
                      ShapeMatchMethod method);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  ShapeMatchMethod method_;
};

/// \brief Colour-only matching: RGB-histogram comparison, arg-optimum over
/// all gallery views (§3.2, "Color only ...").
class ColorOnlyClassifier : public MatchingClassifier {
 public:
  ColorOnlyClassifier(const std::vector<ImageFeatures>& gallery,
                      HistCompareMethod method);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  HistCompareMethod method_;
};

/// \brief Hybrid matching: theta = alpha * S + beta * C with the three
/// argmin strategies of §3.2. For similarity-style colour metrics
/// (Correlation, Intersection) the inverse of C enters theta, matching
/// the paper.
class HybridClassifier : public MatchingClassifier {
 public:
  HybridClassifier(const std::vector<ImageFeatures>& gallery,
                   ShapeMatchMethod shape_method,
                   HistCompareMethod color_method, double alpha, double beta,
                   HybridStrategy strategy);

  /// Classifies with graceful degradation: when one modality is unusable
  /// for the input (missing contour, poisoned NaN scores, empty
  /// histogram) the surviving modality alone drives the argmin and the
  /// degradation is recorded, instead of the frame failing.
  ObjectClass Classify(const ImageFeatures& input) override;

  /// The per-view theta scores for one input (exposed for tests and
  /// diagnostics); index-aligned with bank(). Views whose score is
  /// non-finite (e.g. an injected NaN) are reported as unusable (a huge
  /// positive sentinel that argmin never selects).
  [[nodiscard]] std::vector<double> ViewScores(const ImageFeatures& input) const;

 private:
  /// Per-view theta restricted to the usable modalities. On return,
  /// `*shape_live`/`*color_live` (optional) say whether each requested
  /// modality actually contributed — a modality whose every view score
  /// is poisoned collapses and the survivor drives theta alone.
  std::vector<double> ScoresForModes(const ImageFeatures& input,
                                     bool use_shape, bool use_color,
                                     bool* shape_live = nullptr,
                                     bool* color_live = nullptr) const;

  ShapeMatchMethod shape_method_;
  HistCompareMethod color_method_;
  double alpha_;
  double beta_;
  HybridStrategy strategy_;
};

}  // namespace snor

#endif  // SNOR_CORE_CLASSIFIERS_H_
