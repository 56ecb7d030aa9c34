#ifndef SNOR_CORE_FEATURE_BANK_H_
#define SNOR_CORE_FEATURE_BANK_H_

/// \file
/// Structure-of-arrays gallery feature banks, the one scoring layer every
/// gallery matcher runs on, plus the gallery-level ANN view index.
///
/// The bank packs the per-view matching features (Hu moments,
/// L1-normalized color histograms, labels, validity) into flat, padded,
/// 64-byte-stride arrays so the per-view inner loops stream contiguous
/// memory, and the descriptor banks do the same for float and binarized
/// (BRIEF/ORB) keypoint descriptors.
///
/// One kernel body per decision. Shape argmin, colour argbest and the
/// hybrid score fill are each written once, templated on the view
/// sequence they visit: a contiguous `ViewRange` (the cold classifiers'
/// full scan and the engine's exact-mode shards) or a sorted `ViewList`
/// (the engine's ANN rerank candidates). The range instantiation is a
/// plain counted loop with no index indirection. Every kernel calls the
/// raw per-pair functions (`MatchShapesRaw`, `CompareHistogramsRaw`,
/// `HybridColorDistanceRaw`), scans views in ascending index order with
/// the same skip rules (invalid view, non-finite score) and strict
/// comparisons, and probes `MaybePoisonScore` at the same per-view points,
/// so a sharded scan merges to exactly the sequential result. The AoS
/// reference loops in tests/scoring_oracle.h pin this down in the
/// differential fuzz tests.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <vector>

#include "core/feature_cache.h"
#include "features/histogram.h"
#include "features/keypoint.h"
#include "features/matcher.h"
#include "geometry/moments.h"
#include "util/thread_annotations.h"

namespace snor {

/// \brief Argmin aggregation strategies for the hybrid pipeline (§3.2).
enum class HybridStrategy {
  /// argmin over every individual view score (the paper's Theta_T).
  kWeightedSum,
  /// argmin over per-model score averages (micro-average, Theta_Z).
  kMicroAverage,
  /// argmin over per-class score averages (macro-average, Theta_C).
  kMacroAverage,
};

/// Sentinel marking a per-view score as unusable (poisoned, invalid view,
/// or collapsed modality). Argmin reductions never select it.
inline constexpr double kUnusableScore = std::numeric_limits<double>::max();

/// \brief Partial arg-optimum of one view set: the strictly best usable
/// view score seen while scanning the set in ascending index order.
/// Merging partials of contiguous ascending ranges with the same strict
/// comparison reproduces the sequential scan bit-for-bit, which is what
/// lets the sharded BatchEngine return cold-path-identical labels.
struct PartialBest {
  double score = 0.0;
  ObjectClass label = ObjectClass::kChair;
  /// False when no view in the set produced a usable score.
  bool found = false;
};

/// Colour comparison of two bin arrays of length `n` as a "smaller is
/// better" score the way the paper uses it in theta: distances pass
/// through, similarities are inverted.
[[nodiscard]] double HybridColorDistanceRaw(const double* a, const double* b,
                                            std::size_t n,
                                            HistCompareMethod method);

/// Combines per-view modality scores into theta: alpha*S + beta*C when
/// both modalities are live, the surviving modality alone otherwise.
/// Entries stay kUnusableScore when a required score is unusable.
[[nodiscard]] std::vector<double> AssembleHybridTheta(
    const std::vector<double>& shape_scores,
    const std::vector<double>& color_scores, double alpha, double beta,
    bool shape_live, bool color_live);

/// \brief SoA bank of the per-view matching features of one gallery.
///
/// Rows are padded to a 64-byte stride (8 doubles) so consecutive views
/// never straddle the same cache line pair and the autovectorizer sees
/// constant-stride streams. Pad lanes are zero and never read.
///
/// OWNS_VIEWS: row accessors hand out borrowed pointers into the flat
/// arrays. A row pointer dies when the bank is destroyed, reassigned,
/// swapped, or repacked — take rows inside the scan that uses them
/// (never across a snapshot swap) and re-derive after any reload. The
/// snor_analyze borrow pass enforces this generation discipline.
struct SNOR_OWNS_VIEWS FeatureBank {
  /// Hu rows are 7 moments + 1 zero pad lane.
  static constexpr std::size_t kHuStride = 8;

  std::size_t num_views = 0;
  /// Histogram geometry shared by every view (validated at pack time).
  int bins_per_channel = 0;
  std::size_t hist_bins = 0;    ///< Logical bins per row.
  std::size_t hist_stride = 0;  ///< Padded row width (multiple of 8).

  std::vector<double> hu;            ///< num_views * kHuStride.
  std::vector<double> hist;          ///< num_views * hist_stride.
  std::vector<std::uint8_t> valid;   ///< 1 = usable view.
  std::vector<ObjectClass> labels;   ///< Per-view class label.
  std::vector<int> model_ids;        ///< Per-view model id.

  std::size_t size() const { return num_views; }
  bool empty() const { return num_views == 0; }

  const double* HuRow(std::size_t i) const SNOR_LIFETIME_BOUND {
    return hu.data() + i * kHuStride;
  }
  const double* HistRow(std::size_t i) const SNOR_LIFETIME_BOUND {
    return hist.data() + i * hist_stride;
  }
  bool IsValid(std::size_t i) const { return valid[i] != 0; }
};

/// Packs a gallery into an SoA bank. Bin values, Hu moments, labels and
/// validity are copied exactly (no renormalization — pack/unpack is a
/// bit-exact round trip). All views must share one histogram geometry.
[[nodiscard]] FeatureBank PackFeatureBank(
    const std::vector<ImageFeatures>& gallery);

/// Inverse of PackFeatureBank. `status` is not carried (it is not
/// serialized by the feature store either); everything the matchers read —
/// label, model id, hu, validity, histogram bins — round-trips exactly.
[[nodiscard]] std::vector<ImageFeatures> UnpackFeatureBank(
    const FeatureBank& bank);

/// Contiguous bank views [begin, end): the exact-mode view set (the whole
/// bank, or one engine shard). Iterating it is a plain counted loop.
using ViewRange = std::ranges::iota_view<std::size_t, std::size_t>;

/// Sorted ascending bank view indices: the ANN-mode view set (one query's
/// rerank candidates). Ascending order makes the first-strict-optimum
/// tie-break visit views as a full scan restricted to the subset would.
using ViewList = std::span<const int>;

// The three scoring kernels. `Views` is ViewRange or ViewList (both are
// explicitly instantiated in feature_bank.cc).

/// Shape-only partial argmin over `views`: skips invalid views and
/// non-finite (poisoned) scores, keeps the first strict minimum.
template <typename Views>
[[nodiscard]] PartialBest BankShapeArgmin(const ImageFeatures& input,
                                          const FeatureBank& bank,
                                          const Views& views,
                                          ShapeMatchMethod method);

/// Colour-only partial arg-optimum over `views`: maximises similarity
/// metrics, minimises distance metrics, skipping invalid views and
/// non-finite scores.
template <typename Views>
[[nodiscard]] PartialBest BankColorArgbest(const ImageFeatures& input,
                                           const FeatureBank& bank,
                                           const Views& views,
                                           HistCompareMethod method);

/// Hybrid score fill: writes `shape_scores`/`color_scores` (pre-sized to
/// the bank, filled with kUnusableScore) at every usable view of `views`
/// and counts the usable scores of each requested modality.
template <typename Views>
void BankHybridScores(const ImageFeatures& input, const FeatureBank& bank,
                      const Views& views, ShapeMatchMethod shape_method,
                      HistCompareMethod color_method, bool use_shape,
                      bool use_color, std::vector<double>* shape_scores,
                      std::vector<double>* color_scores,
                      std::size_t* shape_usable, std::size_t* color_usable);

/// The three argmin strategies of §3.2 over a per-view theta vector
/// (index-aligned with the bank); `fallback` wins when no view is usable.
/// The only hybrid label reduction: the cold HybridClassifier and the
/// BatchEngine both call it.
[[nodiscard]] ObjectClass BankHybridArgminLabel(
    const std::vector<double>& theta, const FeatureBank& bank,
    HybridStrategy strategy, ObjectClass fallback);

/// \brief Flat bank of equal-length float descriptors (one row per
/// descriptor, stride padded to 16 floats / 64 bytes).
///
/// OWNS_VIEWS: Row() borrows from `data` under the same generation
/// discipline as FeatureBank.
struct SNOR_OWNS_VIEWS FloatDescriptorBank {
  std::size_t count = 0;
  std::size_t dim = 0;
  std::size_t stride = 0;
  std::vector<float> data;

  const float* Row(std::size_t i) const SNOR_LIFETIME_BOUND {
    return data.data() + i * stride;
  }
};

/// All descriptors must share one dimension.
[[nodiscard]] FloatDescriptorBank PackFloatDescriptors(
    const std::vector<FloatDescriptor>& descriptors);

/// out[i] = FloatDistance(query, descriptor i); bit-identical to the
/// per-descriptor loop (shared FloatDistanceRaw core).
void BankFloatDistances(const FloatDescriptorBank& bank,
                        const FloatDescriptor& query, FloatNorm norm,
                        float* out);

/// out[i] = squared L2 distance from query to descriptor i, accumulated in
/// float across independent lanes. Retrieval-only: the reassociated float
/// sum is NOT bit-identical to FloatDistanceRaw's serial double
/// accumulation, but squared L2 is strictly monotone in L2, so top-R sets
/// agree up to rounding ties. FloatDistanceRaw's serial dependence chain
/// caps the full-bank scan at scalar add latency; the independent lanes
/// here let it run at SIMD multiply-add throughput instead, which is what
/// makes the flat-scan retrieval in GalleryViewIndex beat the exact
/// kernels. Candidate *scores* are discarded — exact rerank re-scores with
/// the bit-identical kernels — so retrieval arithmetic never leaks into
/// results.
void BankFloatSquaredL2(const FloatDescriptorBank& bank,
                        const FloatDescriptor& query, float* out);

/// \brief Flat bank of 256-bit binary descriptors as aligned u64 words.
///
/// OWNS_VIEWS: Row() borrows from `words` under the same generation
/// discipline as FeatureBank.
struct SNOR_OWNS_VIEWS BinaryDescriptorBank {
  static constexpr std::size_t kWordsPerRow = 4;  // 256 bits.

  std::size_t count = 0;
  std::vector<std::uint64_t> words;  ///< count * kWordsPerRow.

  const std::uint64_t* Row(std::size_t i) const SNOR_LIFETIME_BOUND {
    return words.data() + i * kWordsPerRow;
  }
};

[[nodiscard]] BinaryDescriptorBank PackBinaryDescriptors(
    const std::vector<BinaryDescriptor>& descriptors);

/// out[i] = HammingDistance(query, descriptor i); integer popcount over
/// pre-packed words, trivially identical to the byte-wise loop.
void BankHammingDistances(const BinaryDescriptorBank& bank,
                          const BinaryDescriptor& query, int* out);

/// Options for the gallery-level ANN view index.
struct GalleryIndexOptions {
  /// Top-R candidates requested per modality before exact rerank.
  int candidates = 48;
  /// Shape metric used by the exact shape prefilter (the engine passes
  /// its approach's method so prefilter ranks equal rerank ranks).
  ShapeMatchMethod shape_method = ShapeMatchMethod::kI3;
};

/// \brief Candidate retrieval over gallery views for the ANN match mode,
/// one retrieval structure per modality:
///
///  - shape: an exact top-R prefilter over precomputed log-Hu maps — a
///    full `MatchShapesFromMaps` scan amortises the transcendentals, costs
///    a fraction of one color distance, and is both cheaper and strictly
///    more faithful than any Euclidean proxy of the non-metric shape
///    distances (I1-I3 are relative or Chebyshev-like; no k-d embedding
///    ranks them reliably);
///  - color: top-R in the full sqrt-space histogram embedding
///    e_i = sqrt(bin_i). Hellinger distance is exactly (1/sqrt(2)) * L2
///    in sqrt space, so embedding ranks equal exact Hellinger ranks (up
///    to float rounding) while each embedding distance costs plain
///    multiply-adds instead of the exact kernel's per-pair sqrt. The
///    embeddings live in a flat SoA FloatDescriptorBank scanned by the
///    vectorized batch kernel — measured faster than any k-d traversal at
///    histogram dimensionality, where bounded-leaf-check trees also
///    collapse to near-random candidates.
///
/// The index only *proposes* candidate view indices; callers rerank them
/// with the exact bank kernels, so `--match-mode=ann` accuracy degrades
/// only by bounded recall loss, never by approximate scores.
class GalleryViewIndex {
 public:
  [[nodiscard]] static GalleryViewIndex Build(
      const FeatureBank& bank, const GalleryIndexOptions& options = {});

  /// Union of per-modality top-R candidate view indices for `query`,
  /// sorted ascending (deterministic rerank order). Empty when no usable
  /// modality — callers fall back to a full exact scan.
  [[nodiscard]] std::vector<int> Candidates(const ImageFeatures& query,
                                            bool use_shape,
                                            bool use_color) const;

  int candidates_per_modality() const { return options_.candidates; }

  /// Sqrt-space color embedding (exposed for tests): one float per
  /// histogram bin, `bins_per_channel`^3 total.
  [[nodiscard]] static FloatDescriptor ColorEmbedding(const double* bins,
                                                      int bins_per_channel);

 private:
  GalleryIndexOptions options_;
  /// Exact shape prefilter rows: precomputed log-Hu maps of valid views
  /// with finite Hu moments.
  std::vector<LogHuMap> shape_maps_;
  std::vector<int> shape_ids_;
  /// Sqrt-space color embeddings: flat SoA bank scanned by the batch
  /// float kernel.
  FloatDescriptorBank color_bank_;
  std::vector<int> color_ids_;
};

}  // namespace snor

#endif  // SNOR_CORE_FEATURE_BANK_H_
