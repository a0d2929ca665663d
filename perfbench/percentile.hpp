// Exact nearest-rank percentiles over raw samples.
//
// The q-th percentile of n samples is the sample at 1-based rank
// ceil(q/100 * n) in ascending order. It is always an observed value,
// never an interpolation, so ties and a single sample need no special
// case. A percentile is only worth reporting when at least kMinBeyond
// samples lie beyond its rank; with fewer, one outlier moves it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the q-th percentile (0 < q <= 100) among
/// n > 0 samples. q is taken to a thousandth of a percent and the rank is
/// computed in integers, so 90% of 100 samples is rank 90 exactly.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto milli = static_cast<std::uint64_t>(std::llround(q * 1000.0));
  const std::uint64_t rank = (milli * n + 99'999) / 100'000;
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// Samples strictly beyond the q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// True when the q-th percentile of n samples has kMinBeyond samples
/// beyond it.
inline bool resolvable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// The q-th percentile of `samples` (0 when empty). Reorders `samples`.
template <typename T>
double percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0;
  auto nth = samples.begin() +
             static_cast<std::ptrdiff_t>(nearest_rank(samples.size(), q) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

/// A percentile robust to a transient stall: the samples, in the order
/// they were taken, are cut into `chunks` equal contiguous runs, each
/// run's exact nearest-rank percentile is taken, and the median of those
/// is reported. `chunks` is the largest of 5, 3 and 1 that leaves every
/// run with kMinBeyond samples beyond its rank.
struct ChunkedPercentile {
  double value = 0;
  std::size_t chunks = 1;
  bool resolvable = false;  ///< every chunk has kMinBeyond beyond its rank
};

inline ChunkedPercentile chunked_percentile(const std::vector<double>& samples,
                                            double q) {
  const std::size_t n = samples.size();
  std::size_t chunks = 1;
  for (std::size_t k : {5, 3}) {
    if (perfbench::resolvable(n / k, q)) {
      chunks = k;
      break;
    }
  }
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> part(
        samples.begin() + static_cast<std::ptrdiff_t>(n * c / chunks),
        samples.begin() + static_cast<std::ptrdiff_t>(n * (c + 1) / chunks));
    per_chunk.push_back(percentile(part, q));
  }
  return {percentile(per_chunk, 50), chunks,
          perfbench::resolvable(n / chunks, q)};
}

}  // namespace perfbench
