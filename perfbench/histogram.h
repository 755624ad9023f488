// Latency histogram with a fixed memory footprint, so recording a sample
// never allocates and the harness's own memory does not grow with the number
// of operations a run completes (peak RSS is read at the end of the measured
// window).  Log-linear buckets in the HdrHistogram layout: exact below
// 1,024 ns, then 512 buckets per power of two (relative width 1/512) up to
// 2^37 ns (about 137 s); larger values land in the last bucket.
#ifndef MOIRA_PERFBENCH_HISTOGRAM_H_
#define MOIRA_PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class LatencyHistogram {
 public:
  static constexpr int kLinearBits = 10;                     // exact below 2^10
  static constexpr int64_t kLinear = int64_t{1} << kLinearBits;
  static constexpr int64_t kPerOctave = kLinear / 2;         // buckets per power of two
  static constexpr int kMaxBits = 37;
  static constexpr size_t kBuckets =
      static_cast<size_t>(kLinear + (kMaxBits - kLinearBits) * kPerOctave);

  // Allocates and zero-fills every bucket, so the pages are resident before
  // the first sample.
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(int64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }
  uint64_t count() const { return total_; }

  struct Bucket {
    int64_t low;
    int64_t width;
    uint64_t count;
  };
  // Every non-empty bucket, ascending.
  std::vector<Bucket> NonEmpty() const {
    std::vector<Bucket> out;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] != 0) {
        const auto [low, width] = Bounds(i);
        out.push_back(Bucket{low, width, counts_[i]});
      }
    }
    return out;
  }

  static size_t Index(int64_t ns) {
    if (ns < kLinear) {
      return static_cast<size_t>(ns < 0 ? 0 : ns);
    }
    const int octave =
        std::min(static_cast<int>(std::bit_width(static_cast<uint64_t>(ns))) - 1, kMaxBits - 1);
    if (octave == kMaxBits - 1 && (ns >> octave) > 1) {
      return kBuckets - 1;
    }
    const int shift = octave - (kLinearBits - 1);
    return static_cast<size_t>(kLinear + (octave - kLinearBits) * kPerOctave +
                               ((ns >> shift) - kPerOctave));
  }

  // Lowest value and width of bucket `i`.
  static std::pair<int64_t, int64_t> Bounds(size_t i) {
    if (static_cast<int64_t>(i) < kLinear) {
      return {static_cast<int64_t>(i), 1};
    }
    const int64_t k = static_cast<int64_t>(i) - kLinear;
    const int octave = kLinearBits + static_cast<int>(k / kPerOctave);
    const int shift = octave - (kLinearBits - 1);
    return {(kPerOctave + k % kPerOctave) << shift, int64_t{1} << shift};
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_HISTOGRAM_H_
