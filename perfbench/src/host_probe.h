// Host-speed probe: a fixed kernel owned by the benchmark, timed between
// ops so that every time the benchmark reports is read at one reference
// host speed.
//
// On a shared virtual machine the speed of the same code drifts by tens
// of percent, at times 2x, over tens of seconds with the load of other
// tenants. The drift is not uniform: a dependent multiply chain slows by
// ~10% while a multi-limb multiply-accumulate slows by up to 2x, and the
// library's ops lie in between. The probe times one of each, on a few
// kilobytes of its own memory, so its time follows the host and never
// the library: it calls no library code, allocates nothing and reads
// nothing the ops wrote. A pass's latencies (and the set-ups timed after
// it) are multiplied by kReferenceSeconds over the median probe time
// during that pass. A slower library moves the scaled times in full; a
// slower host moves the probe as well and cancels out.
#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <vector>

#include "report.h"

namespace perfbench {

class HostProbe {
 public:
  /// The probe's time on a quiet 4-CPU x86-64 host (Xeon, RelWithDebInfo
  /// build); scaled times are what that host would have measured.
  static constexpr double kReferenceSeconds = 0.8e-3;
  /// Op time between samples: ~1 ms of probe per 50 ms keeps the overhead
  /// near 2% and still gives every pass a dozen samples or more.
  static constexpr double kIntervalSeconds = 0.05;

  /// Takes a sample when none was taken in the last kIntervalSeconds.
  void MaybeSample() {
    if (window_.empty() ||
        SecondsBetween(last_, Clock::now()) >= kIntervalSeconds) {
      Sample();
    }
  }

  void Sample() {
    // One untimed round first brings the kernel's memory and branches
    // back into the core's caches, whatever the ops left there.
    sink_ += MultiplyAccumulate(1);
    Clock::time_point begin = Clock::now();
    sink_ += MultiplyChain() + MultiplyAccumulate(kRounds);
    last_ = Clock::now();
    window_.push_back(SecondsBetween(begin, last_));
  }

  /// kReferenceSeconds over the median sample since the last call (one
  /// sample is taken first if there is none), and starts a new window.
  double TakeScale() {
    if (window_.empty()) Sample();
    double scale = kReferenceSeconds / Percentile(window_, 0.5);
    window_.clear();
    scales_.push_back(scale);
    return scale;
  }

  /// Every scale taken so far.
  const std::vector<double>& scales() const { return scales_; }

 private:
  static constexpr int kChainSteps = 300000;
  static constexpr int kLimbs = 32;
  static constexpr int kNumbers = 64;
  static constexpr int kRounds = 10;

  /// Latency-bound: each step waits for the previous multiply.
  std::uint64_t MultiplyChain() const {
    std::uint64_t x = sink_ | 1;
    for (int i = 0; i < kChainSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    return x;
  }

  /// Throughput-bound: schoolbook products of neighbouring multi-limb
  /// numbers of 8 to 31 limbs, as in exact bignum arithmetic.
  std::uint64_t MultiplyAccumulate(int rounds) {
    std::uint64_t acc = sink_;
    for (int round = 0; round < rounds; ++round) {
      for (int j = 0; j < kNumbers; ++j) {
        for (int u = 0; u < Length(j, round); ++u) numbers_[j][u] = acc + j;
      }
      for (int j = 1; j < kNumbers; ++j) {
        int xs = Length(j - 1, round);
        int ys = Length(j, round);
        for (int u = 0; u < xs + ys; ++u) product_[u] = 0;
        for (int u = 0; u < xs; ++u) {
          for (int v = 0; v < ys; ++v) {
            unsigned __int128 p =
                static_cast<unsigned __int128>(numbers_[j - 1][u]) *
                    numbers_[j][v] +
                product_[u + v];
            product_[u + v] = static_cast<std::uint64_t>(p);
            product_[u + v + 1] += static_cast<std::uint64_t>(p >> 64);
          }
        }
        acc += product_[(xs + ys) / 2];
      }
    }
    return acc;
  }

  static int Length(int j, int round) { return 8 + (j * 7 + round) % 24; }

  std::uint64_t numbers_[kNumbers][kLimbs] = {};
  std::uint64_t product_[2 * kLimbs + 1] = {};
  std::uint64_t sink_ = 0;
  std::vector<double> window_;
  std::vector<double> scales_;
  Clock::time_point last_ = Clock::now();
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
