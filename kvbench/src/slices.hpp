// The timed window of a run, cut into half-second slices. Throughput, call
// latency and CPU per op are computed per slice and reported as the median
// over slices, so a burst from a neighbour on the shared host moves one or
// two slices rather than the run's figure. Traced runs alternate traced
// and untraced slices, so the tracing overhead is a paired ratio within one
// run instead of a comparison against a run made at another time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace kvbench {

class Slices {
 public:
  static constexpr std::uint64_t kSliceNs = 500'000'000;

  /// `toggle_trace`: alternate traced and untraced slices.
  Slices(double seconds, bool toggle_trace, unsigned workers)
      : seconds_(seconds), toggle_(toggle_trace), ops_(workers) {}

  /// Slices a run of this length has (the last may be short).
  static std::size_t count(double seconds) {
    return std::size_t(seconds * 1e9 / double(kSliceNs)) + 1;
  }

  // ------------------------------------------------------- worker side
  void wait_start() const {
    while (!started_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  bool traced() const { return traced_.load(std::memory_order_relaxed); }
  /// The current slice; calls made after the window closes fall past the
  /// last recorded slice and are left out of the per-slice figures.
  std::size_t index() const { return index_.load(std::memory_order_relaxed); }
  /// Publish `n` more completed requests of worker `w` (single writer).
  void add_ops(unsigned w, std::uint64_t n) {
    std::atomic<std::uint64_t>& c = ops_[w].n;
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  // --------------------------------------------------------- main side
  struct Slice {
    std::uint64_t ns, ops, cpu_ns;
    bool traced;
  };

  /// Open the window, cut it into slices for `seconds`, close it.
  void run() {
    std::uint64_t t = now_ns(), ops = 0, cpu = process_cpu_ns();
    started_.store(true, std::memory_order_release);
    const std::uint64_t end = t + std::uint64_t(seconds_ * 1e9);
    while (t < end) {
      const std::uint64_t next = std::min(end, t + kSliceNs);
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - t));
      const bool was_traced = traced();
      if (next == end) stop_.store(true, std::memory_order_relaxed);
      if (toggle_) traced_.store(!was_traced, std::memory_order_relaxed);
      index_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t t2 = now_ns(), cpu2 = process_cpu_ns();
      std::uint64_t ops2 = 0;
      for (const Counter& c : ops_) ops2 += c.n.load(std::memory_order_relaxed);
      slices_.push_back(Slice{t2 - t, ops2 - ops, cpu2 - cpu, was_traced});
      t = t2, ops = ops2, cpu = cpu2;
    }
  }

  const std::vector<Slice>& slices() const { return slices_; }

  double median_mops() const {
    std::vector<double> v;
    for (const Slice& s : slices_) v.push_back(double(s.ops) / double(s.ns) * 1e3);
    return median(v);
  }
  double median_cpu_ns_per_op() const {
    std::vector<double> v;
    for (const Slice& s : slices_) v.push_back(double(s.cpu_ns) / double(s.ops));
    return median(v);
  }
  std::string overhead_note() const {
    double ops[2] = {}, ns[2] = {};
    for (const Slice& s : slices_) {
      ops[s.traced] += double(s.ops);
      ns[s.traced] += double(s.ns);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "trace overhead: traced/untraced throughput %.4f (%.2f s traced, %.2f s untraced)",
                  (ops[1] / ns[1]) / (ops[0] / ns[0]), ns[1] * 1e-9, ns[0] * 1e-9);
    return buf;
  }

 private:
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> n{0};
  };

  double seconds_;
  bool toggle_;
  std::vector<Counter> ops_;
  std::atomic<bool> started_{false}, stop_{false}, traced_{false};
  std::atomic<std::size_t> index_{0};
  std::vector<Slice> slices_;
};

/// Per-slice call latencies of one thread.
using SliceSamples = std::vector<Samples>;

inline SliceSamples slice_samples(double seconds, unsigned stride) {
  return SliceSamples(Slices::count(seconds), Samples(stride, std::size_t{1} << 16));
}

/// Median over the window's slices of the q-quantile of each slice's calls
/// (all threads merged). Also returns the number of samples it used.
inline double median_quantile(const Slices& sl, const std::vector<SliceSamples*>& threads,
                              double q, std::uint64_t* samples = nullptr) {
  std::vector<double> v;
  for (std::size_t i = 0; i < sl.slices().size(); ++i) {
    Samples m;
    for (SliceSamples* t : threads) m.merge((*t)[i]);
    if (samples != nullptr) *samples += m.values().size();
    v.push_back(m.quantile(q));
  }
  return median(v);
}

/// The end-to-end metrics every workload reports: throughput, call
/// latency and CPU per op as medians over the window's slices, set-up time
/// as the median over the run's set-ups, and memory per key.
inline void end_to_end(Result& r, const Slices& sl, const std::vector<SliceSamples*>& lat,
                       const std::vector<double>& setup_s, double mem_bytes_per_key) {
  std::uint64_t samples = 0;
  r.metric("throughput_mops", sl.median_mops(), "Mops/s");
  r.metric("latency_p50_us", median_quantile(sl, lat, 0.50, &samples) * 1e-3, "us");
  r.metric("latency_p99_us", median_quantile(sl, lat, 0.99) * 1e-3, "us");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("mem_bytes_per_key", mem_bytes_per_key, "B");
  r.metric("cpu_ns_per_op", sl.median_cpu_ns_per_op(), "ns");
  r.notes.push_back("latency: " + std::to_string(samples) + " call samples in " +
                    std::to_string(sl.slices().size()) + " slices; " +
                    std::to_string(setup_s.size()) + " set-ups");
}

}  // namespace kvbench
