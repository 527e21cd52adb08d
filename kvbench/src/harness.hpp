// Shared pieces of the KV-node benchmark: arguments, clocks, the key and
// value schemes the checks rely on, latency samples, the span tracer and
// the result line. Nothing here calls into the program; the workloads in
// table_workloads.cpp and kv_workloads.cpp do.
#pragma once

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace kvbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test: flip one received value (or one logged acknowledgement)
  // inside the harness so the checks must report a failure.
  bool corrupt = false;
  // Fresh directory for sockets and WAL directories, removed at exit.
  std::string scratch;
  // Where a traced run writes its spans.
  std::string trace_out;
};

inline std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000ull + std::uint64_t(ts.tv_nsec);
}

inline std::uint64_t clock_ns(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000ull + std::uint64_t(ts.tv_nsec);
}
inline std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Resident set size in bytes (second field of /proc/self/statm).
inline std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * std::uint64_t(sysconf(_SC_PAGESIZE)) : 0;
}

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key and value scheme, derived from the seed alone. Key i is a*i + b
/// (mod 2^64) with a odd, so keys are distinct and the sum over any id
/// range has a closed form the final scans are checked against. A value
/// carries a 40-bit tag of its key and a 24-bit version, so any value read
/// back can be checked to belong to the key it was read under.
struct KeySpace {
  std::uint64_t a, b, vsalt, a_inv;
  explicit KeySpace(std::uint64_t seed)
      : a(mix64(seed ^ 0x6b6579) | 1),
        b(mix64(seed ^ 0x6f6666)),
        vsalt(mix64(seed ^ 0x76616c)),
        a_inv(a) {
    // Newton's iteration for the inverse of an odd a mod 2^64.
    for (int i = 0; i < 5; ++i) a_inv *= 2 - a * a_inv;
  }
  std::uint64_t key(std::uint64_t id) const { return a * id + b; }
  std::uint64_t id(std::uint64_t key) const { return (key - b) * a_inv; }
  std::uint64_t tag(std::uint64_t key) const { return mix64(key ^ vsalt) >> 24; }
  std::uint64_t value(std::uint64_t key, std::uint64_t version) const {
    return (tag(key) << 24) | (version & 0xffffff);
  }
  bool value_belongs(std::uint64_t key, std::uint64_t v) const {
    return (v >> 24) == tag(key);
  }
  /// Sum of key(i) for i in [lo, hi), mod 2^64.
  std::uint64_t key_sum(std::uint64_t lo, std::uint64_t hi) const {
    const std::uint64_t n = hi - lo;
    // sum of ids = n*lo + n(n-1)/2; halve whichever of n, n-1 is even.
    const std::uint64_t tri = (n % 2 == 0) ? (n / 2) * (n - 1) : n * ((n - 1) / 2);
    return a * (n * lo + tri) + b * n;
  }
};

/// Per-thread call-latency samples: every call is timed and every
/// stride-th duration kept. When the buffer fills, every other sample is
/// dropped and the stride doubles, so a run of any length keeps exact
/// nanosecond samples, evenly spread over the run, in bounded memory.
class Samples {
 public:
  explicit Samples(unsigned stride = 1, std::size_t cap = std::size_t{1} << 20)
      : stride_(stride), cap_(cap) {}
  void add(std::uint64_t ns) {
    if (++calls_ % stride_ != 0) return;
    if (v_.size() == cap_) halve();
    v_.push_back(ns);
  }
  const std::vector<std::uint64_t>& values() const { return v_; }
  void merge(Samples o) {
    while (o.stride_ < stride_) o.halve();
    while (stride_ < o.stride_) halve();
    calls_ += o.calls_;
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  /// q-quantile (0..1) of the kept samples, in ns.
  double quantile(double q) {
    if (v_.empty()) return 0;
    const std::size_t k =
        std::min(v_.size() - 1, static_cast<std::size_t>(q * double(v_.size())));
    std::nth_element(v_.begin(), v_.begin() + std::ptrdiff_t(k), v_.end());
    return double(v_[k]);
  }

 private:
  // Keep the samples of calls that are multiples of twice the stride.
  void halve() {
    for (std::size_t i = 1; i < v_.size(); i += 2) v_[i / 2] = v_[i];
    v_.resize(v_.size() / 2);
    stride_ *= 2;
  }

  std::uint64_t stride_;
  std::size_t cap_;
  std::uint64_t calls_ = 0;
  std::vector<std::uint64_t> v_;
};

/// Median of a small set of repeated measurements (set-up times).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// ---------------------------------------------------------------- tracing

/// Names of the spans the workloads record, one per public call they make
/// into a layer (plus the set-up phases that group them).
enum class SpanName : std::uint8_t {
  kSetup,
  kPopulation,
  kServerStart,
  kTableBatch,   // DLHT::execute_batch
  kClientBatch,  // KvClient::execute_batch
  kWireSync,     // KvClient::sync, i.e. the wire Sync round trip
  kCheckpoint,   // DurableDLHT::checkpoint
  kRecovery,     // server restart on a durable directory
  kCount
};
inline const char* span_name(SpanName n) {
  static const char* const names[] = {
      "setup",       "population",          "server.start",
      "dlht.execute_batch", "client.execute_batch", "wire.sync",
      "durable.checkpoint", "durable.recovery"};
  return names[static_cast<int>(n)];
}

struct Span {
  std::uint64_t start_ns, end_ns;
  std::uint32_t id, parent;  // parent 0 = root
  std::uint16_t thread;
  SpanName name;
};

/// One thread's spans. Aggregates (count, time, ops, sampled durations) are
/// updated on every span so the per-layer metrics see all of them; the
/// span records themselves are kept up to a cap and written at the end.
class ThreadTrace {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 13;

  explicit ThreadTrace(std::uint16_t thread = 0, unsigned stride = 1)
      : thread_(thread) {
    for (auto& s : durations_) s = Samples(stride, std::size_t{1} << 16);
  }

  struct Open {
    std::uint64_t start;
    std::uint32_t id, parent;
  };
  Open begin(std::uint32_t parent = 0) {
    return Open{now_ns(), next_id(), parent};
  }
  /// Close a span that covered `ops` requests. Returns its duration.
  std::uint64_t end(const Open& o, SpanName name, std::uint64_t ops = 0) {
    const std::uint64_t e = now_ns();
    record(o, e, name, ops);
    return e - o.start;
  }
  /// Record a span timed by the caller; a zero o.id gets a fresh id.
  void record(const Open& o, std::uint64_t end_ns, SpanName name,
              std::uint64_t ops) {
    const int i = static_cast<int>(name);
    const std::uint64_t d = end_ns - o.start;
    count_[i] += 1;
    total_ns_[i] += d;
    ops_[i] += ops;
    durations_[i].add(d);
    if (spans_.size() < kKeep) {
      spans_.push_back(
          Span{o.start, end_ns, o.id != 0 ? o.id : next_id(), o.parent, thread_, name});
    }
  }

  std::uint64_t count(SpanName n) const { return count_[int(n)]; }
  std::uint64_t total_ns(SpanName n) const { return total_ns_[int(n)]; }
  std::uint64_t ops(SpanName n) const { return ops_[int(n)]; }
  Samples& durations(SpanName n) { return durations_[int(n)]; }
  const std::vector<Span>& spans() const { return spans_; }

  void merge(const ThreadTrace& o) {
    for (int i = 0; i < int(SpanName::kCount); ++i) {
      count_[i] += o.count_[i];
      total_ns_[i] += o.total_ns_[i];
      ops_[i] += o.ops_[i];
      durations_[i].merge(o.durations_[i]);
    }
    for (const Span& s : o.spans_) {
      if (spans_.size() < 8 * kKeep) spans_.push_back(s);
    }
  }

 private:
  // Unique across threads: the thread number in the top byte.
  std::uint32_t next_id() { return (std::uint32_t(thread_) << 24) | ++local_ids_; }

  std::uint16_t thread_;
  std::uint32_t local_ids_ = 0;
  std::uint64_t count_[int(SpanName::kCount)] = {};
  std::uint64_t total_ns_[int(SpanName::kCount)] = {};
  std::uint64_t ops_[int(SpanName::kCount)] = {};
  Samples durations_[int(SpanName::kCount)];
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct OpCount {
  std::uint64_t attempted = 0, failed = 0;
};

struct Result {
  bool correct = true;
  std::map<std::string, OpCount> ops;  // by op type
  std::vector<Metric> metrics;
  std::vector<std::string> notes;      // printed as '#' lines

  void add_ops(const std::string& op, std::uint64_t attempted,
               std::uint64_t failed) {
    OpCount& c = ops[op];
    c.attempted += attempted;
    c.failed += failed;
    if (failed != 0) correct = false;
  }
  /// A check on the program's state as a whole (a final scan or audit).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [op, c] : ops) n += c.attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [op, c] : ops) n += c.failed;
    return n;
  }
};

/// The per-layer metrics, in BENCHMARK.json's order. Every traced run prints
/// all of them. The time metrics are measured on every workload; a count a
/// workload cannot observe (no server in-process, or a table counter that
/// KvServer does not expose) reads 0 and is named in a note.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"dlht.batch_ns_per_op", "ns"},       {"dlht.batch_p99_us", "us"},
    {"dlht.link_buckets_per_kkey", "count"}, {"dlht.table_bytes_per_key", "B"},
    {"dlht.migrations", "count"},         {"dlht.bins_reclaimed", "count"},
    {"epoch.advances_per_mop", "count"},  {"server.ops_per_flush", "ops"},
    {"client.cpu_ns_per_op", "ns"},       {"harness.ns_per_op", "ns"},
};

/// Print every per-layer metric: the measured ones from `measured`, the
/// rest as 0 with a note saying why (`absent`).
inline void per_layer(Result& r, const std::map<std::string, double>& measured,
                      const std::string& absent) {
  std::string missing;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = measured.find(m.name);
    r.metric(m.name, it != measured.end() ? it->second : 0.0, m.unit);
    if (it == measured.end()) missing += std::string(missing.empty() ? "" : ", ") + m.name;
  }
  if (!missing.empty()) r.notes.push_back("not measured (" + absent + "), printed as 0: " + missing);
}

/// Write the kept spans as CSV (name,start_ns,end_ns,id,parent,thread).
inline void write_spans(const std::string& path, const ThreadTrace& t,
                        const std::vector<std::string>& header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const std::string& h : header) std::fprintf(f, "# %s\n", h.c_str());
  std::fprintf(f, "name,start_ns,end_ns,id,parent,thread\n");
  for (const Span& s : t.spans()) {
    std::fprintf(f, "%s,%llu,%llu,%u,%u,%u\n", span_name(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                 unsigned(s.thread));
  }
  std::fclose(f);
}

// Workloads. Each fills `r` with its ops, checks and metrics (end-to-end
// metrics with a.trace off, per-layer metrics with it on).
void run_table_read(const Args& a, Result& r);
void run_table_churn(const Args& a, Result& r);
void run_kv_mem(const Args& a, Result& r);
void run_kv_durable(const Args& a, Result& r);

}  // namespace kvbench
