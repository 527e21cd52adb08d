// Hardware performance counters around the benches' timed regions.
//
// A PerfCounters instance opens one perf_event_open(2) fd per event for the
// *calling thread* (pid=0, cpu=-1): cycles, instructions, LLC load misses,
// dTLB load misses, remote-node load misses, plus the task-clock and
// page-fault software events. Each event is opened independently rather
// than as one strict group — VMs commonly expose the software events but no
// PMU, and a strict group would turn "no LLC counter" into "no counters at
// all". Events that fail to open drop out of the availability mask and
// serialize as null, never as a 0 that reads like a measurement; when
// *nothing* opens (perf_event_paranoid >= 3, seccomp, non-Linux) the object
// also carries "unavailable": true. Every key is always present, so
// trajectory JSON carries the counters object and never silently drops it.
//
// Reads use PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING} and scale for
// multiplexing, so five hardware events on a 4-counter PMU still produce
// usable estimates.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace dlht {

enum CounterId : unsigned {
  kCtrCycles = 0,
  kCtrInstructions,
  kCtrLlcMisses,
  kCtrDtlbMisses,
  kCtrNodeMisses,   // loads served by a remote NUMA node
  kCtrTaskClock,    // ns of cpu time (software event; works without a PMU)
  kCtrPageFaults,
  kNumCounters,
};

inline const char* counter_name(unsigned id) {
  static const char* kNames[kNumCounters] = {
      "cycles",        "instructions", "llc_misses", "dtlb_misses",
      "node_misses",   "task_clock_ns", "page_faults",
  };
  return id < kNumCounters ? kNames[id] : "?";
}

/// Merged counter values for one measured region (one thread, or the sum
/// over all worker threads). `available` is a bitmask over CounterId; a
/// clear bit means that event could not be opened and its value is
/// meaningless (to_json writes it as null).
struct CounterTotals {
  std::uint64_t v[kNumCounters] = {};
  std::uint32_t available = 0;

  bool any_available() const { return available != 0; }
  bool is_available(unsigned id) const {
    return (available & (1u << id)) != 0;
  }

  /// Accumulate another thread's totals. Availability intersects: a value
  /// summed over threads where some could not count it would be a lie.
  void merge(const CounterTotals& o) {
    for (unsigned i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
    available &= o.available;
  }

  /// The trajectory representation: every key always present (null when
  /// unopenable), plus "unavailable": true when no event opened at all.
  std::string to_json() const {
    std::string out = "{";
    char buf[64];
    for (unsigned i = 0; i < kNumCounters; ++i) {
      if (is_available(i)) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                      counter_name(i), static_cast<unsigned long long>(v[i]));
      } else {
        std::snprintf(buf, sizeof buf, "%s\"%s\": null", i == 0 ? "" : ", ",
                      counter_name(i));
      }
      out += buf;
    }
    out += std::string(", \"unavailable\": ") +
           (any_available() ? "false" : "true") + "}";
    return out;
  }
};

/// Merge helper for per-thread totals collected by a run driver. The seed
/// mask is the first element's (merging into a zero mask would erase
/// availability everywhere).
template <class Vec>
inline CounterTotals merge_counters(const Vec& per_thread) {
  CounterTotals total;
  bool first = true;
  for (const CounterTotals& t : per_thread) {
    if (first) {
      total = t;
      first = false;
    } else {
      total.merge(t);
    }
  }
  return total;
}

class PerfCounters {
 public:
  /// Open the event set for the calling thread. Never throws: events that
  /// cannot open are simply marked unavailable.
  PerfCounters() {
    for (int& fd : fd_) fd = -1;
#if defined(__linux__) && defined(SYS_perf_event_open)
    open_event(kCtrCycles, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    open_event(kCtrInstructions, PERF_TYPE_HARDWARE,
               PERF_COUNT_HW_INSTRUCTIONS);
    open_event(kCtrLlcMisses, PERF_TYPE_HW_CACHE,
               cache_config(PERF_COUNT_HW_CACHE_LL));
    open_event(kCtrDtlbMisses, PERF_TYPE_HW_CACHE,
               cache_config(PERF_COUNT_HW_CACHE_DTLB));
    open_event(kCtrNodeMisses, PERF_TYPE_HW_CACHE,
               cache_config(PERF_COUNT_HW_CACHE_NODE));
    open_event(kCtrTaskClock, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
    open_event(kCtrPageFaults, PERF_TYPE_SOFTWARE,
               PERF_COUNT_SW_PAGE_FAULTS);
#endif
  }

  ~PerfCounters() {
#if defined(__linux__)
    for (const int fd : fd_) {
      if (fd >= 0) ::close(fd);
    }
#endif
  }

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// Zero and enable every opened event.
  void start() {
#if defined(__linux__)
    for (const int fd : fd_) {
      if (fd >= 0) {
        ::ioctl(fd, PERF_EVENT_IOC_RESET, 0);
        ::ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
      }
    }
#endif
  }

  void stop() {
#if defined(__linux__)
    for (const int fd : fd_) {
      if (fd >= 0) ::ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
    }
#endif
  }

  /// Multiplex-scaled values since start(). Call after stop().
  CounterTotals read() const {
    CounterTotals t;
#if defined(__linux__)
    for (unsigned i = 0; i < kNumCounters; ++i) {
      if (fd_[i] < 0) continue;
      // PERF_FORMAT_TOTAL_TIME_ENABLED | _RUNNING layout.
      std::uint64_t buf[3] = {};
      if (::read(fd_[i], buf, sizeof buf) !=
          static_cast<ssize_t>(sizeof buf)) {
        continue;
      }
      std::uint64_t value = buf[0];
      if (buf[2] != 0 && buf[2] < buf[1]) {
        value = static_cast<std::uint64_t>(
            static_cast<double>(value) * static_cast<double>(buf[1]) /
            static_cast<double>(buf[2]));
      }
      t.v[i] = value;
      t.available |= 1u << i;
    }
#endif
    return t;
  }

  bool any_available() const {
    for (const int fd : fd_) {
      if (fd >= 0) return true;
    }
    return false;
  }

 private:
#if defined(__linux__) && defined(SYS_perf_event_open)
  static std::uint64_t cache_config(std::uint64_t cache) {
    return cache | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
           (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
  }

  void open_event(unsigned id, std::uint32_t type, std::uint64_t config) {
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.type = type;
    attr.size = sizeof attr;
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;  // paranoid-level 2 hosts refuse kernel counts
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd =
        ::syscall(SYS_perf_event_open, &attr, 0 /*this thread*/,
                  -1 /*any cpu*/, -1 /*no group*/, 0ul);
    fd_[id] = static_cast<int>(fd);
  }
#endif

  int fd_[kNumCounters];
};

}  // namespace dlht
