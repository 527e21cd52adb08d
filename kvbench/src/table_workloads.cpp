// In-process table workloads: table_read (DRAM-bound batched Gets on a
// pre-sized table) and table_churn (fill/drain cycles through online grows
// and shrinks).
#include <barrier>
#include <map>
#include <memory>
#include <thread>

#include "dlht/dlht.hpp"
#include "harness.hpp"
#include "slices.hpp"
#include "common/rng.hpp"

namespace kvbench {
namespace {

using dlht::DLHT;
using dlht::OpType;
using dlht::Status;

constexpr std::size_t kBatch = 32;
constexpr unsigned kThreads = 2;

// ------------------------------------------------------------- table_read

// 2^25 keys in 2^24 bins: 1 GiB of buckets at load 0.67, below the 0.75
// grow trigger, so no resize runs. Over 3x the 300 MiB shared L3: a working
// set near L3 size swings with the neighbours' cache use.
constexpr std::uint64_t kReadKeys = std::uint64_t{1} << 25;
constexpr std::size_t kReadBins = std::size_t{1} << 24;
constexpr int kReadSetups = 5;
constexpr unsigned kReadPutPer64k = 3277;  // 5% Puts

/// Insert ids [lo, hi) through execute_batch; counts inserts not kOk.
std::uint64_t populate(DLHT& t, const KeySpace& ks, std::uint64_t lo,
                       std::uint64_t hi, ThreadTrace* tr, std::uint32_t parent) {
  DLHT::Request reqs[kBatch];
  DLHT::Reply reps[kBatch];
  std::uint64_t bad = 0;
  for (std::uint64_t id = lo; id < hi;) {
    std::size_t n = 0;
    for (; n < kBatch && id < hi; ++n, ++id) {
      const std::uint64_t k = ks.key(id);
      reqs[n] = DLHT::Request{OpType::kInsert, k, ks.value(k, 0), 0};
    }
    if (tr != nullptr) {
      const auto o = tr->begin(parent);
      t.execute_batch(reqs, reps, n);
      tr->end(o, SpanName::kTableBatch, n);
    } else {
      t.execute_batch(reqs, reps, n);
    }
    for (std::size_t j = 0; j < n; ++j) bad += reps[j].status != Status::kOk;
  }
  return bad;
}

/// Per-layer metrics both table workloads measure: the DLHT::execute_batch
/// spans, the table's geometry per live key, the calling threads' CPU per
/// request and the harness's own time.
std::map<std::string, double> table_layers(ThreadTrace& trace, const DLHT& table,
                                           std::uint64_t live_keys, std::uint64_t loop_ns,
                                           std::uint64_t caller_cpu_ns, std::uint64_t ops_all) {
  const DLHT::Stats st = table.stats();
  const double ops = double(trace.ops(SpanName::kTableBatch));
  const double span_ns = double(trace.total_ns(SpanName::kTableBatch));
  return {
      {"dlht.batch_ns_per_op", span_ns / ops},
      {"dlht.batch_p99_us", trace.durations(SpanName::kTableBatch).quantile(0.99) * 1e-3},
      {"dlht.link_buckets_per_kkey", double(st.links_used) / (double(live_keys) * 1e-3)},
      {"dlht.table_bytes_per_key",
       double((st.bins + st.links_capacity) * sizeof(dlht::Bucket)) / double(live_keys)},
      {"client.cpu_ns_per_op", double(caller_cpu_ns) / double(ops_all)},
      {"harness.ns_per_op", (double(loop_ns) - span_ns) / ops},
  };
}

constexpr const char* kNoServer = "no server in an in-process workload";

}  // namespace

void run_table_read(const Args& a, Result& r) {
  const KeySpace ks(a.seed);
  dlht::Options o;
  o.initial_bins = kReadBins;

  // Set-up: construct and populate with 2 threads, several times; the last
  // table is the one measured.
  std::unique_ptr<DLHT> table;
  std::vector<double> setup_s;
  std::uint64_t rss0 = 0, rss1 = 0;
  ThreadTrace setup_trace(0, 64);
  for (int rep = 0; rep < kReadSetups; ++rep) {
    table.reset();
    if (rep == 0) rss0 = rss_bytes();
    const auto so = setup_trace.begin();
    table = std::make_unique<DLHT>(o);
    const auto po = setup_trace.begin(so.id);
    std::uint64_t bad[kThreads] = {};
    ThreadTrace pop_trace[kThreads] = {ThreadTrace(1, 64), ThreadTrace(2, 64)};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        bad[t] = populate(*table, ks, kReadKeys * t / kThreads,
                          kReadKeys * (t + 1) / kThreads,
                          a.trace ? &pop_trace[t] : nullptr, po.id);
      });
    }
    for (auto& th : ts) th.join();
    setup_trace.end(po, SpanName::kPopulation, kReadKeys);
    setup_s.push_back(double(setup_trace.end(so, SpanName::kSetup)) * 1e-9);
    if (rep == 0) rss1 = rss_bytes();
    for (unsigned t = 0; t < kThreads; ++t) {
      r.add_ops("populate_insert", kReadKeys / kThreads, bad[t]);
      setup_trace.merge(pop_trace[t]);
    }
  }

  // Timed phase: 2 threads of 32-request batches, 95% Get / 5% Put, both
  // uniform over the populated ids.
  Slices slices(a.seconds, a.trace, kThreads);
  struct Worker {
    SliceSamples lat;
    ThreadTrace trace;
    std::uint64_t gets = 0, puts = 0, bad_gets = 0, bad_puts = 0;
    std::uint64_t loop_ns = 0, cpu_ns = 0;
  };
  std::vector<Worker> w(kThreads);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Worker& me = w[t];
      me.trace = ThreadTrace(std::uint16_t(t + 1), 8);
      me.lat = slice_samples(a.seconds, 8);
      dlht::Xoshiro256 rng(mix64(a.seed * 0x100 + t + 1));
      DLHT::Request reqs[kBatch];
      DLHT::Reply reps[kBatch];
      std::uint64_t version = 0;
      bool corrupt = a.corrupt && t == 0;
      slices.wait_start();
      const std::uint64_t cpu0 = thread_cpu_ns();
      while (!slices.stopped()) {
        const bool traced = slices.traced();
        const std::size_t slice = slices.index();
        const std::uint64_t it0 = traced ? now_ns() : 0;
        for (std::size_t j = 0; j < kBatch; ++j) {
          const std::uint64_t x = rng();
          const std::uint64_t k = ks.key(((x >> 32) * kReadKeys) >> 32);
          if ((x & 0xffff) < kReadPutPer64k) {
            reqs[j] = DLHT::Request{OpType::kPut, k, ks.value(k, ++version), 0};
          } else {
            reqs[j] = DLHT::Request{OpType::kGet, k, 0, 0};
          }
        }
        const std::uint64_t t0 = now_ns();
        table->execute_batch(reqs, reps, kBatch);
        const std::uint64_t t1 = now_ns();
        if (slice < me.lat.size()) me.lat[slice].add(t1 - t0);
        if (traced) me.trace.record({t0, 0, 0}, t1, SpanName::kTableBatch, kBatch);
        if (corrupt && reqs[0].op == OpType::kGet) {
          reps[0].value ^= std::uint64_t{1} << 40;
          corrupt = false;
        }
        for (std::size_t j = 0; j < kBatch; ++j) {
          if (reqs[j].op == OpType::kGet) {
            ++me.gets;
            me.bad_gets += reps[j].status != Status::kOk ||
                           !ks.value_belongs(reqs[j].key, reps[j].value);
          } else {
            ++me.puts;
            me.bad_puts += reps[j].status != Status::kExists;
          }
        }
        slices.add_ops(t, kBatch);
        if (traced) me.loop_ns += now_ns() - it0;
      }
      me.cpu_ns = thread_cpu_ns() - cpu0;
    });
  }
  const std::uint64_t migrations0 = table->resizes() + table->shrinks();
  const std::uint64_t reclaimed0 = table->stats().bins_reclaimed;
  const std::uint64_t epoch0 = table->epoch().global_epoch();
  slices.run();
  for (auto& th : ts) th.join();

  ThreadTrace trace;
  std::vector<SliceSamples*> lat;
  std::uint64_t loop_ns = 0, cpu_ns = 0, ops = 0;
  for (Worker& me : w) {
    r.add_ops("get", me.gets, me.bad_gets);
    r.add_ops("put", me.puts, me.bad_puts);
    lat.push_back(&me.lat);
    trace.merge(me.trace);
    loop_ns += me.loop_ns;
    cpu_ns += me.cpu_ns;
    ops += me.gets + me.puts;
  }

  // Checks apart from the program: the table holds exactly the populated
  // set (count and key sum against the closed form), every value belongs
  // to its key, and no resize ran.
  std::uint64_t n = 0, sum = 0, bad_vals = 0;
  table->for_each([&](std::uint64_t k, std::uint64_t v) {
    ++n;
    sum += k;
    bad_vals += !ks.value_belongs(k, v);
  });
  r.check(n == kReadKeys, "for_each count != populated keys");
  r.check(sum == ks.key_sum(0, kReadKeys), "for_each key sum != closed form");
  r.check(bad_vals == 0, "for_each value not belonging to its key");
  r.check(table->resizes() == 0 && table->shrinks() == 0,
          "a resize ran on the pre-sized table");
  if (!a.trace) {
    end_to_end(r, slices, lat, setup_s, double(rss1 - rss0) / double(kReadKeys));
    return;
  }
  // The window's migrations and reclaimed bins are totals (0 on a pre-sized
  // table with no deletes, as the check above requires).
  std::map<std::string, double> m = table_layers(trace, *table, kReadKeys, loop_ns, cpu_ns, ops);
  m["dlht.migrations"] = double(table->resizes() + table->shrinks() - migrations0);
  m["dlht.bins_reclaimed"] = double(table->stats().bins_reclaimed - reclaimed0);
  m["epoch.advances_per_mop"] = double(table->epoch().global_epoch() - epoch0) / (double(ops) * 1e-6);
  per_layer(r, m, kNoServer);
  r.notes.push_back(slices.overhead_note());
  trace.merge(setup_trace);
  write_spans(a.trace_out, trace, r.notes);
}

// ------------------------------------------------------------ table_churn

// The live set is a sliding window of ids [lo, hi). A fill inserts
// kChurnHigh - kChurnLow fresh ids above hi; a drain deletes as many of the
// oldest. From 16 bins with the default growth and shrink factors of 2, each
// fill completes 3 grows and each drain 3 shrinks. The threads pass a
// barrier at each phase so the migration work per cycle is the same in
// every run.
constexpr std::uint64_t kChurnHigh = std::uint64_t{1} << 18;
constexpr std::uint64_t kChurnLow = std::uint64_t{1} << 14;
constexpr std::uint64_t kChurnSpan = kChurnHigh - kChurnLow;
constexpr int kChurnSetups = 9;

void run_table_churn(const Args& a, Result& r) {
  const KeySpace ks(a.seed);
  dlht::Options o;
  o.initial_bins = 16;
  o.min_load_factor = 0.2;

  std::unique_ptr<DLHT> table;
  std::vector<double> setup_s;
  std::uint64_t rss0 = 0, rss1 = 0;
  ThreadTrace setup_trace(0, 1);
  for (int rep = 0; rep < kChurnSetups; ++rep) {
    table.reset();
    if (rep == 0) rss0 = rss_bytes();
    const auto so = setup_trace.begin();
    table = std::make_unique<DLHT>(o);
    const auto po = setup_trace.begin(so.id);
    const std::uint64_t bad =
        populate(*table, ks, 0, kChurnLow, a.trace ? &setup_trace : nullptr, po.id);
    setup_trace.end(po, SpanName::kPopulation, kChurnLow);
    setup_s.push_back(double(setup_trace.end(so, SpanName::kSetup)) * 1e-9);
    if (rep == 0) rss1 = rss_bytes();
    r.add_ops("populate_insert", kChurnLow, bad);
  }
  const std::uint64_t grows0 = table->resizes(), shrinks0 = table->shrinks();
  const std::uint64_t reclaimed0 = table->stats().bins_reclaimed;
  const std::uint64_t epoch0 = table->epoch().global_epoch();

  // Phase bookkeeping runs in the barrier's completion step, while every
  // worker waits: the window moves, the phase's migrations are checked, and
  // after a drain the run stops once its time is up.
  struct Phase {
    std::uint64_t lo = 0, hi = kChurnLow;
    bool fill = true;
    std::uint64_t cycles = 0, traced_cycles = 0;
    std::uint64_t grows_at = 0, shrinks_at = 0;
    std::uint64_t lazy_fills = 0, lazy_drains = 0;
    std::uint64_t start_ns = 0, cycle_start_ns = 0;
    std::uint64_t traced_ns = 0, untraced_ns = 0;
    bool traced = false, stop = false;
  } ph;
  const double seconds = a.seconds;
  const bool trace_mode = a.trace;
  DLHT* tp = table.get();
  auto on_phase_end = [&]() noexcept {
    const std::uint64_t g = tp->resizes(), s = tp->shrinks();
    if (ph.fill) {
      ph.lazy_fills += g == ph.grows_at;
      ph.hi += kChurnSpan;
    } else {
      ph.lazy_drains += s == ph.shrinks_at;
      ph.lo += kChurnSpan;
      const std::uint64_t t = now_ns();
      (ph.traced ? ph.traced_ns : ph.untraced_ns) += t - ph.cycle_start_ns;
      ph.traced_cycles += ph.traced;
      ++ph.cycles;
      ph.cycle_start_ns = t;
      ph.traced = trace_mode && ph.cycles % 2 == 1;
      ph.stop = double(t - ph.start_ns) * 1e-9 >= seconds;
    }
    ph.grows_at = g;
    ph.shrinks_at = s;
    ph.fill = !ph.fill;
  };
  std::barrier sync(kThreads, on_phase_end);

  Slices slices(a.seconds, false, kThreads);
  struct Worker {
    SliceSamples lat;
    ThreadTrace trace;
    std::uint64_t ins = 0, dels = 0, gets = 0;
    std::uint64_t bad_ins = 0, bad_dels = 0, bad_gets = 0;
    std::uint64_t loop_ns = 0, cpu_ns = 0;
  };
  std::vector<Worker> w(kThreads);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Worker& me = w[t];
      me.trace = ThreadTrace(std::uint16_t(t + 1), 4);
      me.lat = slice_samples(a.seconds, 4);
      dlht::Xoshiro256 rng(mix64(a.seed * 0x100 + t + 1));
      DLHT::Request reqs[kBatch];
      DLHT::Reply reps[kBatch];
      bool corrupt = a.corrupt && t == 0;
      slices.wait_start();
      const std::uint64_t cpu0 = thread_cpu_ns();
      while (!ph.stop) {
        const bool fill = ph.fill, traced = ph.traced;
        // This thread's half of the phase's mutations, and the ids that
        // stay live for the whole phase (the Gets' range).
        const std::uint64_t base = fill ? ph.hi : ph.lo;
        std::uint64_t id = base + kChurnSpan * t / kThreads;
        const std::uint64_t end = base + kChurnSpan * (t + 1) / kThreads;
        const std::uint64_t live_lo = fill ? ph.lo : ph.lo + kChurnSpan;
        const std::uint64_t live_n = ph.hi - live_lo;
        while (id < end) {
          const std::uint64_t it0 = traced ? now_ns() : 0;
          std::size_t n = 0;
          while (n < kBatch && (id < end || n % 4 != 0)) {
            if (n % 4 == 0) {
              const std::uint64_t k = ks.key(id++);
              reqs[n] = fill ? DLHT::Request{OpType::kInsert, k, ks.value(k, 0), 0}
                             : DLHT::Request{OpType::kDelete, k, 0, 0};
            } else {
              const std::uint64_t k = ks.key(live_lo + rng.next_below(live_n));
              reqs[n] = DLHT::Request{OpType::kGet, k, 0, 0};
            }
            ++n;
          }
          const std::size_t slice = slices.index();
          const std::uint64_t t0 = now_ns();
          tp->execute_batch(reqs, reps, n);
          const std::uint64_t t1 = now_ns();
          if (slice < me.lat.size()) me.lat[slice].add(t1 - t0);
          slices.add_ops(t, n);
          if (traced) me.trace.record({t0, 0, 0}, t1, SpanName::kTableBatch, n);
          if (corrupt && !fill) {
            reps[0].value ^= 1;
            corrupt = false;
          }
          for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t want = ks.value(reqs[j].key, 0);
            switch (reqs[j].op) {
              case OpType::kInsert:
                ++me.ins;
                me.bad_ins += reps[j].status != Status::kOk;
                break;
              case OpType::kDelete:
                ++me.dels;
                me.bad_dels += reps[j].status != Status::kOk || reps[j].value != want;
                break;
              default:
                ++me.gets;
                me.bad_gets += reps[j].status != Status::kOk || reps[j].value != want;
            }
          }
          if (traced) me.loop_ns += now_ns() - it0;
        }
        sync.arrive_and_wait();
      }
      me.cpu_ns = thread_cpu_ns() - cpu0;
    });
  }
  ph.start_ns = ph.cycle_start_ns = now_ns();
  slices.run();
  for (auto& th : ts) th.join();
  // Memory left behind at the end of the last drain: retired generations
  // the epoch has not reclaimed yet and freed pages the allocator keeps.
  // It read 13-90 MB over five seeds for a 1.2 MB table (1.7 or 29 MB even
  // after EpochManager::quiesce and malloc_trim), too unsteady to bound, so
  // it is a note and mem_bytes_per_key is taken over the first set-up.
  const std::uint64_t rss_left = rss_bytes();

  std::uint64_t ops = 0, loop_ns = 0, cpu_ns = 0;
  std::vector<SliceSamples*> lat;
  ThreadTrace trace;
  for (Worker& me : w) {
    r.add_ops("insert", me.ins, me.bad_ins);
    r.add_ops("delete", me.dels, me.bad_dels);
    r.add_ops("get", me.gets, me.bad_gets);
    ops += me.ins + me.dels + me.gets;
    lat.push_back(&me.lat);
    trace.merge(me.trace);
    loop_ns += me.loop_ns;
    cpu_ns += me.cpu_ns;
  }

  // The live set the phase arithmetic predicts is ids [lo, hi).
  std::uint64_t n = 0, sum = 0, bad_vals = 0;
  table->for_each([&](std::uint64_t k, std::uint64_t v) {
    ++n;
    sum += k;
    bad_vals += v != ks.value(k, 0);
  });
  r.check(ph.hi - ph.lo == kChurnLow, "window arithmetic");
  r.check(n == kChurnLow, "for_each count != predicted live set");
  r.check(table->approx_size() == std::int64_t(kChurnLow), "approx_size != predicted live set");
  r.check(sum == ks.key_sum(ph.lo, ph.hi), "for_each key sum != closed form");
  r.check(bad_vals == 0, "for_each value != inserted value");
  r.check(ph.lazy_fills == 0, "a fill completed no grow");
  r.check(ph.lazy_drains == 0, "a drain completed no shrink");
  const std::uint64_t grows = table->resizes() - grows0;
  const std::uint64_t shrinks = table->shrinks() - shrinks0;
  {
    const DLHT::Stats st = table->stats();
    r.notes.push_back("end of last drain: bins " + std::to_string(st.bins) + ", links " +
                      std::to_string(st.links_used) + "/" + std::to_string(st.links_capacity) +
                      ", rss growth since the first set-up began " +
                      std::to_string(rss_left - rss0) + " B");
  }
  r.notes.push_back("cycles " + std::to_string(ph.cycles) + ", grows " +
                    std::to_string(grows) + ", shrinks " + std::to_string(shrinks));
  if (!a.trace) {
    end_to_end(r, slices, lat, setup_s, double(rss1 - rss0) / double(kChurnLow));
    return;
  }
  const double cycles = double(ph.cycles);
  std::map<std::string, double> m = table_layers(trace, *table, kChurnLow, loop_ns, cpu_ns, ops);
  m["dlht.migrations"] = double(grows + shrinks) / cycles;
  m["dlht.bins_reclaimed"] = double(table->stats().bins_reclaimed - reclaimed0) / cycles;
  m["epoch.advances_per_mop"] = double(table->epoch().global_epoch() - epoch0) / (double(ops) * 1e-6);
  per_layer(r, m, kNoServer);
  const double untraced_cycles = cycles - double(ph.traced_cycles);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "trace overhead: traced/untraced throughput %.4f (%llu traced, %.0f untraced cycles)",
                (double(ph.traced_cycles) / double(ph.traced_ns)) /
                    (untraced_cycles / double(ph.untraced_ns)),
                static_cast<unsigned long long>(ph.traced_cycles), untraced_cycles);
  r.notes.push_back(buf);
  trace.merge(setup_trace);
  write_spans(a.trace_out, trace, r.notes);
}

}  // namespace kvbench
