// KV-node workloads: an in-process KvServer (one shard) on a unix socket,
// driven by one pipelined KvClient connection in closed loop. kv_mem
// serves from an in-memory DLHT; kv_durable from DurableDLHT, with a Sync
// closing every batch, checkpoints at fixed op counts and a restart at the
// end that must recover every acknowledged write.
//
// One connection, not two: other tenants' processes share this host's 4
// vCPUs (load average ~1.3 with the benchmark idle), and with two client
// threads plus the server's, kv_mem's throughput spread over ten runs read
// 0.44 and its p99 2.6 (quartile distance over median); one client thread
// leaves room for them.
//
// The client and the server's shard share one CPU. Across vCPUs every call
// waits on two cross-CPU wake-ups whose cost is the hypervisor's: over ten
// runs on free CPUs kv_mem's p99 read 37-99 us (spread 0.55) and a call
// cost twice the CPU it costs on one CPU, so the figures measured the
// host's wake-up latency more than the server.
#include <sched.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "harness.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "slices.hpp"

namespace kvbench {
namespace {

using dlht::DLHT;
using dlht::OpType;
using dlht::Status;
using dlht::server::KvClient;
using dlht::server::KvServer;
using dlht::server::ServerOptions;

constexpr std::size_t kBatch = 32;
constexpr std::size_t kAuditBatch = 512;

struct Shape {
  std::uint64_t keys;
  std::size_t bins;                // pre-sized so no resize runs
  unsigned put_per_64k;            // share of Puts in a batch
  bool durable;                    // DurableDLHT, Sync closing every batch
  std::uint64_t checkpoint_every;  // acknowledged writes between checkpoints
  int setups;
};

// ~256K keys: 16 MiB of buckets, well inside L3, so the table is a few
// percent of a request and the socket path dominates.
constexpr Shape kMem{std::uint64_t{1} << 18, std::size_t{1} << 17, 6554, false, 0, 7};
// 64K keys: a snapshot is ~1.5 MB, so checkpoints and recovery stay short.
// A checkpoint every 16K acknowledged writes keeps snapshot bytes per
// write fixed whatever the run's speed.
constexpr Shape kDurable{std::uint64_t{1} << 16, std::size_t{1} << 15, 32768, true, 16384, 7};
// Writes made after the final checkpoint: recovery replays exactly these.
constexpr std::uint64_t kTailWrites = 4096;
constexpr int kRestarts = 9;

/// The harness's own copy of every key's value: `sent` follows the replies
/// in order, `acked` only what a Sync has acknowledged.
struct Model {
  std::vector<std::uint64_t> sent, acked;
  explicit Model(std::uint64_t keys) : sent(keys), acked(keys) {}
};

/// The reply a Put of a key that exists must get. The in-memory tier
/// answers kExists (DLHT::execute_batch); DurableDLHT::put answers kOk for
/// inserts and overwrites alike, so the durable node does too.
bool overwrote(const Shape& s, Status st) {
  return st == (s.durable ? Status::kOk : Status::kExists);
}

ServerOptions server_options(const Shape& s, const std::string& sock,
                             const std::string& dir) {
  ServerOptions so;
  so.listen = "unix:" + sock;
  so.shards = 1;
  so.pin = false;
  so.durable_dir = dir;
  so.table.initial_bins = s.bins;
  return so;
}

/// Put version 0 of every key; a durable node closes the population with a
/// Sync. Returns the replies that were not kOk.
std::uint64_t populate(KvClient& cl, const KeySpace& ks, const Shape& s, Model& m) {
  DLHT::Request reqs[kBatch];
  DLHT::Reply reps[kBatch];
  std::uint64_t bad = 0;
  for (std::uint64_t base = 0; base < s.keys; base += kBatch) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::uint64_t k = ks.key(base + j);
      reqs[j] = DLHT::Request{OpType::kPut, k, ks.value(k, 0), 0};
      m.sent[base + j] = m.acked[base + j] = reqs[j].value;
    }
    cl.execute_batch(reqs, reps, kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) bad += reps[j].status != Status::kOk;
  }
  if (s.durable) bad += cl.sync() != Status::kOk;
  return bad;
}

/// Get every key over `cl` and compare with the model; Count must equal
/// the key count.
OpCount audit(KvClient& cl, const KeySpace& ks, const Shape& s,
              const std::vector<std::uint64_t>& want) {
  OpCount oc;
  std::uint64_t keys[kAuditBatch];
  DLHT::Reply reps[kAuditBatch];
  for (std::uint64_t base = 0; base < s.keys; base += kAuditBatch) {
    for (std::size_t j = 0; j < kAuditBatch; ++j) keys[j] = ks.key(base + j);
    cl.get_batch(keys, reps, kAuditBatch);
    for (std::size_t j = 0; j < kAuditBatch; ++j) {
      oc.failed += reps[j].status != Status::kOk || reps[j].value != want[base + j];
    }
    oc.attempted += kAuditBatch;
  }
  oc.attempted += 1;
  oc.failed += cl.count() != std::int64_t(s.keys);
  return oc;
}

/// Confine the calling thread to the last CPU it may run on; threads it
/// starts afterwards (the server's shard, the client) inherit the mask.
/// Returns the CPU, or -1 when the mask cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Disk bytes written and writes acknowledged, as of one checkpoint's end.
struct CheckpointMark {
  std::uint64_t acked, disk_bytes;
};

struct Conn {
  KvClient cl;
  SliceSamples lat;
  ThreadTrace trace{1, 1};
  std::vector<CheckpointMark> marks;
  std::uint64_t gets = 0, puts = 0, syncs = 0, checkpoints = 0;
  std::uint64_t bad_gets = 0, bad_puts = 0, bad_syncs = 0, bad_checkpoints = 0;
  std::uint64_t cpu_ns = 0, loop_ns = 0, span_ns = 0;
};

/// The connection's closed loop: a pipelined batch of 32 requests over
/// uniformly drawn keys, then in durable mode a Sync, and a checkpoint
/// each time the acknowledged writes cross a multiple of
/// s.checkpoint_every.
void conn_loop(Conn& me, const Args& a, const KeySpace& ks, const Shape& s, Model& m,
               Slices& slices, KvServer& server) {
  dlht::Xoshiro256 rng(mix64(a.seed * 0x100 + 1));
  DLHT::Request reqs[kBatch];
  DLHT::Reply reps[kBatch];
  std::uint64_t ids[kBatch];
  std::uint64_t version = 0, acked = 0;
  bool corrupt = a.corrupt && !s.durable;
  slices.wait_start();
  const std::uint64_t cpu0 = thread_cpu_ns();
  while (!slices.stopped()) {
    const bool traced = slices.traced();
    const std::size_t slice = slices.index();
    const std::uint64_t it0 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::uint64_t x = rng();
      ids[j] = ((x >> 32) * s.keys) >> 32;
      const std::uint64_t k = ks.key(ids[j]);
      reqs[j] = (x & 0xffff) < s.put_per_64k
                    ? DLHT::Request{OpType::kPut, k, ks.value(k, ++version), 0}
                    : DLHT::Request{OpType::kGet, k, 0, 0};
    }
    const std::uint64_t t0 = now_ns();
    me.cl.execute_batch(reqs, reps, kBatch);
    const std::uint64_t t1 = now_ns();
    const Status sync_st = s.durable ? me.cl.sync() : Status::kOk;
    const std::uint64_t t2 = s.durable ? now_ns() : t1;
    if (slice < me.lat.size()) me.lat[slice].add(t2 - t0);
    if (traced) {
      me.trace.record({t0, 0, 0}, t1, SpanName::kClientBatch, kBatch);
      if (s.durable) me.trace.record({t1, 0, 0}, t2, SpanName::kWireSync, 0);
      me.span_ns += t2 - t0;
    }
    if (corrupt && reqs[0].op == OpType::kGet) {
      reps[0].value ^= 1;  // self-test: one received value goes bad
      corrupt = false;
    }
    std::uint64_t batch_puts = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (reqs[j].op == OpType::kPut) {
        ++me.puts;
        ++batch_puts;
        me.bad_puts += !overwrote(s, reps[j].status);
        m.sent[ids[j]] = reqs[j].value;
      } else {
        ++me.gets;
        me.bad_gets += reps[j].status != Status::kOk || reps[j].value != m.sent[ids[j]];
      }
    }
    bool checkpoint = false;
    if (s.durable) {
      ++me.syncs;
      if (sync_st == Status::kOk) {
        for (std::size_t j = 0; j < kBatch; ++j) {
          if (reqs[j].op == OpType::kPut) m.acked[ids[j]] = reqs[j].value;
        }
        checkpoint = (acked + batch_puts) / s.checkpoint_every != acked / s.checkpoint_every;
        acked += batch_puts;
      } else {
        ++me.bad_syncs;
      }
    }
    if (checkpoint) {
      const auto o = me.trace.begin();
      const Status st = server.durable_tier()->checkpoint();
      const std::uint64_t d = me.trace.end(o, SpanName::kCheckpoint);
      const dlht::DurableDLHT::Stats ds = server.durable_tier()->stats();
      me.marks.push_back({acked, ds.wal_bytes + ds.snapshot_bytes});
      if (traced) me.span_ns += d;
      ++me.checkpoints;
      me.bad_checkpoints += st != Status::kOk;
    }
    slices.add_ops(0, kBatch);
    if (traced) me.loop_ns += now_ns() - it0;
  }
  me.cpu_ns = thread_cpu_ns() - cpu0;
}

void run_kv(const Args& a, Result& r, const Shape& s) {
  namespace fs = std::filesystem;
  const KeySpace ks(a.seed);
  Model model(s.keys);
  std::unique_ptr<KvServer> server;
  Conn conn;
  ServerOptions so;
  std::vector<double> setup_s;
  std::uint64_t rss0 = 0, rss1 = 0;
  ThreadTrace setup_trace(0, 1);
  const int cpu = pin_to_one_cpu();
  r.check(cpu >= 0, "could not confine the run to one CPU");
  r.notes.push_back("client and server threads on CPU " + std::to_string(cpu));

  // Set-up, several times: server construction and start (durable open
  // on a fresh directory), connection, population; a durable node then
  // checkpoints so its restart loads a snapshot. The last node is measured.
  for (int rep = 0; rep < s.setups; ++rep) {
    conn.cl.close();
    server.reset();
    if (!so.durable_dir.empty()) fs::remove_all(so.durable_dir);
    const std::string tag = std::to_string(rep);
    so = server_options(s, a.scratch + "/kv" + tag + ".sock",
                        s.durable ? a.scratch + "/wal" + tag : "");
    if (rep == 0) rss0 = rss_bytes();
    const auto setup = setup_trace.begin();
    const auto start = setup_trace.begin(setup.id);
    server = std::make_unique<KvServer>(so);
    const bool up = server->start() && conn.cl.connect(so.listen);
    setup_trace.end(start, SpanName::kServerStart);
    if (!up) {
      r.check(false, "server start or client connect failed");
      return;
    }
    const auto pop = setup_trace.begin(setup.id);
    r.add_ops("populate_put", s.keys, populate(conn.cl, ks, s, model));
    setup_trace.end(pop, SpanName::kPopulation, s.keys);
    if (s.durable) {
      const auto o = setup_trace.begin(setup.id);
      r.check(server->durable_tier()->checkpoint() == Status::kOk, "set-up checkpoint");
      setup_trace.end(o, SpanName::kCheckpoint);
    }
    setup_s.push_back(double(setup_trace.end(setup, SpanName::kSetup)) * 1e-9);
    if (rep == 0) rss1 = rss_bytes();
  }

  // Timed window.
  using DStats = dlht::DurableDLHT::Stats;
  const DStats d0 = s.durable ? server->durable_tier()->stats() : DStats{};
  const std::uint64_t sops0 = server->total_ops(), sfl0 = server->total_flushes();
  Slices slices(a.seconds, a.trace, 1);
  conn.lat = slice_samples(a.seconds, 1);
  std::thread client([&] { conn_loop(conn, a, ks, s, model, slices, *server); });
  const std::uint64_t cpu0 = process_cpu_ns(), main0 = thread_cpu_ns();
  slices.run();
  client.join();
  const std::uint64_t cpu1 = process_cpu_ns(), main1 = thread_cpu_ns();
  const std::uint64_t sops1 = server->total_ops(), sfl1 = server->total_flushes();
  const DStats d1 = s.durable ? server->durable_tier()->stats() : DStats{};
  r.add_ops("get", conn.gets, conn.bad_gets);
  r.add_ops("put", conn.puts, conn.bad_puts);
  if (s.durable) {
    r.add_ops("sync", conn.syncs, conn.bad_syncs);
    r.add_ops("checkpoint", conn.checkpoints, conn.bad_checkpoints);
  }
  const double ops = double(conn.gets + conn.puts);

  std::vector<double> recovery_s;
  std::uint64_t replayed = 0;
  if (!s.durable) {
    const OpCount oc = audit(conn.cl, ks, s, model.sent);
    r.add_ops("audit_get", oc.attempted, oc.failed);
  } else {
    // Tail: checkpoint, then a fixed number of acknowledged writes that
    // recovery must replay from the WAL.
    const auto o = setup_trace.begin();
    r.check(server->durable_tier()->checkpoint() == Status::kOk, "final checkpoint");
    setup_trace.end(o, SpanName::kCheckpoint);
    DLHT::Request reqs[kBatch];
    DLHT::Reply reps[kBatch];
    OpCount tail;
    for (std::uint64_t id = 0; id < kTailWrites; id += kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::uint64_t k = ks.key(id + j);
        reqs[j] = DLHT::Request{OpType::kPut, k, ks.value(k, 0x800000 + id + j), 0};
      }
      conn.cl.execute_batch(reqs, reps, kBatch);
      const bool synced = conn.cl.sync() == Status::kOk;
      for (std::size_t j = 0; j < kBatch; ++j) {
        tail.failed += !overwrote(s, reps[j].status) || !synced;
        if (synced) model.acked[id + j] = reqs[j].value;
      }
      tail.attempted += kBatch;
    }
    r.add_ops("tail_put", tail.attempted, tail.failed);
  }
  conn.cl.close();
  server->stop();
  const dlht::MergedLatency fl = server->flush_latency();
  const std::uint64_t server_ops = server->total_ops();
  server.reset();

  if (s.durable) {
    if (a.corrupt) model.acked.back() ^= 1;  // self-test: one logged ack goes bad
    // Restart on the same directory, several times: time until the node
    // serves again, then audit every key against the acknowledgements.
    for (int rep = 0; rep < kRestarts; ++rep) {
      const auto o = setup_trace.begin();
      server = std::make_unique<KvServer>(so);
      KvClient cl;
      const bool up = server->start() && cl.connect(so.listen) && cl.count() >= 0;
      recovery_s.push_back(double(setup_trace.end(o, SpanName::kRecovery)) * 1e-9);
      if (!up) {
        r.check(false, "restart failed");
        return;
      }
      replayed = server->durable_tier()->stats().replayed_records;
      if (rep == kRestarts - 1) {
        const OpCount oc = audit(cl, ks, s, model.acked);
        r.add_ops("recovered_get", oc.attempted, oc.failed);
      }
      cl.close();
      server.reset();
    }
    fs::remove_all(so.durable_dir);
  }

  if (!a.trace) {
    end_to_end(r, slices, {&conn.lat}, setup_s, double(rss1 - rss0) / double(s.keys));
    if (s.durable) {
      // Over whole checkpoint periods, so each write carries the same share
      // of snapshot bytes however the window cuts the last period.
      const auto& m = conn.marks;
      r.check(m.size() >= 2, "fewer than two checkpoints in the window");
      if (m.size() >= 2) {
        r.metric("disk_bytes_per_write",
                 double(m.back().disk_bytes - m.front().disk_bytes) /
                     double(m.back().acked - m.front().acked),
                 "B");
      }
      r.metric("recovery_s", median(recovery_s), "s");
    }
    return;
  }
  double traced_ops = 0;
  for (const Slices::Slice& sl : slices.slices()) traced_ops += sl.traced ? double(sl.ops) : 0;
  ThreadTrace& trace = conn.trace;
  // The server's table is private to KvServer: the table's time is read
  // from its flushes (DLHT::execute_batch, or the durable tier's calls,
  // plus reply encoding) and its own counters are out of reach.
  per_layer(r,
            {{"dlht.batch_ns_per_op", double(fl.total_ns) / double(server_ops)},
             {"dlht.batch_p99_us", double(fl.q2_ns) * 1e-3},
             {"server.ops_per_flush", double(sops1 - sops0) / double(sfl1 - sfl0)},
             {"client.cpu_ns_per_op", double(conn.cpu_ns) / ops},
             {"harness.ns_per_op", double(conn.loop_ns - conn.span_ns) / traced_ops}},
            "KvServer does not expose its table");
  const double server_cpu = double(cpu1 - cpu0 - conn.cpu_ns - (main1 - main0));
  r.notes.push_back("server CPU per op " + std::to_string(server_cpu / ops) + " ns");
  if (s.durable) {
    const double recs = double(d1.records_logged - d0.records_logged);
    r.metric("wal.syncs_per_kwrite", double(d1.syncs - d0.syncs) / (recs * 1e-3), "count");
    r.metric("wal.sync_rtt_p50_us", trace.durations(SpanName::kWireSync).quantile(0.5) * 1e-3, "us");
    r.metric("wal.bytes_per_record", double(d1.wal_bytes - d0.wal_bytes) / recs, "B");
    r.metric("durable.checkpoint_ms",
             double(trace.total_ns(SpanName::kCheckpoint)) /
                 double(trace.count(SpanName::kCheckpoint)) * 1e-6,
             "ms");
    r.metric("durable.snapshot_bytes_per_key",
             double(d1.snapshot_bytes - d0.snapshot_bytes) /
                 double(d1.snapshots_written - d0.snapshots_written) / double(s.keys),
             "B");
    r.metric("durable.replayed_records", double(replayed), "count");
  }
  r.notes.push_back(slices.overhead_note());
  trace.merge(setup_trace);
  write_spans(a.trace_out, trace, r.notes);
}

}  // namespace

void run_kv_mem(const Args& a, Result& r) { run_kv(a, r, kMem); }
void run_kv_durable(const Args& a, Result& r) { run_kv(a, r, kDurable); }

}  // namespace kvbench
