// Figure 12: varying the batch size (scalar, then 1, 2, ..., 128 through
// the batched API).
//
// Paper shape: throughput rises with batch size while more DRAM misses can
// overlap, then plateaus around ~24 once MSHR/TLB limits are hit; a batch
// of 1 is pure pipeline overhead versus the scalar path.
#include <algorithm>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t keys = args.keys;
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  print_header("fig12", "throughput vs batch size");

  constexpr std::size_t kSweep[] = {1, 2, 4, 8, 16, 24, 32, 64, 128};

  double get_scalar = 0, get_b1 = 0, get_peak = 0, get_last = 0;

  print_probe_engine();

  // Get across batch sizes (x = 0 is the scalar API).
  {
    InlinedMap m(dlht_options(keys));
    workload::populate(m, keys);
    get_scalar = get_tput(m, keys, threads, secs, 1);
    print_row("fig12", "Get", 0, get_scalar, "Mreq/s");
    for (const std::size_t b : kSweep) {
      const double v = run_tput(
          threads, secs, workload::make_get_batch_worker(m, keys, b, 7));
      print_row("fig12", "Get", static_cast<double>(b), v, "Mreq/s");
      if (b == 1) get_b1 = v;
      get_peak = std::max(get_peak, v);
      get_last = v;
    }
  }

  // Same Get sweep on the SWAR and the AVX2 probe when the host dispatches
  // AVX2: batch size is where the engines separate (SIMD needs >= 8
  // in-flight probes per sweep to fill its lanes), so the batch-size curve
  // is the natural place to see the crossover.
  if (DLHT::dispatches_simd(dlht_options(keys))) {
    for (const bool simd : {false, true}) {
      Options o = dlht_options(keys);
      o.ablation.simd_probe = simd;
      InlinedMap m(o);
      workload::populate(m, keys);
      const std::string series = std::string("Get[") + probe_engine(o) + "]";
      for (const std::size_t b : {1ul, 8ul, 24ul, 64ul}) {
        print_row("fig12", series, static_cast<double>(b),
                  run_tput(threads, secs,
                           workload::make_get_batch_worker(m, keys, b, 7)),
                  "Mreq/s");
      }
    }
  }

  // InsDel across batch sizes (x = 0 is the scalar API). Each batch is
  // insert/delete pairs, so odd sizes round down to b/2*2 requests.
  {
    InlinedMap m(dlht_options(keys));
    print_row("fig12", "InsDel", 0, insdel_tput(m, 0, threads, secs, 1),
              "Mreq/s");
    for (const std::size_t b : {2u, 4u, 8u, 16u, 24u, 32u, 64u, 128u}) {
      print_row("fig12", "InsDel", static_cast<double>(b),
                insdel_tput(m, 0, threads, secs, b), "Mreq/s");
    }
  }

  check_shape("a batch of 1 is overhead vs the scalar path",
              get_b1 <= get_scalar * 1.1);
  check_shape("batched throughput rises with batch size",
              get_peak > get_b1 * 1.2);
  check_shape("gains plateau at large batches (no collapse at 128)",
              get_last >= get_peak * 0.5);
  return 0;
}
