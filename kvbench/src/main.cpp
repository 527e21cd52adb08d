// kvbench: the KV node's benchmark. One workload per run; the last line of
// standard output is the JSON result. See ../README.md.
//
//   kvbench --workload <table_read|table_churn|kv_mem|kv_durable>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--corrupt 1] [--tmp <dir>] [--trace-out <file>]
#include <stdlib.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload <table_read|table_churn|kv_mem|kv_durable> "
               "--seed <n> --seconds <s> --trace <0|1> [--corrupt 1] [--tmp <dir>] "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kvbench;
  Args a;
  std::string tmp_base = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0 && a.seconds <= 600)) return usage();
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--corrupt") {
      a.corrupt = v == "1";
    } else if (k == "--tmp") {
      tmp_base = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  void (*run)(const Args&, Result&) = nullptr;
  if (a.workload == "table_read") run = run_table_read;
  if (a.workload == "table_churn") run = run_table_churn;
  if (a.workload == "kv_mem") run = run_kv_mem;
  if (a.workload == "kv_durable") run = run_kv_durable;
  if (run == nullptr) return usage();
  if (a.trace_out.empty()) a.trace_out = tmp_base + "/" + a.workload + ".spans.csv";

  // Sockets and WAL directories live in a fresh directory removed at exit.
  std::string tmpl = tmp_base + "/kvbench.XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::perror("kvbench: mkdtemp");
    return 2;
  }
  a.scratch = tmpl;

  Result r;
  run(a, r);
  std::filesystem::remove_all(a.scratch);

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const auto& [op, c] : r.ops) {
    std::printf("# ops workload=%s op=%s attempted=%llu failed=%llu\n", a.workload.c_str(),
                op.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return r.correct && r.failed() == 0 ? 0 : 1;
}
