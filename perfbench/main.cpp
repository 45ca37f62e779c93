// pambench: the repository benchmark's driver binary. run.py builds it and
// calls it; see README.md in this directory for the workloads and metrics.
//
//   pambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--tiny] [--corrupt]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (the end-to-end set, or the per-layer set when
// --trace 1). The exit code is 0 only if every output check passed.
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "parallel/parallel.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: pambench --workload ycsb_a_durable|ycsb_b_rangesum|bulk_table3 "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--tiny] [--corrupt]\n");
  std::exit(2);
}

void print_metrics(const std::map<std::string, bench::metric>& ms) {
  bool first = true;
  for (const auto& [name, m] : ms) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::args a;
  bool have_trace = false;
  for (int i = 1; i < argc; i++) {
    std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(next().c_str());
    else if (k == "--trace") { a.trace = next() == "1"; have_trace = true; }
    else if (k == "--work-dir") a.work_dir = next();
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--corrupt") a.corrupt = true;
    else usage();
  }
  const bool serving = a.workload == "ycsb_a_durable" || a.workload == "ycsb_b_rangesum";
  if ((!serving && a.workload != "bulk_table3") || !have_trace || a.seconds <= 0) usage();

  // The main thread touches the scheduler first, so it owns worker 0 (the
  // thread allowed to resize the pool for the one-worker runs).
  const int workers = pam::num_workers();
  std::printf("provenance: nproc=%u workers=%d compiler=\"%s\" isa=%s seed=%llu seconds=%g "
              "trace=%d metrics_compiled=%d%s\n",
              std::thread::hardware_concurrency(), workers, __VERSION__,
#if defined(__AVX512F__)
              "avx512",
#elif defined(__AVX2__)
              "avx2",
#else
              "baseline",
#endif
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              pam::obs::kEnabled ? 1 : 0, a.tiny ? " tiny=1" : "");

  bench::report r;
  try {
    if (serving) bench::run_serving(a, r);
    else bench::run_bulk(a, r);
  } catch (const std::exception& e) {
    std::printf("run aborted: %s\n", e.what());
    r.failed++;
    r.attempted = std::max<uint64_t>(r.attempted, 1);
  }
  if (r.attempted == 0) r.attempted = 1;
  const double error_ratio = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("error_ratio %.3g (%llu of %llu ops or checks failed)\n", error_ratio,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  r.set("ok_ratio", 1.0 - error_ratio, "fraction");

  for (const auto& [name, m] : r.e2e)
    std::printf("metric %-22s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  if (a.trace) {
    for (const auto& [name, m] : r.layer) {
      auto na = r.not_measured.find(name);
      if (na != r.not_measured.end())
        std::printf("layer  %-36s n/a (%s)\n", name.c_str(), na->second.c_str());
      else
        std::printf("layer  %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(a.trace ? r.layer : r.e2e);
  std::printf("}}\n");
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
