// perfbench: one workload per process, so peak RSS belongs to it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit C]
//
// Prints a host stamp line, detail lines, and last the result object
// {"correct","attempted","failed","metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exits 1 when any check
// failed, 2 on bad arguments or a build that must not be measured.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/kernels/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NO_STATS
#define PERFBENCH_NO_STATS 0
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace perfbench;

std::size_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return PERFBENCH_SANITIZED != 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tree421_bulk|tree10k_sparse|flowqueue_fig4 --seed N "
               "--seconds S --trace 0|1 [--commit C]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::size_t nproc = online_cpus();
  options.workers = nproc > 1 ? nproc - 1 : 1;
  std::printf(
      "{\"host\":{\"nproc\":%zu,\"kernel_tier\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"no_stats\":%s,\"sanitized\":%s,"
      "\"commit\":\"%s\",\"event_workers\":%zu}}\n",
      nproc,
      approxiot::core::kernels::tier_name(
          approxiot::core::kernels::active_tier()),
      json_escape(compiler()).c_str(), json_escape(build_type).c_str(),
      PERFBENCH_NO_STATS ? "true" : "false", sanitized() ? "true" : "false",
      json_escape(commit).c_str(), options.workers);
  if (build_type == "Debug" || sanitized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build\n",
                 sanitized() ? "sanitizer" : "Debug");
    return 2;
  }

  Report report;
  try {
    if (options.workload == "tree421_bulk") {
      run_tree421_bulk(options, report);
    } else if (options.workload == "tree10k_sparse") {
      run_tree10k_sparse(options, report);
    } else if (options.workload == "flowqueue_fig4") {
      run_flowqueue_fig4(options, report);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  if (options.trace) fill_missing_per_layer(report);

  for (const std::string& error : report.errors) {
    std::printf("{\"error\":\"%s\"}\n", json_escape(error).c_str());
  }
  std::string metrics;
  for (const Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ',';
    metrics += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
