// arvis_perfbench: one repetition of one benchmark workload.
//
//   arvis_perfbench --workload <name> --seed <n> [--trace 0|1]
//                   [--threads <n>] [--busy-wait-us <x>]
//                   [--chrome-trace-prefix <path-prefix>]
//
// Prints one JSON object on stdout: the correctness verdict, the digest of
// the deterministic outputs, every measured quantity with its sample count,
// and the build's provenance. run.py drives repetitions and aggregates.
// Exit code 0 when every correctness check passed, 1 otherwise, 2 on usage
// errors.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

void print_number(const char* key, double value, bool comma = true) {
  std::printf("\"%s\":%.17g%s", key, value, comma ? "," : "");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "arvis_perfbench: %s\nusage: arvis_perfbench --workload "
               "<dense_steady|churn_diurnal|chaos_handover|wide_parallel> "
               "--seed <n> [--trace 0|1] [--threads n] [--busy-wait-us x] "
               "[--chrome-trace-prefix p]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!perfbench::parse_workload(value, options.workload)) {
        return usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--threads") {
      options.threads = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || options.threads == 0 ||
          options.threads > 64) {
        return usage("bad --threads");
      }
    } else if (arg == "--busy-wait-us") {
      const double us = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(us >= 0.0) || us > 1e6) {
        return usage("bad --busy-wait-us");
      }
      options.step_busy_wait_ns = static_cast<std::uint64_t>(us * 1e3);
    } else if (arg == "--chrome-trace-prefix") {
      options.chrome_trace_prefix = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arvis_perfbench: run failed: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\":%s,\"failures\":[", r.correct ? "true" : "false");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(r.failures[i]).c_str());
  }
  std::printf("],\"digest\":\"%016" PRIx64 "\",", r.digest);
  std::printf("\"threads\":%zu,\"offered\":%zu,\"failed\":%zu,", r.threads,
              r.offered, r.failed);
  print_number("setup_s", r.setup_s);
  print_number("cache_build_s", r.cache_build_s);
  print_number("runtime_build_s", r.runtime_build_s);
  print_number("window_s", r.window_s);
  print_number("session_slots", r.session_slots);
  print_number("ns_per_session_slot", r.ns_per_session_slot);
  print_number("finish_s", r.finish_s);
  print_number("peak_rss_mb", r.peak_rss_mb);
  print_number("mean_quality", r.mean_quality);
  print_number("mean_backlog_kb", r.mean_backlog_kb);
  std::printf("\"slot_us\":[");
  for (std::size_t i = 0; i < r.slot_us.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", r.slot_us[i]);
  }
  std::printf("],\"window_us\":[");
  for (std::size_t i = 0; i < r.window_us.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", r.window_us[i]);
  }
  std::printf("],\"layers\":{");
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"build\":{\"compiler\":\"%s\",\"flags\":\"%s\","
              "\"build_type\":\"%s\"}}\n",
              json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(PERFBENCH_FLAGS).c_str(),
              json_escape(PERFBENCH_BUILD_TYPE).c_str());
  return r.correct ? 0 : 1;
}
