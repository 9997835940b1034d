// Shared setup for the reproduction benches: a consistently scaled dataset
// and the Fig. 2 experiment configuration.
//
// Scale note: the benches run the synthetic "longdress" subject at 10% of
// full sample density so a full bench suite completes in minutes. The
// qualitative results (who diverges, where the knee falls relative to the
// horizon, growth factors) are scale-invariant; EXPERIMENTS.md records a
// full-scale spot check.
#pragma once

#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/simulation.hpp"

namespace arvis::bench {

// ---------------------------------------------------------------------------
// Perf-trajectory plumbing shared by the benches: a wall-clock timer and a
// BENCH_<name>.json emitter. Every bench that measures speed writes its
// numbers through this, so the repo accumulates a machine-readable perf
// trajectory (one JSON file per bench at the repo root, uploaded by CI as a
// workflow artifact) instead of throwing measurements away in stdout tables.

/// Monotonic wall-clock stopwatch (nanosecond reads).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] double elapsed_ms() const { return elapsed_ns() / 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One measured configuration of a bench. `params` is a raw JSON object
/// string ("{\"sessions\":10000,...}") so each bench picks its own axes;
/// `ns_per_op` is the headline number (ops = whatever unit the bench
/// documents, e.g. session·slots), min over `repetitions` runs.
struct BenchRecord {
  std::string name;
  std::string params;  // raw JSON object
  double ns_per_op = 0.0;
  double ops = 0.0;  // ops measured in the best repetition
  std::size_t repetitions = 1;
};

/// Serializes one dated trajectory entry (records plus an optional raw-JSON
/// `extra` block of bench-specific fields).
inline std::string bench_entry_json(const std::string& date,
                                    const std::vector<BenchRecord>& records,
                                    const std::string& extra = "") {
  std::string out = "{\"date\":\"" + date + "\",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ns_per_op\":%.3f,\"ops\":%.0f,\"repetitions\":%zu}",
                  r.ns_per_op, r.ops, r.repetitions);
    out += (i ? "," : "");
    out += "{\"name\":\"" + r.name + "\",\"params\":" + r.params + "," + buf;
  }
  out += "]";
  if (!extra.empty()) out += "," + extra;
  out += "}";
  return out;
}

/// Local date as YYYY-MM-DD (the trajectory entry stamp).
inline std::string bench_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  localtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
  return buf;
}

/// Reads a whole file; empty string when absent/unreadable.
inline std::string read_file_or_empty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

/// First line of `command`'s stdout (trailing newline stripped); empty when
/// the command cannot run or prints nothing.
inline std::string command_first_line(const char* command) {
  std::FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return "";
  char buf[256] = {};
  const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
  pclose(pipe);
  std::string line = got ? buf : "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// Where and how a trajectory entry was measured, as a raw JSON member
/// ("provenance":{...}) for write_bench_json's `extra`: source revision
/// (`git describe --always --dirty` in the working directory), compiler,
/// optimization and NDEBUG state, hardware threads and CPU model.
inline std::string provenance_json() {
  std::string commit =
      command_first_line("git describe --always --dirty 2>/dev/null");
  if (commit.empty()) commit = "unknown";
  std::string cpu = "unknown";
  const std::string cpuinfo = read_file_or_empty("/proc/cpuinfo");
  const std::size_t key = cpuinfo.find("model name");
  const std::size_t colon = cpuinfo.find(": ", key);
  if (key != std::string::npos && colon != std::string::npos) {
    cpu = cpuinfo.substr(colon + 2, cpuinfo.find('\n', colon) - colon - 2);
  }
#if defined(__clang__)
  const char* compiler_id = "Clang ";
#elif defined(__GNUC__)
  const char* compiler_id = "GNU ";
#else
  const char* compiler_id = "";
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const char* flags = "optimized,NDEBUG";
#elif defined(__OPTIMIZE__)
  const char* flags = "optimized";
#else
  const char* flags = "unoptimized";
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"provenance\":{\"commit\":\"%s\",\"compiler\":\"%s%s\","
                "\"flags\":\"%s\",\"nproc\":%u,\"cpu_model\":\"%s\"}",
                commit.c_str(), compiler_id, __VERSION__, flags,
                std::thread::hardware_concurrency(), cpu.c_str());
  return buf;
}

/// Appends a dated trajectory entry to the bench's JSON at `path` (default:
/// BENCH_<bench>.json in the current directory — run from the repo root to
/// land it beside the sources), preserving every earlier entry so the perf
/// history survives across PRs:
///
///   {"bench":"<name>","entries":[<oldest>, ..., <today>]}
///
/// A pre-history file in the old single-object format is wrapped verbatim as
/// the first entry (it keeps its own fields; it just lacks a "date").
/// Returns false on I/O failure.
inline bool write_bench_json(const std::string& bench,
                             const std::vector<BenchRecord>& records,
                             const std::string& extra = "",
                             std::string path = "") {
  if (path.empty()) path = "BENCH_" + bench + ".json";
  const std::string entry = bench_entry_json(bench_date(), records, extra);
  const std::string prefix = "{\"bench\":\"" + bench + "\",\"entries\":[";

  std::string existing = read_file_or_empty(path);
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' ')) {
    existing.pop_back();
  }

  std::string body;
  if (existing.rfind(prefix, 0) == 0 && existing.size() >= 2 &&
      existing.compare(existing.size() - 2, 2, "]}") == 0) {
    // Already the entries format: splice today's entry before the closer.
    body = existing.substr(0, existing.size() - 2) + ",\n" + entry + "]}\n";
  } else if (!existing.empty() && existing.front() == '{' &&
             existing.back() == '}') {
    // Legacy single-object trajectory point: keep it as the first entry.
    body = prefix + existing + ",\n" + entry + "]}\n";
  } else {
    body = prefix + entry + "]}\n";
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "write_bench_json: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  std::printf("appended trajectory entry to %s\n", path.c_str());
  return ok;
}

/// Frames cached for the simulation benches (one walk cycle at 30 fps ~ a
/// representative slice of the 300-frame sequence; slots cycle through it).
inline constexpr std::size_t kCachedFrames = 16;

/// The paper's Fig. 2 slot horizon.
inline constexpr std::size_t kSteps = 800;

/// Builds the shared frame-stats cache (expensive; call once per binary).
inline const FrameStatsCache& fig2_cache() {
  static const FrameStatsCache cache = [] {
    auto subject = open_subject("longdress", /*seed=*/8, /*scale=*/0.1);
    if (!subject.ok()) {
      std::fprintf(stderr, "failed to open subject: %s\n",
                   subject.status().to_string().c_str());
      std::abort();
    }
    return FrameStatsCache(**subject, /*octree_depth=*/10, kCachedFrames);
  }();
  return cache;
}

/// Fig. 2 candidate set R = {5..10} (Fig. 2(b) y-axis).
inline SimConfig fig2_config() {
  SimConfig config;
  config.steps = kSteps;
  config.candidates = {5, 6, 7, 8, 9, 10};
  config.quality = QualityKind::kPoints;
  return config;
}

/// Service rate for Fig. 2: min depth comfortably sustainable, max depth
/// not (between a(6) and a(7) so the proposed scheme has room to adapt).
inline double fig2_service_rate() {
  return calibrate_service_rate(fig2_cache(), 6, 1.5);
}

/// V placed so the proposed controller's backlog pivot is reached mid-run
/// (reproducing the "recognized optimized point" near t = 400 of the paper).
inline double fig2_v() {
  const double service = fig2_service_rate();
  const auto& mean_points = fig2_cache().mean_points_at_depth();
  const double a_max = mean_points[10];
  // Backlog accumulated by holding max depth for half the horizon.
  const double pivot = 0.5 * static_cast<double>(kSteps) * (a_max - service);
  return calibrate_v_for_pivot(fig2_cache(), fig2_config(), pivot);
}

/// Prints a table to stdout as an aligned text table plus raw CSV.
inline void print_table(const std::string& title, const CsvTable& table) {
  std::printf("\n== %s ==\n%s\n--- CSV ---\n%s", title.c_str(),
              table.to_pretty_string().c_str(), table.to_string().c_str());
}

}  // namespace arvis::bench
