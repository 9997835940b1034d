// Seeded mutation harness for the driver's two untrusted inputs: workload
// trace CSV text (parse_csv + parse_workload_trace, over all six
// optional-column header variants) and fault plans (validate_fault_plan).
// Every mutated input must end either as a value that round-trips exactly
// through its own rendering, or as an error Status — never as a throw, and
// (under the asan-ubsan preset) never as a sanitizer report. Fixed seeds keep
// the run deterministic and well under a second.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "serving/driver/fault.hpp"
#include "serving/driver/trace.hpp"

namespace arvis {
namespace {

/// A small valid trace with the optional columns switched on as asked.
/// (close, fault, delay) spans the six header variants the parser accepts.
WorkloadTrace seed_trace(bool close, bool fault, bool delay) {
  WorkloadTrace trace;
  trace.events = {
      {0, 40, 0, 1.0, QosClass::kStandard, close ? 30U : 0U},
      {5, 0, 1, 2.0, QosClass::kPremium, 0},
      {5, 12, 0, 0.5, QosClass::kBestEffort, 0},
      {300, 7, 1, 1.0, QosClass::kStandard, 0},
  };
  if (fault) {
    trace.faults = {
        {10, FaultKind::kLinkDown, 1, 1.0, 0.0},
        {20, FaultKind::kLinkUp, 1, 1.0, 0.0},
        {25, FaultKind::kCapacityScale, 0, 0.5, 0.0},
        {30, FaultKind::kLinkDegrade, 0, 0.25, delay ? 2.0 : 0.0},
        {40, FaultKind::kLinkDegrade, 0, 1.0, 0.0},
        {50, FaultKind::kLinkDown, 0, 1.0, 0.0},
    };
  }
  return trace;
}

/// Tokens a mutation may splice in: numeric edge cases, every enum
/// spelling, and the CSV structural characters.
const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> tokens = {
      "0", "-1", "-0", "1e309", "nan", "inf", "-inf", "0.5", "1e-320",
      "18446744073709551615", "18446744073709551616", "9223372036854775807",
      "-9223372036854775808", "4294967296", "link-down", "link-up",
      "capacity-scale", "link-degrade", "premium", "standard", "best-effort",
      ",", "\"", "\"\"", "\n", "\r\n", ",,", " ", "x"};
  return tokens;
}

std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_u64() % n);
}

/// Applies 1–3 random edits: byte flip, byte-range delete, token splice, or
/// line duplication.
std::string mutate(std::string text, Rng& rng) {
  const std::size_t edits = 1 + below(rng, 3);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = below(rng, text.size());
    switch (below(rng, 4)) {
      case 0:
        text[at] = static_cast<char>(below(rng, 256));
        break;
      case 1:
        text.erase(at, 1 + below(rng, 4));
        break;
      case 2: {
        const auto& tokens = dictionary();
        text.insert(at, tokens[below(rng, tokens.size())]);
        break;
      }
      default: {
        const std::size_t begin = text.rfind('\n', at);
        const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', at);
        const std::size_t stop = end == std::string::npos ? text.size() : end;
        const std::string line = text.substr(start, stop - start);
        text.insert(stop, 1, '\n');
        text.insert(stop + 1, line);
        break;
      }
    }
  }
  return text;
}

/// Outcome of one trace input: parsed cleanly, or refused with ParseError.
enum class Outcome { kOk, kRefused };

/// Parses `text`; an accepted trace must be structurally sound and
/// re-parse from its own table to the identical event and fault streams.
Outcome check_trace_text(const std::string& text) {
  const Result<CsvTable> table = parse_csv(text);
  if (!table.ok()) {
    EXPECT_EQ(table.status().code(), StatusCode::kParseError);
    return Outcome::kRefused;
  }
  const Result<WorkloadTrace> trace = parse_workload_trace(*table);
  if (!trace.ok()) {
    EXPECT_EQ(trace.status().code(), StatusCode::kParseError);
    return Outcome::kRefused;
  }
  EXPECT_TRUE(validate_workload_trace(*trace).ok());
  const Result<CsvTable> again = parse_csv(trace->to_table().to_string());
  EXPECT_TRUE(again.ok());
  if (!again.ok()) return Outcome::kOk;
  const Result<WorkloadTrace> back = parse_workload_trace(*again);
  EXPECT_TRUE(back.ok()) << back.status().message();
  if (back.ok()) {
    EXPECT_EQ(back->events, trace->events);
    EXPECT_EQ(back->faults, trace->faults);
  }
  return Outcome::kOk;
}

TEST(InputMutationTest, TraceCsvParsesOrRefusesNeverThrows) {
  Rng rng(0x7AC3F00DULL);
  std::size_t variants = 0;
  for (const bool close : {false, true}) {
    for (const bool fault : {false, true}) {
      for (const bool delay : {false, true}) {
        if (delay && !fault) continue;  // f_delay rides the fault columns
        ++variants;
        const std::string base =
            seed_trace(close, fault, delay).to_table().to_string();
        ASSERT_EQ(check_trace_text(base), Outcome::kOk) << base;
        std::size_t ok = 0;
        std::size_t refused = 0;
        for (int i = 0; i < 1500; ++i) {
          const std::string text = mutate(base, rng);
          try {
            (check_trace_text(text) == Outcome::kOk ? ok : refused) += 1;
          } catch (const std::exception& e) {
            ADD_FAILURE() << "threw '" << e.what() << "' on input:\n" << text;
          }
          if (HasFailure()) {
            FAIL() << "first failing input:\n" << text;
          }
        }
        // The mutator must reach both outcomes, or the harness is blind.
        EXPECT_GT(ok, 0U);
        EXPECT_GT(refused, 0U);
      }
    }
  }
  EXPECT_EQ(variants, 6U);
}

/// One random field edit on a fault event: slot, kind, link, scale, delay,
/// or an order swap with its neighbour.
void mutate_plan(FaultPlan& plan, std::size_t link_count, Rng& rng) {
  if (plan.events.empty()) return;
  static const double kScales[] = {
      0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e300,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  const std::size_t i = below(rng, plan.events.size());
  FaultEvent& event = plan.events[i];
  switch (below(rng, 6)) {
    case 0:
      event.slot = below(rng, 400);
      break;
    case 1:
      event.kind = static_cast<FaultKind>(below(rng, 4));
      break;
    case 2:
      event.link = static_cast<std::uint32_t>(below(rng, 2 * link_count));
      break;
    case 3:
      event.scale = kScales[below(rng, std::size(kScales))];
      break;
    case 4:
      event.delay = kScales[below(rng, std::size(kScales))];
      break;
    default:
      if (i + 1 < plan.events.size()) {
        std::swap(plan.events[i], plan.events[i + 1]);
      }
      break;
  }
}

TEST(InputMutationTest, FaultPlanValidatesOrRefusesNeverThrows) {
  constexpr std::size_t kLinks = 3;
  FaultPlanConfig config;
  config.link_count = kLinks;
  config.horizon = 300;
  config.outages = 2;
  config.flaps = 1;
  config.fades = 1;
  config.brownouts = 1;
  config.walkers = 2;
  const FaultPlan base = make_fault_plan(config);
  ASSERT_TRUE(validate_fault_plan(base, kLinks).ok());

  Rng rng(0xFA017ULL);
  std::size_t ok = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 4000; ++i) {
    FaultPlan plan = base;
    const std::size_t edits = 1 + below(rng, 3);
    for (std::size_t e = 0; e < edits; ++e) mutate_plan(plan, kLinks, rng);
    try {
      if (!validate_fault_plan(plan, kLinks).ok()) {
        ++refused;
        continue;
      }
      ++ok;
      // An accepted plan is one the trace format can carry exactly.
      WorkloadTrace trace;
      trace.faults = plan.events;
      const Result<CsvTable> table = parse_csv(trace.to_table().to_string());
      ASSERT_TRUE(table.ok());
      const Result<WorkloadTrace> back = parse_workload_trace(*table);
      ASSERT_TRUE(back.ok()) << back.status().message();
      EXPECT_EQ(back->faults, plan.events);
    } catch (const std::exception& e) {
      FAIL() << "validate_fault_plan path threw '" << e.what() << "'";
    }
  }
  EXPECT_GT(ok, 0U);
  EXPECT_GT(refused, 0U);
}

}  // namespace
}  // namespace arvis
