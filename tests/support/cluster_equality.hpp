// Whole-run equality for EdgeCluster results and their telemetry: the
// parallel == serial pins compare a sharded run against the serial one with
// these, field by field and bit for bit (doubles compare by their bits, so a
// reordered floating-point sum cannot hide behind operator==).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serving/cluster.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"

namespace arvis_test {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

inline void expect_traces_bits_equal(const arvis::Trace& a,
                                     const arvis::Trace& b,
                                     const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const arvis::StepRecord& x = a.at(t);
    const arvis::StepRecord& y = b.at(t);
    ASSERT_EQ(x.t, y.t) << where << " slot=" << t;
    ASSERT_EQ(x.depth, y.depth) << where << " slot=" << t;
    ASSERT_EQ(bits(x.arrivals), bits(y.arrivals)) << where << " slot=" << t;
    ASSERT_EQ(bits(x.service), bits(y.service)) << where << " slot=" << t;
    ASSERT_EQ(bits(x.backlog_begin), bits(y.backlog_begin))
        << where << " slot=" << t;
    ASSERT_EQ(bits(x.backlog_end), bits(y.backlog_end))
        << where << " slot=" << t;
    ASSERT_EQ(bits(x.quality), bits(y.quality)) << where << " slot=" << t;
  }
}

inline void expect_fleets_bits_equal(const arvis::FleetMetrics& a,
                                     const arvis::FleetMetrics& b,
                                     const std::string& where) {
  EXPECT_EQ(a.sessions_submitted, b.sessions_submitted) << where;
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted) << where;
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected) << where;
  EXPECT_EQ(bits(a.quality_fairness), bits(b.quality_fairness)) << where;
  EXPECT_EQ(bits(a.mean_quality), bits(b.mean_quality)) << where;
  EXPECT_EQ(bits(a.total_time_average_backlog),
            bits(b.total_time_average_backlog))
      << where;
  EXPECT_EQ(bits(a.peak_backlog), bits(b.peak_backlog)) << where;
  EXPECT_EQ(a.divergent_sessions, b.divergent_sessions) << where;
  EXPECT_EQ(a.partial_summary_sessions, b.partial_summary_sessions) << where;
  EXPECT_EQ(bits(a.capacity_offered), bits(b.capacity_offered)) << where;
  EXPECT_EQ(bits(a.capacity_used), bits(b.capacity_used)) << where;
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency) << where;
}

inline void expect_cluster_metrics_equal(const arvis::ClusterMetrics& a,
                                         const arvis::ClusterMetrics& b,
                                         const std::string& where) {
  EXPECT_EQ(a.link_count, b.link_count) << where;
  expect_fleets_bits_equal(a.fleet, b.fleet, where + " fleet");
  ASSERT_EQ(a.per_link.size(), b.per_link.size()) << where;
  for (std::size_t k = 0; k < a.per_link.size(); ++k) {
    expect_fleets_bits_equal(a.per_link[k], b.per_link[k],
                             where + " link " + std::to_string(k));
  }
  ASSERT_EQ(a.per_link_admission.size(), b.per_link_admission.size()) << where;
  for (std::size_t k = 0; k < a.per_link_admission.size(); ++k) {
    EXPECT_EQ(a.per_link_admission[k].attempts,
              b.per_link_admission[k].attempts)
        << where << " link " << k;
    EXPECT_EQ(a.per_link_admission[k].accepted,
              b.per_link_admission[k].accepted)
        << where << " link " << k;
    EXPECT_EQ(a.per_link_admission[k].rejected,
              b.per_link_admission[k].rejected)
        << where << " link " << k;
  }
  EXPECT_EQ(bits(a.link_load_fairness), bits(b.link_load_fairness)) << where;
  // Every placement, fault-plane and migration count at once.
  EXPECT_TRUE(static_cast<const arvis::ClusterLedger&>(a) ==
              static_cast<const arvis::ClusterLedger&>(b))
      << where;
}

/// Every session outcome (placement, summary, per-slot trace), the fleet
/// metrics and both report tables.
inline void expect_cluster_results_equal(const arvis::ClusterResult& a,
                                         const arvis::ClusterResult& b,
                                         const std::string& where) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size()) << where;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const arvis::ClusterSessionOutcome& x = a.sessions[i];
    const arvis::ClusterSessionOutcome& y = b.sessions[i];
    const std::string who = where + " session=" + std::to_string(i);
    ASSERT_EQ(x.link, y.link) << who;
    ASSERT_EQ(x.spilled, y.spilled) << who;
    ASSERT_EQ(x.arrived, y.arrived) << who;
    ASSERT_EQ(x.failovers, y.failovers) << who;
    ASSERT_EQ(x.migrations, y.migrations) << who;
    ASSERT_EQ(x.fault_evicted, y.fault_evicted) << who;
    ASSERT_EQ(x.session.admitted, y.session.admitted) << who;
    ASSERT_EQ(x.session.arrival_slot, y.session.arrival_slot) << who;
    ASSERT_EQ(x.session.departure_slot, y.session.departure_slot) << who;
    ASSERT_EQ(x.session.slots, y.session.slots) << who;
    ASSERT_EQ(x.session.has_summary, y.session.has_summary) << who;
    if (x.session.has_summary) {
      ASSERT_TRUE(arvis::bit_identical(x.session.summary, y.session.summary))
          << who;
    }
    expect_traces_bits_equal(x.session.trace, y.session.trace, who);
  }
  expect_cluster_metrics_equal(a.metrics, b.metrics, where);
  EXPECT_EQ(a.session_table.to_string(), b.session_table.to_string()) << where;
  EXPECT_EQ(a.link_table.to_string(), b.link_table.to_string()) << where;
}

/// Every counter value and every histogram's count, sum, extremes and
/// buckets, in registration order.
inline void expect_registries_equal(const arvis::TelemetryRegistry& a,
                                    const arvis::TelemetryRegistry& b,
                                    const std::string& where) {
  using Counter = std::pair<std::string, std::uint64_t>;
  std::vector<Counter> ca, cb;
  a.for_each_counter([&](const std::string& name,
                         const arvis::TelemetryCounter& c) {
    ca.emplace_back(name, c.value());
  });
  b.for_each_counter([&](const std::string& name,
                         const arvis::TelemetryCounter& c) {
    cb.emplace_back(name, c.value());
  });
  EXPECT_EQ(ca, cb) << where;

  using Histogram = std::tuple<std::string, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t,
                               std::vector<std::uint64_t>>;
  const auto histograms = [](const arvis::TelemetryRegistry& r) {
    std::vector<Histogram> out;
    r.for_each_histogram([&](const std::string& name,
                             const arvis::TelemetryHistogram& h) {
      std::vector<std::uint64_t> buckets(arvis::TelemetryHistogram::kBuckets);
      for (std::size_t k = 0; k < buckets.size(); ++k) {
        buckets[k] = h.bucket_count(k);
      }
      out.emplace_back(name, h.count(), bits(h.sum()), bits(h.min()),
                       bits(h.max()), std::move(buckets));
    });
    return out;
  };
  EXPECT_EQ(histograms(a), histograms(b)) << where;
}

/// Held spans per (lane, phase, slot) — timestamps differ run to run, the
/// shape of the trace must not.
inline std::map<std::tuple<std::uint32_t, int, std::size_t>, std::size_t>
span_counts(const arvis::PhaseTracer& tracer) {
  std::map<std::tuple<std::uint32_t, int, std::size_t>, std::size_t> counts;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const arvis::SpanRecord& r = tracer.at(i);
    ++counts[{r.tid, static_cast<int>(r.phase), r.slot}];
  }
  return counts;
}

/// The held flight events as a sorted multiset of (slot, lane, kind,
/// payload bits): shards on different threads interleave their records, so
/// `seq` order may differ between runs; the events themselves may not.
inline std::vector<
    std::tuple<std::size_t, std::uint32_t, int, std::uint64_t, std::uint64_t>>
flight_events(const arvis::FlightRecorder& recorder) {
  std::vector<
      std::tuple<std::size_t, std::uint32_t, int, std::uint64_t, std::uint64_t>>
      out;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const arvis::FlightEvent& e = recorder.at(i);
    out.emplace_back(e.slot, e.tid, static_cast<int>(e.kind), bits(e.a),
                     bits(e.b));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace arvis_test
