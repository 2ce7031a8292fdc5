// Figure reports: the harness every bench binary uses to print a paper
// figure next to the measured reproduction, and to persist the data as CSV.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/metrics.hpp"

namespace iofwd::analysis {

// A grid of (x-category, series) -> value, preserving insertion order, with
// optional paper-expected values per cell for side-by-side comparison.
class FigureReport {
 public:
  FigureReport(std::string fig_id, std::string title, std::string x_name,
               std::string value_unit = "MiB/s");

  void add(const std::string& x, const std::string& series, double value);
  void add_expected(const std::string& x, const std::string& series, double value);

  [[nodiscard]] std::optional<double> get(const std::string& x, const std::string& series) const;

  // Table of measured values (one row per x, one column per series), with
  // "paper:<series>" columns interleaved where expectations were provided,
  // plus an ASCII chart of the measured series.
  [[nodiscard]] std::string render() const;

  // CSV: x,series,measured,expected
  [[nodiscard]] Status write_csv(const std::string& path) const;

  [[nodiscard]] const std::string& id() const { return fig_id_; }

 private:
  struct Cell {
    std::string x;
    std::string series;
    std::optional<double> measured;
    std::optional<double> expected;
  };
  Cell& cell(const std::string& x, const std::string& series);
  [[nodiscard]] const Cell* find(const std::string& x, const std::string& series) const;

  std::string fig_id_;
  std::string title_;
  std::string x_name_;
  std::string unit_;
  std::vector<std::string> xs_;      // insertion order
  std::vector<std::string> series_;  // insertion order
  std::vector<Cell> cells_;
};

// Convenience used by every bench main(): render to stdout and drop the CSV
// under results/ (created on demand). Returns the CSV path.
std::string emit(const FigureReport& report);

// A small titled label/value/note table for diagnostics that are not a
// figure grid (counter dumps, cache stats). Rows render in insertion order.
class DiagTable {
 public:
  explicit DiagTable(std::string title);

  void add(const std::string& label, const std::string& value, const std::string& note = "");
  void add(const std::string& label, double value, const std::string& note = "");

  [[nodiscard]] std::optional<std::string> get(const std::string& label) const;
  [[nodiscard]] std::string render() const;

 private:
  struct Row {
    std::string label;
    std::string value;
    std::string note;
  };
  std::string title_;
  std::vector<Row> rows_;
};

// Burst-buffer cache counters in table-ready form. Plain numbers rather than
// an obs::Snapshot keep the table's inputs explicit; callers read the bb.*
// metrics (and derive the two ratios) and copy them across.
struct BurstBufferDiag {
  double hit_rate = 0.0;        // fraction of read bytes served from cache
  double coalesce_ratio = 0.0;  // incoming writes per backend write
  std::uint64_t flushed_bytes = 0;
  std::uint64_t cached_high_watermark = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t stall_ns = 0;  // writer time spent waiting for cache space
  std::uint64_t evictions = 0;
  std::uint64_t deferred_errors = 0;
};

// Render the standard burst-buffer diagnostics table ("where bursts are
// absorbed"): hit rate, coalesce ratio, flushed bytes, occupancy, stalls.
DiagTable burst_buffer_table(const BurstBufferDiag& d);

// Resilience counters in table-ready form (DESIGN.md §10). Like
// BurstBufferDiag, plain numbers so analysis/ stays independent of rt/,
// bb/ and fault/; callers copy the fields they have and leave the rest 0.
struct ResilienceDiag {
  // Retry/backoff (fault::RetryingBackend, retry.*).
  std::uint64_t retry_attempts = 0;   // backend ops issued, incl. retries
  std::uint64_t retries = 0;          // re-issues after a transient error
  std::uint64_t retry_giveups = 0;    // ops that exhausted the retry budget
  std::uint64_t backoff_ns = 0;       // time spent sleeping between attempts
  // Server-side (server.* and bb.degraded_writes).
  std::uint64_t deadline_expired = 0;     // ops bounced past their deadline
  std::uint64_t bml_timeouts = 0;         // pool waits past stall_ms
  std::uint64_t degraded_passthrough = 0; // writes served without a BML lease
  std::uint64_t degraded_sync_writes = 0; // staged writes forced synchronous
  std::uint64_t degraded_enters = 0;      // degraded_queue_depth crossings
  std::uint64_t degraded_ns = 0;          // time spent in degraded mode
  std::uint64_t bb_degraded_writes = 0;   // bb stalls that fell back to write-through
  // Client-side (rt::ClientStats).
  std::uint64_t reconnects = 0;
  std::uint64_t replays = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t giveups = 0;
};

// Render the standard resilience diagnostics table ("how faults were
// absorbed"): retries, giveups, deadline bounces, degradation, reconnects.
DiagTable resilience_table(const ResilienceDiag& d);

// Generic dump of one obs metric snapshot: every counter and gauge as a row
// (sorted by name — one row per metric), every histogram as a
// count/mean/p50/p95/p99/max summary row. Replaces the per-subsystem table
// builders for ad-hoc "show me everything" dumps (ion_daemon SIGUSR1,
// bench footers); the curated tables above remain for figure-style output.
DiagTable metrics_table(const obs::Snapshot& snap, const std::string& title = "metrics");

// Convenience: snapshot the registry, then render.
DiagTable metrics_table(const obs::MetricRegistry& reg, const std::string& title = "metrics");

}  // namespace iofwd::analysis
