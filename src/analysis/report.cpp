#include "analysis/report.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/table.hpp"

namespace iofwd::analysis {

FigureReport::FigureReport(std::string fig_id, std::string title, std::string x_name,
                           std::string value_unit)
    : fig_id_(std::move(fig_id)),
      title_(std::move(title)),
      x_name_(std::move(x_name)),
      unit_(std::move(value_unit)) {}

FigureReport::Cell& FigureReport::cell(const std::string& x, const std::string& series) {
  if (std::find(xs_.begin(), xs_.end(), x) == xs_.end()) xs_.push_back(x);
  if (std::find(series_.begin(), series_.end(), series) == series_.end()) {
    series_.push_back(series);
  }
  for (auto& c : cells_) {
    if (c.x == x && c.series == series) return c;
  }
  cells_.push_back(Cell{x, series, std::nullopt, std::nullopt});
  return cells_.back();
}

const FigureReport::Cell* FigureReport::find(const std::string& x,
                                             const std::string& series) const {
  for (const auto& c : cells_) {
    if (c.x == x && c.series == series) return &c;
  }
  return nullptr;
}

void FigureReport::add(const std::string& x, const std::string& series, double value) {
  cell(x, series).measured = value;
}

void FigureReport::add_expected(const std::string& x, const std::string& series, double value) {
  cell(x, series).expected = value;
}

std::optional<double> FigureReport::get(const std::string& x, const std::string& series) const {
  const Cell* c = find(x, series);
  return c != nullptr ? c->measured : std::nullopt;
}

std::string FigureReport::render() const {
  std::string out = "== " + fig_id_ + ": " + title_ + " [" + unit_ + "] ==\n";

  bool any_expected = false;
  for (const auto& c : cells_) any_expected |= c.expected.has_value();

  std::vector<std::string> headers{x_name_};
  for (const auto& s : series_) {
    headers.push_back(s);
    if (any_expected) headers.push_back("paper:" + s);
  }
  Table t(headers);
  for (const auto& x : xs_) {
    std::vector<std::string> row{x};
    for (const auto& s : series_) {
      const Cell* c = find(x, s);
      row.push_back(c != nullptr && c->measured ? Table::num(*c->measured) : "-");
      if (any_expected) {
        row.push_back(c != nullptr && c->expected ? Table::num(*c->expected) : "-");
      }
    }
    t.add_row(std::move(row));
  }
  out += t.render();

  GroupedChart chart("measured series", series_);
  for (const auto& x : xs_) {
    std::vector<double> vals;
    for (const auto& s : series_) {
      const Cell* c = find(x, s);
      vals.push_back(c != nullptr && c->measured ? *c->measured : 0.0);
    }
    chart.add_group(x_name_ + "=" + x, std::move(vals));
  }
  out += chart.render();
  return out;
}

Status FigureReport::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status(Errc::io_error, "cannot open " + path);
  f << x_name_ << ",series,measured_" << unit_ << ",paper_" << unit_ << "\n";
  for (const auto& x : xs_) {
    for (const auto& s : series_) {
      const Cell* c = find(x, s);
      if (c == nullptr) continue;
      f << x << "," << s << ",";
      if (c->measured) f << *c->measured;
      f << ",";
      if (c->expected) f << *c->expected;
      f << "\n";
    }
  }
  return f.good() ? Status::ok() : Status(Errc::io_error, "short write to " + path);
}

DiagTable::DiagTable(std::string title) : title_(std::move(title)) {}

void DiagTable::add(const std::string& label, const std::string& value,
                    const std::string& note) {
  rows_.push_back(Row{label, value, note});
}

void DiagTable::add(const std::string& label, double value, const std::string& note) {
  add(label, Table::num(value, 2), note);
}

std::optional<std::string> DiagTable::get(const std::string& label) const {
  for (const auto& r : rows_) {
    if (r.label == label) return r.value;
  }
  return std::nullopt;
}

std::string DiagTable::render() const {
  std::string out = "-- " + title_ + " --\n";
  bool any_note = false;
  for (const auto& r : rows_) any_note |= !r.note.empty();
  Table t(any_note ? std::vector<std::string>{"stat", "value", "note"}
                   : std::vector<std::string>{"stat", "value"});
  for (const auto& r : rows_) {
    std::vector<std::string> row{r.label, r.value};
    if (any_note) row.push_back(r.note);
    t.add_row(std::move(row));
  }
  out += t.render();
  return out;
}

DiagTable burst_buffer_table(const BurstBufferDiag& d) {
  DiagTable t("burst-buffer cache");
  t.add("hit rate", Table::pct(100.0 * d.hit_rate), "read bytes served from cached extents");
  t.add("coalesce ratio", d.coalesce_ratio, "incoming writes per backend write");
  t.add("flushed", Table::num(static_cast<double>(d.flushed_bytes) / (1024.0 * 1024.0), 1) + " MiB",
        "drained to the backend");
  const double occ = d.capacity_bytes > 0 ? 100.0 * static_cast<double>(d.cached_high_watermark) /
                                                static_cast<double>(d.capacity_bytes)
                                          : 0.0;
  t.add("peak occupancy", Table::pct(occ), "high watermark over bb_bytes");
  t.add("writer stalls", Table::num(static_cast<double>(d.stall_ns) / 1e6, 2) + " ms",
        "waiting for cache space");
  t.add("evictions", static_cast<double>(d.evictions), "clean extents reclaimed");
  t.add("deferred errors", static_cast<double>(d.deferred_errors),
        "flush failures surfaced on later ops");
  return t;
}

DiagTable resilience_table(const ResilienceDiag& d) {
  DiagTable t("resilience");
  t.add("retry attempts", static_cast<double>(d.retry_attempts),
        "backend ops issued, incl. retries");
  t.add("retries", static_cast<double>(d.retries), "re-issues after a transient error");
  t.add("retry giveups", static_cast<double>(d.retry_giveups), "retry budget exhausted");
  t.add("backoff", Table::num(static_cast<double>(d.backoff_ns) / 1e6, 2) + " ms",
        "slept between attempts");
  t.add("deadline expired", static_cast<double>(d.deadline_expired),
        "ops bounced with timed_out, unexecuted");
  t.add("bml timeouts", static_cast<double>(d.bml_timeouts),
        "pool waits past stall_ms");
  t.add("degraded pass-through", static_cast<double>(d.degraded_passthrough),
        "writes served without a BML lease");
  t.add("degraded sync writes", static_cast<double>(d.degraded_sync_writes),
        "staged writes forced synchronous");
  t.add("degraded spans", static_cast<double>(d.degraded_enters),
        Table::num(static_cast<double>(d.degraded_ns) / 1e6, 2) + " ms total");
  t.add("bb degraded writes", static_cast<double>(d.bb_degraded_writes),
        "cache stalls that wrote through");
  t.add("reconnects", static_cast<double>(d.reconnects), "client redials that succeeded");
  t.add("replays", static_cast<double>(d.replays), "ops completed on a retry connection");
  t.add("client timeouts", static_cast<double>(d.client_timeouts),
        "roundtrips killed by the watchdog");
  t.add("client giveups", static_cast<double>(d.giveups), "reconnect budget exhausted");
  return t;
}

DiagTable metrics_table(const obs::Snapshot& snap, const std::string& title) {
  DiagTable t(title);
  // std::map iteration gives name-sorted rows, which groups the dotted
  // namespaces ("bb.*", "client.*", "server.*") naturally.
  for (const auto& [name, v] : snap.counters) {
    t.add(name, static_cast<double>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    t.add(name, static_cast<double>(v), "gauge");
  }
  for (const auto& [name, h] : snap.histograms) {
    t.add(name,
          "n=" + std::to_string(h.count) + " mean=" + Table::num(h.mean(), 1) +
              " p50=" + Table::num(h.p50, 1) + " p95=" + Table::num(h.p95, 1) +
              " p99=" + Table::num(h.p99, 1) + " max=" + std::to_string(h.max),
          "histogram");
  }
  return t;
}

DiagTable metrics_table(const obs::MetricRegistry& reg, const std::string& title) {
  return metrics_table(reg.snapshot(), title);
}

std::string emit(const FigureReport& report) {
  std::string rendered = report.render();
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/" + report.id() + ".csv";
  if (Status st = report.write_csv(path); !st.is_ok()) {
    std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
  } else {
    std::printf("[csv] %s\n\n", path.c_str());
  }
  return path;
}

}  // namespace iofwd::analysis
