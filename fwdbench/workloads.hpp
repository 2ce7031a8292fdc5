// The benchmark's four workloads. Each runs a timed pass of repeated rounds
// (one untimed warm-up round first) and fills two reports: the gated
// end-to-end metrics that BENCHMARK.json lists, and the per-layer metrics
// of a traced run.
#pragma once

#include <string>

#include "harness.hpp"

namespace fwdbench {

struct Results {
  Report gated;    // end-to-end metrics of an untraced run (BENCHMARK.json end_to_end)
  Report detail;   // per-workload end-to-end metrics, printed with sample counts
  Report layers;   // per-layer metrics of a traced run (BENCHMARK.json per_layer)
  Tally tally;
};

[[nodiscard]] bool known_workload(const std::string& name);

// Runs `opts.workload` and fills `out`. Throws on a harness failure (as
// opposed to a failed check, which is counted in out.tally).
void run_workload(const Options& opts, Results& out);

}  // namespace fwdbench
