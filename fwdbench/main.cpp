// fwdbench: drives the forwarding runtime and the simulator through their
// public interfaces and prints one JSON result line.
//
//   fwdbench --workload <ckpt_burst|small_rw|restart_read|sim_ladder>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--run-dir <dir>] [--trace-out <file>] [--inject <flip|error>]
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the gated end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). The exit code is 0 only when every check
// passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fwdbench: %s\nusage: fwdbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--run-dir <dir>] [--trace-out <file>] [--inject <flip|error>]\n",
               why.c_str());
  std::exit(2);
}

fwdbench::Options parse(int argc, char** argv) {
  fwdbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--run-dir") {
        o.run_dir = v;
      } else if (flag == "--trace-out") {
        o.trace_out = v;
      } else if (flag == "--inject") {
        if (v != "flip" && v != "error") usage("--inject takes flip or error");
        o.inject = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!fwdbench::known_workload(o.workload)) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const fwdbench::Options opts = parse(argc, argv);
  fwdbench::Results res;
  try {
    fwdbench::run_workload(opts, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fwdbench: %s\n", e.what());
    return 3;
  }
  const auto attempted = res.tally.attempted();
  const auto failed = res.tally.failed();
  const bool correct = failed == 0 && attempted > 0;

  res.detail.add("fail_ratio", attempted ? static_cast<double>(failed) / attempted : 1.0, "ratio",
                 attempted, "failed / attempted ops");
  if (opts.trace) {
    res.detail.print("end-to-end (untraced rounds of the traced run)");
    res.layers.print("per-layer (traced rounds)");
  } else {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    // Not gated: the peak follows how far async staging ran ahead in the
    // busiest round, so it moves with timing and with run length.
    res.detail.add("rss_peak_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", 1,
                   "peak RSS of this process");
    res.gated.print("end-to-end (gated)");
    res.detail.print("end-to-end (per workload)");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (opts.trace ? res.layers : res.gated).json().c_str());
  return correct ? 0 : 1;
}
