// Unified knob parsing for the example daemons and bench binaries.
//
// Every binary in this repo historically hand-rolled the same loop over
// `key=value` tokens; this helper is that loop, once. Accepted forms:
//
//   key=value      the bench/daemon convention (workers=4, iters=200)
//   --key=value    the same knob, GNU style
//   --flag         bare boolean, reads as "1" (--quick)
//   anything else  a positional operand (socket path), in order
//
// Key lookup normalizes '-' to '_' so `--stall-ms` and `stall_ms=`
// are the same knob. When a knob was not given on the command line, the
// environment variable `IOFWD_<UPPERCASED_KEY>` is consulted before the
// default — the paper notes the worker count "can be controlled via an
// environment variable during job submission", and every knob gets that
// treatment for free.
//
// Queried keys are tracked: after pulling all known knobs, call unknown()
// to warn about leftovers (typo'd knob names fail loudly instead of
// silently running defaults).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace iofwd::flags {

class Parser {
 public:
  // Parses argv[first..argc). Binaries with fixed leading positionals (the
  // daemon's socket path) still pass first=1 and read positional(0).
  Parser(int argc, char** argv, int first = 1);

  // Knob accessors; each marks the key as known for unknown() reporting.
  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] int get_int(const std::string& key, int dflt) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key, std::uint64_t dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  // True for `--key`, `key=1`, `--key=true`; false for absent/`0`/`false`.
  [[nodiscard]] bool get_flag(const std::string& key) const;
  // True if the knob appeared on the command line or in the environment.
  [[nodiscard]] bool has(const std::string& key) const;

  // Operands that were neither `key=value` nor `--...`, in order.
  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] std::string positional(std::size_t i, const std::string& dflt = "") const {
    return i < positionals_.size() ? positionals_[i] : dflt;
  }

  // Command-line keys never queried by any accessor — likely typos. Call
  // after all knobs have been read.
  [[nodiscard]] std::vector<std::string> unknown() const;

  // IOFWD_* environment variables whose (lowercased) key was never queried —
  // the environment-side typo check. Variables on a small allowlist
  // (IOFWD_TEST_SEED, read directly by the test harness rather than through
  // a Parser) are exempt.
  [[nodiscard]] std::vector<std::string> unknown_env() const;

  // Fail-loud gate: after every knob has been read, returns false and prints
  // one clear line per leftover — unknown command-line knobs and IOFWD_* env
  // typos, each with a did-you-mean suggestion against the queried knob set.
  // Binaries exit non-zero on false, so `shardz=4` can never silently run
  // with default sharding.
  [[nodiscard]] bool check_strict(const char* prog) const;

 private:
  static std::string normalize(const std::string& key);
  // Command-line value, else IOFWD_<KEY> from the environment, else null.
  [[nodiscard]] const std::string* lookup(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  std::vector<std::string> positionals_;
  mutable std::map<std::string, std::string> env_cache_;
  mutable std::set<std::string> queried_;
};

}  // namespace iofwd::flags
