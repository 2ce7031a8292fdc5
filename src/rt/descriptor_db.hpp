// Descriptor database for asynchronous data staging (paper Sec. IV).
//
// "We maintain a database of open I/O descriptors; for each, we keep a list
//  of completed and in-progress operations and their associated status,
//  including errors. We distinguish the various I/O operations performed on
//  a particular descriptor via a counter. Errors are passed to the
//  application on subsequent operations on the descriptor."
//
// This class is pure bookkeeping — no simulator or thread dependencies — so
// the simulated forwarder (proto/) and the real runtime (rt/) share it
// verbatim. Thread safety is the caller's job (the runtime wraps calls in
// its descriptor-table lock; the simulator is single-threaded).
//
// Only what a later operation can still need is kept: the sequence numbers
// of in-progress operations, a count of completed ones, and the errors not
// yet reported. A long-lived descriptor's history costs nothing, and no call
// looks at more than the operations still in flight.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/status.hpp"

namespace iofwd::rt {

class DescriptorDb {
 public:
  // Register a descriptor (on open). Returns false if it already exists.
  bool open_descriptor(int fd);

  // Begin an asynchronous operation; returns its per-descriptor sequence
  // number, or nullopt for an unknown descriptor.
  std::optional<std::uint64_t> begin_op(int fd);

  // Complete a previously begun operation, in any order.
  // Returns false for an unknown descriptor or sequence, or a second
  // completion of the same operation.
  bool complete_op(int fd, std::uint64_t seq, Status status);

  // The deferred-error check performed at the start of every subsequent
  // operation on `fd`: returns (and consumes) the oldest unreported error.
  // ok() if none. Unknown descriptors report bad_descriptor.
  Status consume_pending_error(int fd);

  // Non-consuming peek: true when consume_pending_error(fd) would return an
  // error. Fast-path gates (the burst buffer's pinned reads) use this to
  // miss-and-fall-back so the error still surfaces — and is consumed — on
  // the regular path.
  [[nodiscard]] bool has_pending_error(int fd) const;

  // Close: returns the first pending error (like consume, but also requires
  // all operations to have completed — callers drain first). Removes the
  // descriptor. in_flight(fd) must be 0.
  Status close_descriptor(int fd);

  [[nodiscard]] bool is_open(int fd) const { return table_.contains(fd); }
  [[nodiscard]] std::size_t in_flight(int fd) const;
  [[nodiscard]] std::size_t completed_count(int fd) const;
  [[nodiscard]] std::size_t open_count() const { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t next_seq = 0;
    std::vector<std::uint64_t> in_flight;  // begun, not completed; ascending
    std::size_t completed = 0;
    std::vector<Status> pending_errors;  // completed-with-error, unreported
  };
  std::unordered_map<int, Entry> table_;
};

}  // namespace iofwd::rt
