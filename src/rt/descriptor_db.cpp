#include "rt/descriptor_db.hpp"

#include <algorithm>
#include <cassert>

namespace iofwd::rt {

bool DescriptorDb::open_descriptor(int fd) {
  return table_.try_emplace(fd).second;
}

std::optional<std::uint64_t> DescriptorDb::begin_op(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return std::nullopt;
  auto& e = it->second;
  const std::uint64_t seq = e.next_seq++;
  e.in_flight.push_back(seq);  // the largest so far: stays ascending
  return seq;
}

bool DescriptorDb::complete_op(int fd, std::uint64_t seq, Status status) {
  auto it = table_.find(fd);
  if (it == table_.end()) return false;
  auto& e = it->second;
  const auto op = std::lower_bound(e.in_flight.begin(), e.in_flight.end(), seq);
  if (op == e.in_flight.end() || *op != seq) return false;
  e.in_flight.erase(op);
  ++e.completed;
  if (!status.is_ok()) e.pending_errors.push_back(std::move(status));
  return true;
}

Status DescriptorDb::consume_pending_error(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return Status(Errc::bad_descriptor, "unknown descriptor");
  auto& errs = it->second.pending_errors;
  if (errs.empty()) return Status::ok();
  Status first = std::move(errs.front());
  errs.erase(errs.begin());
  return first;
}

bool DescriptorDb::has_pending_error(int fd) const {
  auto it = table_.find(fd);
  return it != table_.end() && !it->second.pending_errors.empty();
}

Status DescriptorDb::close_descriptor(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return Status(Errc::bad_descriptor, "unknown descriptor");
  assert(in_flight(fd) == 0 && "close with operations still in flight; drain first");
  Status result = it->second.pending_errors.empty() ? Status::ok()
                                                    : std::move(it->second.pending_errors.front());
  table_.erase(it);
  return result;
}

std::size_t DescriptorDb::in_flight(int fd) const {
  auto it = table_.find(fd);
  return it == table_.end() ? 0 : it->second.in_flight.size();
}

bool DescriptorDb::any_in_flight() const {
  return std::any_of(table_.begin(), table_.end(),
                     [](const auto& kv) { return !kv.second.in_flight.empty(); });
}

std::size_t DescriptorDb::completed_count(int fd) const {
  auto it = table_.find(fd);
  return it == table_.end() ? 0 : it->second.completed;
}

}  // namespace iofwd::rt
