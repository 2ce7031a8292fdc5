#include "proto/types.hpp"

namespace iofwd::proto {

std::string to_string(OpType t) {
  switch (t) {
    case OpType::write: return "write";
    case OpType::read: return "read";
    case OpType::open: return "open";
    case OpType::close: return "close";
    case OpType::fstat: return "fstat";
  }
  return "?";
}

std::string to_string(SinkTarget::Kind k) {
  switch (k) {
    case SinkTarget::Kind::dev_null: return "dev_null";
    case SinkTarget::Kind::da_memory: return "da_memory";
    case SinkTarget::Kind::storage: return "storage";
  }
  return "?";
}

}  // namespace iofwd::proto
