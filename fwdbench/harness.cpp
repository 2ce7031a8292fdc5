#include "harness.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <linux/magic.h>
#include <sched.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/rng.hpp"

namespace fwdbench {

using iofwd::Errc;
using iofwd::Result;
using iofwd::Status;

double Dist::pct(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.size())));
  return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void LatencyHist::add(double us) {
  int exp = 0;
  const double frac = std::frexp(std::max(us, 1e-9), &exp);  // us = frac * 2^exp, frac in [0.5, 1)
  const int octave = std::clamp(exp + 10, 0, kOctaves - 1);
  const int sub = std::clamp(static_cast<int>((frac - 0.5) * 2 * kSub), 0, kSub - 1);
  ++buckets_[static_cast<std::size_t>(octave * kSub + sub)];
  ++n_;
}

void LatencyHist::merge(const LatencyHist& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  n_ += o.n_;
}

double LatencyHist::pct(double q) const {
  if (n_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Midpoint of the bucket.
      const int octave = static_cast<int>(i) / kSub;
      const int sub = static_cast<int>(i) % kSub;
      return std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSub), octave - 10);
    }
  }
  return 0;
}

void Tally::fail(const std::string& what) {
  const auto n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) std::fprintf(stderr, "fwdbench: check failed: %s\n", what.c_str());
}

bool Tally::check(const Status& st, const char* what) {
  attempt();
  if (st.is_ok()) return true;
  fail(std::string(what) + ": " + st.to_string());
  return false;
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string how, bool resolved) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples, resolved,
                            std::move(how)});
}

void Report::add_latency(const std::string& stem, const LatencyHist& d) {
  add(stem + "_p50_us", d.median(), "us", d.count(), "median of calls");
  add(stem + "_p99_us", d.resolved(0.99) ? d.pct(0.99) : 0.0, "us", d.count(), "p99 of calls",
      d.resolved(0.99));
}

void Report::print(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  std::printf("  %-40s %14s  %-14s %9s  %s\n", "metric", "value", "unit", "samples", "from");
  for (const auto& m : metrics_) {
    char val[32];
    if (m.resolved) {
      std::snprintf(val, sizeof val, "%.6g", m.value);
    } else {
      std::snprintf(val, sizeof val, "unresolved");
    }
    std::printf("  %-40s %14s  %-14s %9zu  %s\n", m.name.c_str(), val, m.unit.c_str(), m.samples,
                m.how.c_str());
  }
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!first) os << ", ";
    first = false;
    // Unresolved percentiles and non-finite values are emitted as 0; the
    // printed table marks them.
    const double v = (m.resolved && std::isfinite(m.value)) ? m.value : 0.0;
    os << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {
struct Stamp {
  std::uint64_t magic;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
  std::uint64_t chunk;
};
constexpr std::uint64_t kStampMagic = 0x46574442454e4348ull;  // "FWDBENCH"
constexpr std::size_t kBaseSlots = 256;
constexpr std::size_t kBaseStep = 64;

std::uint64_t mix(std::uint64_t x) {
  iofwd::SplitMix64 sm(x);
  return sm.next();
}
}  // namespace

Pattern::Pattern(std::uint64_t seed, std::size_t max_block)
    : seed_(seed), random_(max_block + kBaseSlots * kBaseStep + kChunk) {
  iofwd::Rng rng(seed);
  for (std::size_t i = 0; i + 8 <= random_.size(); i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(random_.data() + i, &x, 8);
  }
}

std::size_t Pattern::base(std::uint64_t a, std::uint64_t b, std::uint64_t c) const {
  return (mix(seed_ ^ mix(a ^ mix(b ^ mix(c)))) % kBaseSlots) * kBaseStep;
}

void Pattern::fill(std::span<std::byte> out, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c) const {
  if (out.size() + kBaseSlots * kBaseStep > random_.size()) {
    throw std::runtime_error("pattern block larger than its buffer");
  }
  const std::size_t off = base(a, b, c);
  std::memcpy(out.data(), random_.data() + off, out.size());
  for (std::size_t k = 0; k * kChunk < out.size(); ++k) {
    const Stamp s{kStampMagic, a, b, c, k};
    std::memcpy(out.data() + k * kChunk, &s, std::min(sizeof s, out.size() - k * kChunk));
  }
}

std::size_t Pattern::mismatches(std::span<const std::byte> got, std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) const {
  const std::size_t off = base(a, b, c);
  std::size_t bad = 0;
  for (std::size_t k = 0; k * kChunk < got.size(); ++k) {
    const std::size_t at = k * kChunk;
    const std::size_t len = std::min(kChunk, got.size() - at);
    const Stamp s{kStampMagic, a, b, c, k};
    const std::size_t slen = std::min(sizeof s, len);
    if (std::memcmp(got.data() + at, &s, slen) != 0 ||
        std::memcmp(got.data() + at + slen, random_.data() + off + at + slen, len - slen) != 0) {
      ++bad;
    }
  }
  return bad;
}

ScratchDir::ScratchDir(const std::string& path) : path_(path) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) throw std::runtime_error("cannot create " + path_ + ": " + ec.message());
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string fs_type(const std::string& path) {
  struct statfs s{};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case TMPFS_MAGIC: return "tmpfs";
    case EXT4_SUPER_MAGIC: return "ext2/3/4";
    case OVERLAYFS_SUPER_MAGIC: return "overlayfs";
    case XFS_SUPER_MAGIC: return "xfs";
    case BTRFS_SUPER_MAGIC: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void write_file_at(const std::string& path, std::uint64_t offset,
                   std::span<const std::byte> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) throw std::runtime_error("open " + path + ": " + std::strerror(errno));
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t r = ::pwrite(fd, bytes.data() + put, bytes.size() - put,
                               static_cast<off_t>(offset + put));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      ::close(fd);
      throw std::runtime_error("pwrite " + path + ": " + std::strerror(errno));
    }
    put += static_cast<std::size_t>(r);
  }
  ::close(fd);
}

std::size_t read_file_at(const std::string& path, std::uint64_t offset, std::span<std::byte> out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t r = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);
  return got;
}

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
    }
    return cpu;
  }
  throw std::runtime_error("no CPU to run on");
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.push_back(std::atoi(e->d_name));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}


void SpanStore::complete(const std::string& name, const char* cat, int pid, long tid,
                         Clock::time_point t0, Clock::time_point t1,
                         const std::string& args_json) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << R"({"ph":"X","name":")" << name << R"(","cat":")" << cat << R"(","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"ts":)" << usecs(epoch_, t0) << R"(,"dur":)"
     << usecs(t0, t1);
  if (!args_json.empty()) os << R"(,"args":)" << args_json;
  os << "}";
  std::scoped_lock lk(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(os.str());
}

void SpanStore::thread_name(int pid, long tid, const std::string& name) {
  std::ostringstream os;
  os << R"({"ph":"M","name":"thread_name","pid":)" << pid << R"(,"tid":)" << tid
     << R"(,"args":{"name":")" << name << R"("}})";
  std::scoped_lock lk(mu_);
  events_.push_back(os.str());
}

void SpanStore::process_name(int pid, const std::string& name) {
  std::ostringstream os;
  os << R"({"ph":"M","name":"process_name","pid":)" << pid << R"(,"args":{"name":")" << name
     << R"("}})";
  std::scoped_lock lk(mu_);
  events_.push_back(os.str());
}

Status SpanStore::write(const std::string& path, const std::string& extra) const {
  std::ofstream f(path);
  if (!f) return Status(Errc::io_error, "cannot open " + path);
  std::scoped_lock lk(mu_);
  f << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) f << ",\n";
    first = false;
    f << e;
  }
  if (!extra.empty()) f << (first ? "" : ",\n") << extra;
  f << "\n], \"otherData\": {\"dropped_spans\": " << dropped_ << "}}\n";
  return f.good() ? Status::ok() : Status(Errc::io_error, "short write to " + path);
}

Status TimedStream::read_exact(void* buf, std::size_t n) {
  const auto t0 = Clock::now();
  Status st = inner_->read_exact(buf, n);
  clock_.wait_us += usecs(t0, Clock::now());
  return st;
}

Status TimedStream::write_all(const void* buf, std::size_t n) {
  const auto t0 = Clock::now();
  Status st = inner_->write_all(buf, n);
  clock_.send_us += usecs(t0, Clock::now());
  return st;
}

namespace {
pid_t this_tid() {
  thread_local const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  return tid;
}

template <typename F>
auto logged(CallLog& log, char op, int fd, std::uint64_t off, std::uint64_t len, F&& f) {
  const auto t0 = Clock::now();
  auto r = f();
  log.push(BackendCall{op, fd, off, len, t0, Clock::now(), this_tid()});
  return r;
}
}  // namespace

Status TimedBackend::open(int fd, const std::string& path) {
  return logged(log_, 'o', fd, 0, 0, [&] { return inner_->open(fd, path); });
}
Result<std::uint64_t> TimedBackend::write(int fd, std::uint64_t offset,
                                          std::span<const std::byte> data) {
  return logged(log_, 'w', fd, offset, data.size(),
                [&] { return inner_->write(fd, offset, data); });
}
Result<std::uint64_t> TimedBackend::read(int fd, std::uint64_t offset, std::span<std::byte> out) {
  return logged(log_, 'r', fd, offset, out.size(), [&] { return inner_->read(fd, offset, out); });
}
Status TimedBackend::fsync(int fd) {
  return logged(log_, 's', fd, 0, 0, [&] { return inner_->fsync(fd); });
}
Status TimedBackend::close(int fd) {
  return logged(log_, 'c', fd, 0, 0, [&] { return inner_->close(fd); });
}
Result<std::uint64_t> TimedBackend::size(int fd) {
  return logged(log_, 'z', fd, 0, 0, [&] { return inner_->size(fd); });
}

void ThreadRoles::learn(const std::vector<pid_t>& before, int servers, int flushers_each,
                        int workers_each) {
  std::vector<pid_t> fresh;
  for (pid_t t : thread_ids()) {
    if (!std::binary_search(before.begin(), before.end(), t)) fresh.push_back(t);
  }
  const int each = flushers_each + workers_each;
  if (static_cast<int>(fresh.size()) != servers * each) {
    known = false;
    return;
  }
  for (int i = 0; i < static_cast<int>(fresh.size()); ++i) {
    if (i % each >= flushers_each) workers.insert(fresh[static_cast<std::size_t>(i)]);
  }
}

void ServerDeltas::add(const iofwd::obs::Snapshot& before, const iofwd::obs::Snapshot& after) {
  pairs_.emplace_back(before, after);
}

namespace {
double value_of(const iofwd::obs::Snapshot& s, const std::string& name) {
  if (auto it = s.counters.find(name); it != s.counters.end()) return static_cast<double>(it->second);
  if (auto it = s.gauges.find(name); it != s.gauges.end()) return static_cast<double>(it->second);
  return 0;
}
// `name` is `prefix`, an optional index (the lane number), then `suffix`.
bool matches(const std::string& name, const std::string& prefix, const std::string& suffix) {
  if (!name.starts_with(prefix)) return false;
  std::size_t i = prefix.size();
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  return name.compare(i, std::string::npos, suffix) == 0;
}
}  // namespace

double ServerDeltas::delta(const std::string& name) const {
  double t = 0;
  for (const auto& [b, a] : pairs_) t += value_of(a, name) - value_of(b, name);
  return t;
}

double ServerDeltas::delta_matching(const std::string& prefix, const std::string& suffix) const {
  double t = 0;
  for (const auto& [b, a] : pairs_) {
    for (const auto& [name, v] : a.counters) {
      if (matches(name, prefix, suffix)) t += static_cast<double>(v) - value_of(b, name);
    }
  }
  return t;
}

double ServerDeltas::gauge_max(const std::string& name) const {
  double m = 0;
  for (const auto& [b, a] : pairs_) m = std::max(m, value_of(a, name));
  return m;
}

double ServerDeltas::hist_pct(const std::string& prefix, const std::string& suffix,
                              double q) const {
  Dist per_server;
  for (const auto& [b, a] : pairs_) {
    double weighted = 0;
    std::uint64_t n = 0;
    for (const auto& [name, h] : a.histograms) {
      if (!matches(name, prefix, suffix) || h.count == 0) continue;
      weighted += (q >= 0.99 ? h.p99 : h.p50) * static_cast<double>(h.count);
      n += h.count;
    }
    if (n > 0) per_server.add(weighted / static_cast<double>(n));
  }
  return per_server.median();
}

}  // namespace fwdbench
