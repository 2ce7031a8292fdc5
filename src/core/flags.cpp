#include "core/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" char** environ;

namespace iofwd::flags {

std::string Parser::normalize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) out.push_back(c == '-' ? '_' : c);
  return out;
}

Parser::Parser(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string tok = argv[i];
    const bool dashed = tok.rfind("--", 0) == 0;
    if (dashed) tok.erase(0, 2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[normalize(tok.substr(0, eq))] = tok.substr(eq + 1);
    } else if (dashed) {
      kv_[normalize(tok)].assign(1, '1');  // bare boolean flag
    } else {
      positionals_.push_back(std::move(tok));
    }
  }
}

const std::string* Parser::lookup(const std::string& key) const {
  const std::string k = normalize(key);
  queried_.insert(k);
  if (auto it = kv_.find(k); it != kv_.end()) return &it->second;
  if (auto it = env_cache_.find(k); it != env_cache_.end()) return &it->second;
  std::string env_name = "IOFWD_";
  for (char c : k) env_name.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  if (const char* v = std::getenv(env_name.c_str())) {
    return &env_cache_.emplace(k, v).first->second;
  }
  return nullptr;
}

std::string Parser::get(const std::string& key, const std::string& dflt) const {
  const std::string* v = lookup(key);
  return v != nullptr ? *v : dflt;
}

int Parser::get_int(const std::string& key, int dflt) const {
  const std::string* v = lookup(key);
  return v != nullptr ? std::atoi(v->c_str()) : dflt;
}

std::uint64_t Parser::get_u64(const std::string& key, std::uint64_t dflt) const {
  const std::string* v = lookup(key);
  return v != nullptr ? std::strtoull(v->c_str(), nullptr, 10) : dflt;
}

double Parser::get_double(const std::string& key, double dflt) const {
  const std::string* v = lookup(key);
  return v != nullptr ? std::atof(v->c_str()) : dflt;
}

bool Parser::get_flag(const std::string& key) const {
  const std::string* v = lookup(key);
  return v != nullptr && *v != "0" && *v != "false" && !v->empty();
}

bool Parser::has(const std::string& key) const { return lookup(key) != nullptr; }

std::vector<std::string> Parser::unknown() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (queried_.find(k) == queried_.end()) out.push_back(k);
  }
  return out;
}

namespace {

// Environment variables read outside any Parser (the test harness pulls its
// seed with getenv directly) — exempt from the typo scan.
constexpr const char* kEnvAllowlist[] = {"IOFWD_TEST_SEED"};

// Classic edit distance, small inputs only (knob names).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> Parser::unknown_env() const {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "IOFWD_", 6) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    const std::string name(entry, eq != nullptr ? static_cast<std::size_t>(eq - entry)
                                                : std::strlen(entry));
    if (std::any_of(std::begin(kEnvAllowlist), std::end(kEnvAllowlist),
                    [&](const char* a) { return name == a; })) {
      continue;
    }
    std::string key;
    for (std::size_t i = 6; i < name.size(); ++i) {
      key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(name[i]))));
    }
    if (queried_.find(normalize(key)) == queried_.end()) out.push_back(name);
  }
  return out;
}

bool Parser::check_strict(const char* prog) const {
  // Suggest the closest queried knob when it is plausibly a typo (distance
  // scaled to the knob length, so "shardz" -> "shards" but "foo" suggests
  // nothing).
  const auto suggest = [this](const std::string& key) -> std::string {
    std::string best;
    std::size_t best_d = key.size();
    for (const std::string& q : queried_) {
      const std::size_t d = edit_distance(key, q);
      if (d < best_d) {
        best_d = d;
        best = q;
      }
    }
    if (!best.empty() && best_d <= std::max<std::size_t>(2, key.size() / 4)) {
      return " (did you mean '" + best + "'?)";
    }
    return "";
  };

  bool ok = true;
  for (const std::string& k : unknown()) {
    std::fprintf(stderr, "%s: error: unknown knob '%s'%s\n", prog, k.c_str(),
                 suggest(k).c_str());
    ok = false;
  }
  for (const std::string& name : unknown_env()) {
    std::string key;
    for (std::size_t i = 6; i < name.size(); ++i) {
      key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(name[i]))));
    }
    std::fprintf(stderr, "%s: error: environment variable %s matches no knob%s\n", prog,
                 name.c_str(), suggest(normalize(key)).c_str());
    ok = false;
  }
  return ok;
}

}  // namespace iofwd::flags
