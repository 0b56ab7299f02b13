// Common utilities shared across all DaCe++ modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dace {

/// Error type for all user-facing failures (parse errors, validation
/// errors, execution errors). Carries a plain message.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& msg) : std::runtime_error(msg) {}
};

/// Build an Error from streamable parts: throw err("bad value ", x).
template <typename... Args>
Error err(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return Error(os.str());
}

#define DACE_CHECK(cond, ...)        \
  do {                               \
    if (!(cond)) throw ::dace::err(__VA_ARGS__); \
  } while (0)

using std::int64_t;

/// FNV-1a 64 over a byte range: the artifact-cache checksum and key,
/// the serve frame checksum and request key, and Program::hash.  Chain
/// calls by passing the previous result as `h`.
inline uint64_t fnv1a(const void* data, size_t n,
                      uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace dace
