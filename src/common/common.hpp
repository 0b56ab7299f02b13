// Common utilities shared across all DaCe++ modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
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

/// splitmix64's finalizer: the mixer behind every seeded fault schedule.
inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0,1) for one fault decision: a pure function of the
/// plan seed and the decision's coordinates, folded from the right
/// (h = last; h = mix64(c ^ h) for each earlier c; then mix64(seed ^ h)).
inline double fault_draw(uint64_t seed,
                         std::initializer_list<uint64_t> coords) {
  const uint64_t* c = std::data(coords) + coords.size() - 1;
  uint64_t h = *c;
  while (c != std::data(coords)) h = mix64(*--c ^ h);
  h = mix64(seed ^ h);
  return (double)(h >> 11) * (1.0 / 9007199254740992.0);  // 53-bit mantissa
}

}  // namespace dace
