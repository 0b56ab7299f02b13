#include "common/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

namespace dace::env {

namespace {

/// `s` parsed in full as a finite T in [lo, hi], or nullopt.
template <class T>
std::optional<T> parse_in(std::string_view s, T lo, T hi) {
  T v{};
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

template <class T>
std::string range_text(T lo, T hi) {
  std::ostringstream os;
  os << (std::is_floating_point_v<T> ? "a number" : "an integer");
  if (hi == std::numeric_limits<T>::max())
    os << " >= " << lo;
  else
    os << " in [" << lo << ", " << hi << "]";
  return os.str();
}

/// The value of `name` as a T in [lo, hi]; `dflt` when unset or empty.
template <class T>
T read_in(const char* name, T dflt, T lo, T hi) {
  const char* v = detail::get(name);
  if (!v) return dflt;
  std::optional<T> x = parse_in(v, lo, hi);
  if (!x) detail::bad_value(name, v, range_text(lo, hi));
  return *x;
}

}  // namespace

namespace detail {

const char* get(const char* name) {
  const char* v = std::getenv(name);
  return v && *v ? v : nullptr;
}

void bad_value(const char* name, std::string_view value,
               const std::string& accepted) {
  throw err(name, "='", value, "' is not valid: expected ", accepted);
}

std::vector<std::pair<std::string_view, std::string_view>> spec_items(
    const char* what, std::string_view spec) {
  std::vector<std::pair<std::string_view, std::string_view>> items;
  while (!spec.empty()) {
    size_t comma = spec.find(',');
    std::string_view item = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? "" : spec.substr(comma + 1);
    if (item.empty()) continue;
    size_t eq = item.find('=');
    DACE_CHECK(eq != std::string_view::npos, what,
               ": expected key=value, got '", item, "'");
    items.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return items;
}

void set_spec_value(const char* what, std::string_view key, SpecKind kind,
                    std::string_view value, Slot slot) {
  std::visit(
      [&](auto* out) {
        using T = std::remove_pointer_t<decltype(out)>;
        T lo = kind == SpecKind::Index ? T(-1) : T(0);
        T hi = kind == SpecKind::Probability ? T(1)
                                             : std::numeric_limits<T>::max();
        std::optional<T> v = parse_in(value, lo, hi);
        if (!v)
          throw err(what, ": bad value '", value, "' for key '", key,
                    "': expected ", range_text(lo, hi));
        *out = *v;
      },
      slot);
}

}  // namespace detail

bool flag(const char* name, bool dflt) {
  return choice(name, dflt, {{"0", false}, {"1", true}});
}

int64_t integer(const char* name, int64_t dflt, int64_t lo, int64_t hi) {
  return read_in(name, dflt, lo, hi);
}

double number(const char* name, double dflt, double lo, double hi) {
  return read_in(name, dflt, lo, hi);
}

std::string text(const char* name) {
  const char* v = detail::get(name);
  return v ? v : "";
}

Override::Override(const char* name, const char* value) : name_(name) {
  if (const char* old = std::getenv(name)) old_ = old;
  setenv(name, value, 1);
}

Override::~Override() {
  if (old_)
    setenv(name_.c_str(), old_->c_str(), 1);
  else
    unsetenv(name_.c_str());
}

}  // namespace dace::env
