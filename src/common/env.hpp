// Environment settings: the one place where environment text becomes a
// typed setting.  Every DACE_* / DACEPP_* knob and every fault spec in the
// library is read through here (docs/RUNTIME.md lists them all).
//
// Each knob is read at the call that needs it, not from a snapshot: tests,
// the fuzzer and the benchmark change knobs between executors in one
// process.  An unset or empty variable means the default.  Any other value
// must parse in full and lie in range; otherwise the reader throws
// dace::Error naming the variable, the value and what is accepted.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/common.hpp"

namespace dace::env {

namespace detail {
/// The value of `name`, or nullptr when it is unset or empty.
const char* get(const char* name);
[[noreturn]] void bad_value(const char* name, std::string_view value,
                            const std::string& accepted);
}  // namespace detail

/// `0` or `1`.
bool flag(const char* name, bool dflt);
/// A whole integer in [lo, hi].
int64_t integer(const char* name, int64_t dflt, int64_t lo,
                int64_t hi = std::numeric_limits<int64_t>::max());
/// A whole finite number in [lo, hi].
double number(const char* name, double dflt, double lo, double hi);
/// The text as set; "" when unset.
std::string text(const char* name);

/// One of a fixed list of spellings, each standing for a value.
template <class T>
T choice(const char* name, T dflt,
         std::initializer_list<std::pair<const char*, T>> spellings) {
  const char* v = detail::get(name);
  if (!v) return dflt;
  for (const auto& [spelling, value] : spellings)
    if (std::string_view(v) == spelling) return value;
  std::string accepted = "one of";
  for (const auto& [spelling, value] : spellings)
    accepted += std::string(" ") + spelling;
  detail::bad_value(name, v, accepted);
}

/// Sets a variable for its lifetime and restores the previous state after.
/// Not thread-safe, like setenv.
class Override {
 public:
  Override(const char* name, const char* value);
  ~Override();
  Override(const Override&) = delete;
  Override& operator=(const Override&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

// ---------------------------------------------------------------------------
// Fault specs: "key=value,..." strings that configure a seeded fault plan
// (dist::FaultPlan, cg::cache::FsFaultPlan, serve::ServeFaultPlan).  One
// table per plan drives parse, to_string and from_env.  Every item needs
// '=', every key must be in the table and every value must parse in full
// as its kind.
// ---------------------------------------------------------------------------

enum class SpecKind {
  Seed,         // unsigned 64-bit integer
  Probability,  // number in [0, 1]; set when above 0
  Seconds,      // number >= 0
  Index,        // integer >= -1, a rank or op index; set when not -1
};

template <class Plan>
struct SpecField {
  const char* key;
  SpecKind kind;
  std::variant<uint64_t Plan::*, double Plan::*, int Plan::*, int64_t Plan::*>
      member;
  // Prints after the field before it, in one group.  A group prints, and
  // makes its plan active, when every Probability or Index in it is set.
  bool with_prev = false;
};

namespace detail {
using Slot = std::variant<uint64_t*, double*, int*, int64_t*>;
/// Parses `value` into `slot` as `kind`; throws naming `what` and `key`.
void set_spec_value(const char* what, std::string_view key, SpecKind kind,
                    std::string_view value, Slot slot);
/// The items of `spec` as (key, value); throws on an item without '='.
std::vector<std::pair<std::string_view, std::string_view>> spec_items(
    const char* what, std::string_view spec);
}  // namespace detail

/// A plan's field table.  The first field is the seed.
template <class Plan>
class Spec {
 public:
  template <size_t N>
  constexpr Spec(const char* what, const SpecField<Plan> (&fields)[N])
      : what_(what), fields_(fields, N) {}

  /// True if some group is set.
  bool active(const Plan& p) const {
    for (size_t i = 1; i < fields_.size(); i = group_end(i))
      if (group_on(p, i)) return true;
    return false;
  }

  /// "seed=S" plus every group that is set; "" when none is and S is 0.
  std::string to_string(const Plan& p) const {
    if (!active(p) && p.*std::get<uint64_t Plan::*>(fields_[0].member) == 0)
      return "";
    std::ostringstream os;
    print(os, p, fields_[0]);
    for (size_t i = 1; i < fields_.size(); i = group_end(i)) {
      if (!group_on(p, i)) continue;
      for (size_t j = i; j < group_end(i); ++j) {
        os << ',';
        print(os, p, fields_[j]);
      }
    }
    return os.str();
  }

  /// Parses `spec`; errors name `what` (default: the plan's name).
  Plan parse(std::string_view spec, const char* what = nullptr) const {
    if (!what) what = what_;
    Plan p;
    for (auto [key, value] : detail::spec_items(what, spec)) {
      const SpecField<Plan>* f = nullptr;
      for (const auto& g : fields_)
        if (key == g.key) f = &g;
      if (!f) throw err(what, ": unknown key '", key, "' in '", spec, "'");
      set(p, *f, value, what);
    }
    return p;
  }

  /// `spec_var` parsed as a spec, then `seed_var` (a seed alone) over its
  /// seed.
  Plan from_env(const char* spec_var, const char* seed_var) const {
    Plan p = parse(env::text(spec_var), spec_var);
    std::string seed = env::text(seed_var);
    if (!seed.empty()) set(p, fields_[0], seed, seed_var);
    return p;
  }

  /// 1 + the index, among the Probability fields in table order, of the
  /// one whose band of [0, 1) holds `u` (each band as wide as its
  /// probability); 0 when `u` lies past them all.
  int pick(const Plan& p, double u) const {
    double acc = 0;
    int n = 0;
    for (const auto& f : fields_) {
      if (f.kind != SpecKind::Probability) continue;
      ++n;
      if (u < (acc += value(p, f))) return n;
    }
    return 0;
  }

 private:
  size_t group_end(size_t i) const {
    do ++i;
    while (i < fields_.size() && fields_[i].with_prev);
    return i;
  }
  static double value(const Plan& p, const SpecField<Plan>& f) {
    return std::visit([&](auto m) { return (double)(p.*m); }, f.member);
  }
  bool group_on(const Plan& p, size_t i) const {
    bool any = false;
    for (size_t j = i; j < group_end(i); ++j) {
      SpecKind k = fields_[j].kind;
      if (k != SpecKind::Probability && k != SpecKind::Index) continue;
      any = true;
      double floor = k == SpecKind::Probability ? 0 : -1;
      if (!(value(p, fields_[j]) > floor)) return false;
    }
    return any;
  }
  static void print(std::ostringstream& os, const Plan& p,
                    const SpecField<Plan>& f) {
    os << f.key << '=';
    std::visit([&](auto m) { os << p.*m; }, f.member);
  }
  static void set(Plan& p, const SpecField<Plan>& f, std::string_view value,
                  const char* what) {
    detail::set_spec_value(
        what, f.key, f.kind, value,
        std::visit([&](auto m) { return detail::Slot(&(p.*m)); }, f.member));
  }

  const char* what_;
  std::span<const SpecField<Plan>> fields_;
};

}  // namespace dace::env
