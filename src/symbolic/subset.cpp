#include "symbolic/subset.hpp"

namespace dace::sym {

std::string Range::to_string() const {
  std::string out = begin.to_string();
  if (is_index()) return out;
  out += ':';
  out += end.to_string();
  if (!step.is_one()) {
    out += ':';
    out += step.to_string();
  }
  return out;
}

Subset Subset::full(const std::vector<Expr>& shape) {
  std::vector<Range> rs;
  rs.reserve(shape.size());
  for (const auto& s : shape) rs.emplace_back(Expr(int64_t{0}), s);
  return Subset(std::move(rs));
}

Subset Subset::element(const std::vector<Expr>& indices) {
  std::vector<Range> rs;
  rs.reserve(indices.size());
  for (const auto& i : indices) rs.push_back(Range::index(i));
  return Subset(std::move(rs));
}

std::vector<Expr> Subset::sizes() const {
  std::vector<Expr> out;
  out.reserve(ranges_.size());
  for (const auto& r : ranges_) out.push_back(r.size());
  return out;
}

Expr Subset::num_elements() const {
  Expr n(int64_t{1});
  for (const auto& r : ranges_) n = n * r.size();
  return n;
}

bool Subset::is_element() const {
  for (const auto& r : ranges_) {
    if (!r.is_index()) return false;
  }
  return true;
}

Subset Subset::subs(const SubstMap& m) const {
  std::vector<Range> rs;
  rs.reserve(ranges_.size());
  for (const auto& r : ranges_) rs.push_back(r.subs(m));
  return Subset(std::move(rs));
}

namespace {

/// Alignment of two equal-step arithmetic progressions: true = the begin
/// offset is a multiple of the step (same residue class), false = it
/// provably is not (the progressions can never meet), nullopt = unknown.
std::optional<bool> stride_aligned(const Expr& diff, const Expr& step) {
  if (diff.is_constant() && step.is_constant() && step.constant() > 0) {
    int64_t s = step.constant();
    int64_t r = diff.constant() % s;
    return (r % s + s) % s == 0;
  }
  // Best effort on symbolic offsets: mod() canonicalizes e.g. mod(0, s)
  // and mod(c*s, s) to constants.
  Expr m = mod(diff, step);
  if (m.is_constant()) return m.constant() == 0;
  return std::nullopt;
}

/// True if `p` provably lies in both covering intervals [begin, end).
bool provably_inside(const Expr& p, const Range& ra, const Range& rb) {
  return (p - ra.begin).provably_nonnegative() &&
         (ra.end - p - Expr(int64_t{1})).provably_nonnegative() &&
         (p - rb.begin).provably_nonnegative() &&
         (rb.end - p - Expr(int64_t{1})).provably_nonnegative();
}

}  // namespace

std::optional<bool> Subset::disjoint(const Subset& a, const Subset& b) {
  if (a.dims() != b.dims()) return std::nullopt;
  // Disjoint if provably disjoint in ANY dimension; intersecting only if
  // provably overlapping in ALL dimensions.
  bool all_overlap = true;
  for (size_t d = 0; d < a.dims(); ++d) {
    const Range& ra = a.range(d);
    const Range& rb = b.range(d);
    // Steps that are not provably positive (negative or unknown sign)
    // invert the [begin, end) covering interval; draw no conclusion.
    if (!ra.step.provably_positive() || !rb.step.provably_positive()) {
      all_overlap = false;
      continue;
    }
    // Interval reasoning on the covering intervals [begin, end).
    // Disjoint if ra.end <= rb.begin or rb.end <= ra.begin.
    if ((rb.begin - ra.end).provably_nonnegative() ||
        (ra.begin - rb.end).provably_nonnegative()) {
      return true;
    }
    if (ra.step.is_one() && rb.step.is_one()) {
      // Overlap proven if ra.begin < rb.end and rb.begin < ra.end.
      bool overlap =
          (rb.end - ra.begin - Expr(int64_t{1})).provably_nonnegative() &&
          (ra.end - rb.begin - Expr(int64_t{1})).provably_nonnegative();
      if (!overlap) all_overlap = false;
      continue;
    }
    if (ra.step.equals(rb.step)) {
      // Equal-step lattices: disjoint residue classes never meet, however
      // the intervals overlap (e.g. 0:2N:2 vs 1:2N:2).
      std::optional<bool> aligned = stride_aligned(rb.begin - ra.begin,
                                                   ra.step);
      if (aligned.has_value() && !*aligned) return true;
      // Aligned lattices overlap if the later begin (a common lattice
      // point of both progressions) lies inside both intervals.
      if (aligned.has_value() && *aligned &&
          (provably_inside(rb.begin, ra, rb) ||
           provably_inside(ra.begin, ra, rb))) {
        continue;  // overlap proven in this dimension
      }
    }
    all_overlap = false;
  }
  if (all_overlap) return false;
  return std::nullopt;
}

bool Subset::covers(const Subset& other) const {
  if (dims() != other.dims()) return false;
  for (size_t d = 0; d < dims(); ++d) {
    const Range& mine = range(d);
    const Range& theirs = other.range(d);
    if (!mine.step.is_one()) {
      // Identical strided ranges (symbolic bounds included) trivially
      // cover each other.
      if (mine.equals(theirs)) continue;
      // Same-step progressions: covered if the begin offset is a
      // nonnegative multiple of the step and the end does not extend
      // past mine (subset of the same lattice).
      Expr diff = theirs.begin - mine.begin;
      std::optional<bool> aligned = stride_aligned(diff, mine.step);
      if (mine.step.equals(theirs.step) && aligned.has_value() && *aligned &&
          diff.provably_nonnegative() &&
          (mine.end - theirs.end).provably_nonnegative()) {
        continue;
      }
      return false;
    }
    // mine.begin <= theirs.begin and theirs.end <= mine.end.
    if (!(theirs.begin - mine.begin).provably_nonnegative()) return false;
    if (!(mine.end - theirs.end).provably_nonnegative()) return false;
  }
  return true;
}

bool Subset::equals(const Subset& other) const {
  if (dims() != other.dims()) return false;
  for (size_t d = 0; d < dims(); ++d) {
    if (!range(d).equals(other.range(d))) return false;
  }
  return true;
}

Subset Subset::offset_by(const std::vector<Expr>& offsets) const {
  DACE_CHECK(offsets.size() == dims(), "subset: offset rank mismatch");
  std::vector<Range> rs;
  rs.reserve(ranges_.size());
  for (size_t d = 0; d < dims(); ++d) {
    rs.emplace_back(ranges_[d].begin + offsets[d], ranges_[d].end + offsets[d],
                    ranges_[d].step);
  }
  return Subset(std::move(rs));
}

Subset Subset::hull(const Subset& a, const Subset& b) {
  DACE_CHECK(a.dims() == b.dims(), "subset: hull rank mismatch");
  std::vector<Range> rs;
  for (size_t d = 0; d < a.dims(); ++d) {
    rs.emplace_back(min(a.range(d).begin, b.range(d).begin),
                    max(a.range(d).end, b.range(d).end));
  }
  return Subset(std::move(rs));
}

std::string Subset::to_string() const {
  std::string out = "[";
  for (size_t d = 0; d < ranges_.size(); ++d) {
    if (d) out += ", ";
    out += ranges_[d].to_string();
  }
  out += ']';
  return out;
}

}  // namespace dace::sym
