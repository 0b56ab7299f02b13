// Symbolic ranges and subsets (the contents of memlets).
//
// A Range is a half-open interval [begin, end) with a positive step; a
// Subset is a rectangular product of ranges, one per array dimension.
// Subsets support the symbolic set algebra the transformations need:
// disjointness ("may these two accesses race?"), coverage ("is the data a
// map consumes a subset of what the previous map produced?"), offsetting,
// and size queries.  All queries are best-effort and conservative: a
// three-valued result is returned where precision may be lost.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "symbolic/symbolic.hpp"

namespace dace::sym {

/// Half-open symbolic interval [begin, end) with positive step.
struct Range {
  Expr begin;
  Expr end;
  Expr step = Expr(int64_t{1});

  Range() = default;
  Range(Expr b, Expr e) : begin(std::move(b)), end(std::move(e)) {}
  Range(Expr b, Expr e, Expr s)
      : begin(std::move(b)), end(std::move(e)), step(std::move(s)) {}

  /// Range covering exactly one index.
  static Range index(Expr i) { return Range(i, i + Expr(int64_t{1})); }

  /// Number of iterations: ceil((end - begin) / step).
  Expr size() const { return ceildiv(end - begin, step); }

  /// At step 1 the size is end - begin.
  bool is_index() const { return step.is_one() && (end - begin).is_one(); }

  Range subs(const SubstMap& m) const {
    return Range(begin.subs(m), end.subs(m), step.subs(m));
  }

  std::string to_string() const;

  bool equals(const Range& o) const {
    return begin.equals(o.begin) && end.equals(o.end) && step.equals(o.step);
  }
};

/// Rectangular product of ranges. An empty dimension list denotes a scalar.
class Subset {
 public:
  Subset() = default;
  explicit Subset(std::vector<Range> ranges) : ranges_(std::move(ranges)) {}

  /// The full subset of an array with the given shape: [0,s) per dim.
  static Subset full(const std::vector<Expr>& shape);
  /// A single element at the given indices.
  static Subset element(const std::vector<Expr>& indices);

  size_t dims() const { return ranges_.size(); }
  const Range& range(size_t d) const { return ranges_.at(d); }
  Range& range(size_t d) { return ranges_.at(d); }
  const std::vector<Range>& ranges() const { return ranges_; }

  /// Extent per dimension.
  std::vector<Expr> sizes() const;
  /// Total number of elements.
  Expr num_elements() const;

  /// True if every dimension selects a single index.
  bool is_element() const;

  Subset subs(const SubstMap& m) const;

  /// Three-valued disjointness: true = provably disjoint, false = provably
  /// intersecting, nullopt = unknown. Unit-step dims are reasoned about
  /// precisely; equal non-unit steps use residue classes (0:2N:2 vs
  /// 1:2N:2 is disjoint); other positive steps degrade to their covering
  /// interval, and steps not provably positive yield no conclusion.
  static std::optional<bool> disjoint(const Subset& a, const Subset& b);

  /// True if this subset provably covers `other` (other ⊆ this).
  bool covers(const Subset& other) const;

  /// Exact equality per dimension.
  bool equals(const Subset& other) const;

  /// Translate: add `offsets[d]` to begin/end of each dimension.
  Subset offset_by(const std::vector<Expr>& offsets) const;

  /// Bounding box of two subsets (per-dim min of begins / max of ends,
  /// unit step).
  static Subset hull(const Subset& a, const Subset& b);

  std::string to_string() const;

 private:
  std::vector<Range> ranges_;
};

}  // namespace dace::sym
