// BLACS-like process grids and block distributions (Section 4.1).
#pragma once

#include <cstdint>

#include "common/common.hpp"
#include "runtime/tensor.hpp"

namespace dace::dist {

/// 2-D process grid: P ranks arranged as Pr x Pc (near-square by
/// default, like the paper's default block distributions).
struct Grid2D {
  int P = 1, Pr = 1, Pc = 1;

  static Grid2D square(int p) {
    Grid2D g;
    g.P = p;
    int pr = 1;
    for (int d = 1; (int64_t)d * d <= p; ++d) {
      if (p % d == 0) pr = d;
    }
    g.Pr = pr;
    g.Pc = p / pr;
    return g;
  }

  int row_of(int rank) const { return rank / Pc; }
  int col_of(int rank) const { return rank % Pc; }
  int rank_of(int row, int col) const { return row * Pc + col; }
};

/// Padded block size: every rank holds ceil(n / p) elements per dim; the
/// trailing rank's block is zero-padded. Zero padding is neutral for the
/// linear-algebra kernels distributed here.
inline int64_t block_size(int64_t n, int p) { return (n + p - 1) / p; }

/// Extract this rank's padded 2-D block of a global row-major tensor.
rt::Tensor local_block_2d(const rt::Tensor& global, const Grid2D& g,
                          int rank);

/// 1-D row-block of a 2-D tensor (or of a vector when rank()==1).
rt::Tensor local_rows(const rt::Tensor& global, int p, int rank);
void store_rows(const rt::Tensor& block, rt::Tensor& global, int p, int rank);

}  // namespace dace::dist
