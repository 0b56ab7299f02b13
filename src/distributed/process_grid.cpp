#include "distributed/process_grid.hpp"

#include <algorithm>

namespace dace::dist {

rt::Tensor local_block_2d(const rt::Tensor& global, const Grid2D& g,
                          int rank) {
  DACE_CHECK(global.rank() == 2, "grid: local_block_2d needs a matrix");
  int64_t m = global.shape()[0], n = global.shape()[1];
  int64_t mb = block_size(m, g.Pr), nb = block_size(n, g.Pc);
  int r = g.row_of(rank), c = g.col_of(rank);
  rt::Tensor out(global.dtype(), {mb, nb});
  for (int64_t i = 0; i < mb; ++i) {
    int64_t gi = r * mb + i;
    if (gi >= m) break;
    for (int64_t j = 0; j < nb; ++j) {
      int64_t gj = c * nb + j;
      if (gj >= n) break;
      out.at({i, j}) = global.at({gi, gj});
    }
  }
  return out;
}

rt::Tensor local_rows(const rt::Tensor& global, int p, int rank) {
  int64_t m = global.shape()[0];
  int64_t mb = block_size(m, p);
  std::vector<int64_t> shape = global.shape();
  shape[0] = mb;
  rt::Tensor out(global.dtype(), shape);
  int64_t row_elems = global.size() / m;
  for (int64_t i = 0; i < mb; ++i) {
    int64_t gi = rank * mb + i;
    if (gi >= m) break;
    for (int64_t j = 0; j < row_elems; ++j)
      out.set_flat(i * row_elems + j, global.get_flat(gi * row_elems + j));
  }
  return out;
}

void store_rows(const rt::Tensor& block, rt::Tensor& global, int p,
                int rank) {
  (void)p;
  int64_t m = global.shape()[0];
  int64_t mb = block.shape()[0];
  int64_t row_elems = global.size() / m;
  for (int64_t i = 0; i < mb; ++i) {
    int64_t gi = rank * mb + i;
    if (gi >= m) break;
    for (int64_t j = 0; j < row_elems; ++j)
      global.set_flat(gi * row_elems + j, block.get_flat(i * row_elems + j));
  }
}

}  // namespace dace::dist
