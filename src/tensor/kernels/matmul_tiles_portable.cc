// Portable-ISA instantiation of the tiled matmul bodies (baseline
// x86-64 / whatever the toolchain defaults to). See matmul_tiles.inc.
#include <cmath>
#include <cstdint>

#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {

#define INFERTURBO_TILE_FN(name) name##Portable
#define INFERTURBO_TILE_RESTRICT __restrict__
#include "src/tensor/kernels/matmul_tiles.inc"
#undef INFERTURBO_TILE_FN
#undef INFERTURBO_TILE_RESTRICT

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
