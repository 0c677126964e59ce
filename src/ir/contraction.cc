#include "ir/contraction.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "ir/type_inference.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace disc {

namespace {

// ---------------------------------------------------------------------------
// The tile and the drivers, shared by every variant.
//
// A variant is a traits struct `Isa` holding its primitives:
//   Vec                       kLanes doubles
//   kRows                     rows of a full tile
//   kTileVecs[R]              Vecs per row of a tile of R rows (1..kRows):
//                             the tile table
//   kPacksTransposedB         the MatMul driver packs B^T into a [k][n] panel
//                             (else it reads B^T in place, one lane per row)
//   Mask, EdgeMask(count)     the first `count` (1..kLanes) lanes of a Vec
//   Load(p, v), LoadEdge(p, m, v)
//                             v = kLanes adjacent values (those in `m`, the
//                             rest 0), widened to double
//   StoreWide(p, v)           the kLanes doubles of v stored at p
//   MulAdd(acc, a, b)         acc += a * b, with the A value `a` broadcast
//   Store(p, v, store), StoreEdge(p, v, m, store)
//                             v (the lanes in `m`) narrowed to the out dtype;
//                             the generic variant narrows lane by lane through
//                             `store`, the FMA variants store f32 only.
// The templates below are instantiated inside each variant's entry points,
// which are [[gnu::flatten]]: everything inlines into a function compiled for
// that variant's target. Vecs cross the primitives by reference, since the
// templates themselves are compiled for the baseline target, whose calling
// convention has no AVX registers.

// Calls f(std::integral_constant<int, count>()) for a count in [1, N].
template <int N, class F>
inline void WithCount(int count, const F& f) {
  if (count == N) {
    f(std::integral_constant<int, N>());
  } else if constexpr (N > 1) {
    WithCount<N - 1>(count, f);
  }
}

// The A side of a tile is packed as Mr rows of doubles, row r at a + r * lda.
// Runs k contraction steps on an Mr x V block of accumulators, where
// `load_b(kk, b)` yields the tile's B vectors at step kk. The unroll pragmas
// are load-bearing: without them GCC keeps the tile on the stack and reloads
// it for every multiply.
template <class Isa, int Mr, int V, class LoadB>
inline void AccumulateTile(const double* a, int64_t lda, int64_t k,
                           const LoadB& load_b,
                           typename Isa::Vec (&acc)[Mr][V]) {
  for (int64_t kk = 0; kk < k; ++kk) {
    typename Isa::Vec b[V];
    load_b(kk, b);
#pragma GCC unroll 8
    for (int r = 0; r < Mr; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) Isa::MulAdd(acc[r][v], a[r * lda + kk], b[v]);
    }
  }
}

// Widens the `count` contiguous values at `src` into doubles at `dst`, whole
// Vecs first. The tail goes element by element: a wide store there would
// overlap the next run's, and the tile's loads from such overlapping stores
// stall (Conv2D with one input channel packs runs of 3 taps).
template <class Isa, class T>
inline void WidenRow(const T* src, int64_t count, double* dst) {
  constexpr int kLanes = Isa::kLanes;
  int64_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    typename Isa::Vec v;
    Isa::Load(src + i, v);
    Isa::StoreWide(dst + i, v);
  }
  for (; i < count; ++i) dst[i] = static_cast<double>(src[i]);
}

// dst[c * ld_dst + r] = src[r * ld_src + c], converted to U, for r < rows
// and c < cols: the packs of transposed operands. Eight source rows at a
// time, so each column is written eight adjacent elements at a time.
template <class T, class U>
inline void Transpose(const T* src, int64_t ld_src, int64_t rows,
                      int64_t cols, U* dst, int64_t ld_dst) {
  constexpr int kBlock = 8;
  int64_t r0 = 0;
  for (; r0 + kBlock <= rows; r0 += kBlock) {
    const T* s = src + r0 * ld_src;
    U* d = dst + r0;
    for (int64_t c = 0; c < cols; ++c, d += ld_dst) {
#pragma GCC unroll 8
      for (int i = 0; i < kBlock; ++i) d[i] = static_cast<U>(s[i * ld_src + c]);
    }
  }
  for (; r0 < rows; ++r0) {
    for (int64_t c = 0; c < cols; ++c) {
      dst[c * ld_dst + r0] = static_cast<U>(src[r0 * ld_src + c]);
    }
  }
}

// Columns [j0, j0 + V * kLanes) of a column block; with Edge only the first
// `cols` exist, and they reach into the last Vec.
template <int V, bool Edge>
struct ColumnTile {
  static constexpr int kVecs = V;
  static constexpr bool kEdge = Edge;
  int64_t j0;
  int cols;
};

// A tile's columns of a row-major operand whose rows are `ld` apart, `p`
// pointing at the tile's first column in row 0. Columns past `cols` are
// never read.
template <class Isa, class T, class Tile>
struct RowColumns {
  static constexpr int V = Tile::kVecs;
  RowColumns(const T* p, int64_t ld, Tile tile)
      : p(p + tile.j0),
        ld(ld),
        last(Isa::EdgeMask(tile.cols - (V - 1) * Isa::kLanes)) {}
  void operator()(int64_t kk, typename Isa::Vec (&b)[V]) const {
    const T* row = p + kk * ld;
#pragma GCC unroll 8
    for (int v = 0; v + 1 < V; ++v) Isa::Load(row + v * Isa::kLanes, b[v]);
    const T* tail = row + (V - 1) * Isa::kLanes;
    if constexpr (Tile::kEdge) {
      Isa::LoadEdge(tail, last, b[V - 1]);
    } else {
      Isa::Load(tail, b[V - 1]);
    }
  }
  const T* p;
  int64_t ld;
  typename Isa::Mask last;
};

// Stores an Mr x V tile to rows `ldo` apart, `out` pointing at its first
// column.
template <class Isa, bool Edge, int Mr, int V, class T, class StoreFn>
inline void StoreTile(const typename Isa::Vec (&acc)[Mr][V], T* out,
                      int64_t ldo, int cols, const StoreFn& store) {
  const typename Isa::Mask last =
      Isa::EdgeMask(cols - (V - 1) * Isa::kLanes);
#pragma GCC unroll 8
  for (int r = 0; r < Mr; ++r, out += ldo) {
#pragma GCC unroll 8
    for (int v = 0; v + 1 < V; ++v) {
      Isa::Store(out + v * Isa::kLanes, acc[r][v], store);
    }
    T* tail = out + (V - 1) * Isa::kLanes;
    if constexpr (Edge) {
      Isa::StoreEdge(tail, acc[r][V - 1], last, store);
    } else {
      Isa::Store(tail, acc[r][V - 1], store);
    }
  }
}

template <class Isa, int Mr, int V, bool Edge, class T, class Body,
          class StoreFn>
inline void RunTile(int64_t j0, int cols, T* out, int64_t ldo,
                    const Body& body, const StoreFn& store) {
  typename Isa::Vec acc[Mr][V] = {};
  body(acc, ColumnTile<V, Edge>{j0, cols});
  StoreTile<Isa, Edge>(acc, out + j0, ldo, cols, store);
}

// Covers output columns [0, n) of Mr rows (`ldo` apart from `out`) with
// tiles: full ones of kTileVecs[Mr] Vecs, then one edge tile of as many Vecs
// as the remaining columns need, the last one masked. For each,
// body(acc, tile) accumulates into the zeroed accumulators, which are then
// stored.
template <class Isa, int Mr, class T, class Body, class StoreFn>
inline void ForColumnTiles(int64_t n, T* out, int64_t ldo, const Body& body,
                           const StoreFn& store) {
  constexpr int kLanes = Isa::kLanes;
  constexpr int V = Isa::kTileVecs[Mr];
  int64_t j0 = 0;
  for (; j0 + V * kLanes <= n; j0 += V * kLanes) {
    RunTile<Isa, Mr, V, false>(j0, V * kLanes, out, ldo, body, store);
  }
  const int cols = static_cast<int>(n - j0);
  if (cols > 0) {
    WithCount<V>((cols + kLanes - 1) / kLanes, [&](auto vecs) {
      RunTile<Isa, Mr, decltype(vecs)::value, true>(j0, cols, out, ldo, body,
                                                    store);
    });
  }
}

// Calls block(std::integral_constant<int, R>(), i0) over rows [i0, m) in
// blocks of R = Mr rows, then once with R = the rows left, if any.
template <int Mr, class Block>
inline void ForRowBlocks(int64_t m, const Block& block) {
  int64_t i0 = 0;
  for (; i0 + Mr <= m; i0 += Mr) block(std::integral_constant<int, Mr>(), i0);
  if (i0 < m) {
    WithCount<Mr - 1>(static_cast<int>(m - i0),
                      [&](auto rows) { block(rows, i0); });
  }
}

using Double2 = double __attribute__((vector_size(16)));

// Columns [j0, j0 + 2V) of B^T read in place (generic variant only):
// column j is row j of B, rows `ldb` apart. Lanes past the last column read
// that column instead; they are computed and dropped.
template <class T, class Tile>
struct TransposedColumns {
  static constexpr int V = Tile::kVecs;
  TransposedColumns(const T* b, int64_t ldb, Tile tile, int64_t n) {
    for (int l = 0; l < 2 * V; ++l) {
      lane[l] = b + std::min<int64_t>(tile.j0 + l, n - 1) * ldb;
    }
  }
  void operator()(int64_t kk, Double2 (&b)[V]) const {
    for (int v = 0; v < V; ++v) {
      b[v] = Double2{static_cast<double>(lane[2 * v][kk]),
                     static_cast<double>(lane[2 * v + 1][kk])};
    }
  }
  const T* lane[2 * V];
};

// Narrowing of a sum to each output dtype.
struct ToF32 {
  float operator()(double v) const { return static_cast<float>(v); }
};
struct ToI64 {
  int64_t operator()(double v) const { return static_cast<int64_t>(v); }
};
struct ToI1 {
  int64_t operator()(double v) const { return v != 0.0 ? 1 : 0; }
};

// The pack space of a MatMul on variant Isa with operands of type T: the A
// rows of one row block as doubles, then, where the variant packs B^T, one
// [k][n] panel of T. The driver carves its pack by this layout, and
// MatMulPackBytes reports its size.
template <class Isa, class T>
struct MatMulPack {
  explicit MatMulPack(const MatMulDims& d)
      : b_offset(RoundUp(d.k * std::min<int64_t>(d.m, Isa::kRows) *
                             static_cast<int64_t>(sizeof(double)),
                         64)),
        bytes(b_offset + (Isa::kPacksTransposedB && d.transpose_b
                              ? d.k * d.n * static_cast<int64_t>(sizeof(T))
                              : 0)) {}
  int64_t b_offset;
  int64_t bytes;
};

// Batched MatMul: A packed per row block as rows of doubles, B read in place
// at its own dtype, or, where the variant packs B^T, from one [k][n] panel
// per distinct B slice. `pack` holds MatMulPack<Isa, T>(d).bytes.
template <class Isa, class T, class StoreFn>
inline void MatMulDriver(const MatMulDims& d, const T* a, const T* b, T* out,
                         std::byte* pack, const StoreFn& store) {
  const int64_t m = d.m, n = d.n, k = d.k;
  const int64_t lda = d.transpose_a ? m : k;
  const int64_t ldp = k;  // packed A rows
  const bool pack_b = Isa::kPacksTransposedB && d.transpose_b;
  double* packed_a = reinterpret_cast<double*>(pack);
  T* packed_b =
      reinterpret_cast<T*>(pack + MatMulPack<Isa, T>(d).b_offset);
  const T* packed_from = nullptr;  // the B slice packed_b holds
  const int64_t slices = Product(d.batch);
  for (int64_t s = 0; s < slices; ++s, out += m * n) {
    // Slice s's batch index, row-major over d.batch.
    const T* pa = a;
    const T* pb = b;
    int64_t rest = s;
    for (size_t i = d.batch.size(); i-- > 0;) {
      const int64_t at = rest % d.batch[i];
      rest /= d.batch[i];
      pa += at * d.a_batch_strides[i];
      pb += at * d.b_batch_strides[i];
    }
    int64_t ldb = d.transpose_b ? k : n;
    if (pack_b) {
      if (pb != packed_from) {
        Transpose(pb, ldb, n, k, packed_b, n);
        packed_from = pb;
      }
      pb = packed_b;
      ldb = n;
    }
    ForRowBlocks<Isa::kRows>(m, [&](auto rows, int64_t i0) {
      constexpr int R = decltype(rows)::value;
      double* pk = packed_a;
      if (d.transpose_a) {
        Transpose(pa + i0, lda, k, R, pk, ldp);
      } else {
        for (int r = 0; r < R; ++r) {
          WidenRow<Isa>(pa + (i0 + r) * lda, k, pk + r * ldp);
        }
      }
      ForColumnTiles<Isa, R>(
          n, out + i0 * n, n,
          [&](auto& acc, auto tile) {
            if constexpr (!Isa::kPacksTransposedB) {
              if (d.transpose_b) {
                AccumulateTile<Isa>(pk, ldp, k,
                                    TransposedColumns(pb, ldb, tile, n), acc);
                return;
              }
            }
            AccumulateTile<Isa>(
                pk, ldp, k,
                RowColumns<Isa, T, decltype(tile)>(pb, ldb, tile), acc);
          },
          store);
    });
  }
}

// NHWC Conv2D with the filter as the B operand ([kh*kw*c, oc], rows oc
// apart). Output pixels whose kx taps are all in bounds form an interior
// run per output row; it goes in blocks of one tile height (then one block
// of the pixels left), each with one AccumulateTile per column tile over the
// in-bounds ky range, whose filter rows are contiguous. A pixel's taps at
// one ky are contiguous in the input, so each packed A row is a run of
// widened copies. Border pixels go one at a time, with one AccumulateTile
// per in-bounds ky over the in-bounds kx range. `pack` holds
// Conv2DPackDoubles<Isa>(d) doubles.
template <class Isa>
int64_t Conv2DPackDoubles(const Conv2DDims& d) {
  return Isa::kRows * d.kh * d.kw * d.c;  // kRows pixels of kh runs of taps
}

template <class Isa>
inline void Conv2DDriver(const Conv2DDims& d, const float* src,
                         const float* flt, float* dst, std::byte* pack) {
  const int64_t oh = (d.h + 2 * d.ph - d.kh) / d.sh + 1;
  const int64_t ow = (d.w + 2 * d.pw - d.kw) / d.sw + 1;
  const int64_t w = d.w, c = d.c, oc = d.oc, sw = d.sw, pw = d.pw;
  const int64_t taps = d.kw * c;  // filter rows per ky
  // Output columns [x_lo, x_hi) have every kx tap in bounds.
  const int64_t x_lo = std::min(ow, (pw + sw - 1) / sw);
  const int64_t x_hi = std::max(
      x_lo, w + pw >= d.kw ? std::min(ow, (w + pw - d.kw) / sw + 1) : 0);
  // One packed row per pixel of a block: up to kh runs of `taps` doubles.
  const int64_t ldp = d.kh * taps;
  double* packed = reinterpret_cast<double*>(pack);
  for (int64_t ni = 0; ni < d.n; ++ni) {
    for (int64_t yo = 0; yo < oh; ++yo) {
      float* dst_row = dst + (ni * oh + yo) * ow * oc;
      const int64_t y0 = yo * d.sh - d.ph;  // input row of ky = 0
      const int64_t ky0 = std::max<int64_t>(0, -y0);
      const int64_t ky1 = std::min(d.kh, d.h - y0);
      if (ky0 >= ky1 || taps == 0) {  // empty sums
        std::fill(dst_row, dst_row + ow * oc, 0.0f);
        continue;
      }
      const int64_t src_rows = (ni * d.h + y0) * w * c;  // may be < 0
      ForRowBlocks<Isa::kRows>(x_hi - x_lo, [&](auto rows, int64_t i0) {
        constexpr int R = decltype(rows)::value;
        const int64_t xo = x_lo + i0;
        const int64_t x0 = xo * sw - pw;
        for (int r = 0; r < R; ++r) {
          for (int64_t ky = ky0; ky < ky1; ++ky) {
            WidenRow<Isa>(src + (src_rows + (ky * w + x0 + r * sw) * c), taps,
                          &packed[r * ldp + (ky - ky0) * taps]);
          }
        }
        ForColumnTiles<Isa, R>(
            oc, dst_row + xo * oc, oc,
            [&](auto& acc, auto tile) {
              AccumulateTile<Isa>(packed, ldp, (ky1 - ky0) * taps,
                                  RowColumns<Isa, float, decltype(tile)>(
                                      flt + ky0 * taps * oc, oc, tile),
                                  acc);
            },
            ToF32());
      });
      auto border_pixel = [&](int64_t xo) {
        const int64_t x0 = xo * sw - pw;
        const int64_t kx0 = std::max<int64_t>(0, -x0);
        const int64_t kx1 = std::min(d.kw, w - x0);
        const int64_t len = std::max<int64_t>(0, kx1 - kx0) * c;
        if (len > 0) {
          for (int64_t ky = ky0; ky < ky1; ++ky) {
            WidenRow<Isa>(src + (src_rows + (ky * w + x0 + kx0) * c), len,
                          &packed[(ky - ky0) * len]);
          }
        }
        ForColumnTiles<Isa, 1>(
            oc, dst_row + xo * oc, oc,
            [&](auto& acc, auto tile) {
              if (len == 0) return;  // no tap in bounds: the empty sum
              for (int64_t ky = ky0; ky < ky1; ++ky) {
                AccumulateTile<Isa>(
                    &packed[(ky - ky0) * len], ldp, len,
                    RowColumns<Isa, float, decltype(tile)>(
                        flt + (ky * taps + kx0 * c) * oc, oc, tile),
                    acc);
              }
            },
            ToF32());
      };
      for (int64_t xo = 0; xo < x_lo; ++xo) border_pixel(xo);
      for (int64_t xo = x_hi; xo < ow; ++xo) border_pixel(xo);
    }
  }
}

// ---------------------------------------------------------------------------
// generic: the x86-64 baseline (SSE2), so each product rounds before it is
// added. Loads and stores go lane by lane at the operand's own dtype; edge
// lanes read the last column that exists. Every tile is 2 Vecs wide: without
// FMA a wider one measured no faster, and slower for the m = 1 products with
// B^T that SelectContraction sends here.
struct GenericIsa {
  using Vec = Double2;
  using Mask = int;  // the count of lanes that exist
  static constexpr int kLanes = 2;
  static constexpr int kRows = 4;
  static constexpr int kTileVecs[kRows + 1] = {0, 2, 2, 2, 2};
  static constexpr bool kPacksTransposedB = false;
  static Mask EdgeMask(int count) { return count; }
  template <class T>
  static void Load(const T* p, Vec& v) {
    v = Vec{static_cast<double>(p[0]), static_cast<double>(p[1])};
  }
  template <class T>
  static void LoadEdge(const T* p, Mask count, Vec& v) {
    v = Vec{static_cast<double>(p[0]), static_cast<double>(p[count - 1])};
  }
  static void StoreWide(double* p, const Vec& v) {
    p[0] = v[0];
    p[1] = v[1];
  }
  static void MulAdd(Vec& acc, double a, const Vec& b) {
    acc += Vec{a, a} * b;
  }
  template <class T, class StoreFn>
  static void Store(T* p, const Vec& v, const StoreFn& store) {
    p[0] = store(v[0]);
    p[1] = store(v[1]);
  }
  template <class T, class StoreFn>
  static void StoreEdge(T* p, const Vec& v, Mask count,
                        const StoreFn& store) {
    p[0] = store(v[0]);
    if (count > 1) p[1] = store(v[1]);
  }
};

[[gnu::flatten]] void MatMulGeneric(const MatMulDims& d, const float* a,
                                    const float* b, float* out,
                                    std::byte* pack) {
  MatMulDriver<GenericIsa>(d, a, b, out, pack, ToF32());
}

[[gnu::flatten]] void Conv2DGeneric(const Conv2DDims& d, const float* in,
                                    const float* filter, float* out,
                                    std::byte* pack) {
  Conv2DDriver<GenericIsa>(d, in, filter, out, pack);
}

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// avx2: f32 only. B loads widen four floats at a time, one vcvtps2pd from
// memory; edge lanes are masked off, so they neither fault nor leave the
// operand. The tile table keeps R x V accumulators, the V B vectors and one
// broadcast within the 16 ymm registers: 6 x 2 (15), 5 x 2 (13), 4 x 2, 3 x 3
// (13), 2 x 4 (13) and 1 x 4.
#pragma GCC push_options
#pragma GCC target("avx2,fma")

struct Avx2Isa {
  using Vec = __m256d;
  using Mask = __m128i;
  static constexpr int kLanes = 4;
  static constexpr int kRows = 6;
  static constexpr int kTileVecs[kRows + 1] = {0, 4, 4, 3, 2, 2, 2};
  static constexpr bool kPacksTransposedB = true;
  static Mask EdgeMask(int count) {
    static constexpr int32_t kLaneMasks[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kLaneMasks + kLanes - count));
  }
  static void Load(const float* p, Vec& v) {
    v = _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static void LoadEdge(const float* p, Mask mask, Vec& v) {
    v = _mm256_cvtps_pd(_mm_maskload_ps(p, mask));
  }
  static void StoreWide(double* p, const Vec& v) { _mm256_storeu_pd(p, v); }
  static void MulAdd(Vec& acc, double a, const Vec& b) {
    acc = _mm256_fmadd_pd(_mm256_set1_pd(a), b, acc);
  }
  template <class StoreFn>
  static void Store(float* p, const Vec& v, const StoreFn&) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  template <class StoreFn>
  static void StoreEdge(float* p, const Vec& v, Mask mask, const StoreFn&) {
    _mm_maskstore_ps(p, mask, _mm256_cvtpd_ps(v));
  }
};

[[gnu::flatten]] void MatMulAvx2(const MatMulDims& d, const float* a,
                                 const float* b, float* out,
                                 std::byte* pack) {
  MatMulDriver<Avx2Isa>(d, a, b, out, pack, ToF32());
  _mm256_zeroupper();
}

[[gnu::flatten]] void Conv2DAvx2(const Conv2DDims& d, const float* in,
                                 const float* filter, float* out,
                                 std::byte* pack) {
  Conv2DDriver<Avx2Isa>(d, in, filter, out, pack);
  _mm256_zeroupper();
}

#pragma GCC pop_options

// ---------------------------------------------------------------------------
// avx512: f32 only, with 256-bit masked edge loads and stores (avx512vl).
// Widening is _mm512_maskz_cvtps_pd with every lane set, one vcvtps2pd from
// memory into a zmm: __builtin_convertvector(__m256 -> __m512d) becomes two
// ymm conversions plus an extract and an insert under GCC 12, whose unmasked
// _mm512_cvtps_pd raises -Wmaybe-uninitialized. Narrowing stays
// __builtin_convertvector, which is one vcvtpd2ps. Tiles of 5 to 8 rows are
// 3 Vecs wide (up to 24 accumulators, 3 B vectors and one broadcast, 28 of
// the 32 zmm); shorter ones are wider (1 and 2 rows x 8 Vecs, 3 x 5, 4 x 4),
// so a short tile still keeps at least 8 FMA chains in flight.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl")

struct Avx512Isa {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  static constexpr int kRows = 8;
  static constexpr int kTileVecs[kRows + 1] = {0, 8, 8, 5, 4, 3, 3, 3, 3};
  static constexpr bool kPacksTransposedB = true;
  static Mask EdgeMask(int count) {
    return static_cast<Mask>((1u << count) - 1);
  }
  static void Load(const float* p, Vec& v) {
    v = _mm512_maskz_cvtps_pd(0xff, _mm256_loadu_ps(p));
  }
  static void LoadEdge(const float* p, Mask mask, Vec& v) {
    v = _mm512_maskz_cvtps_pd(0xff, _mm256_maskz_loadu_ps(mask, p));
  }
  static void StoreWide(double* p, const Vec& v) { _mm512_storeu_pd(p, v); }
  static void MulAdd(Vec& acc, double a, const Vec& b) {
    acc = _mm512_fmadd_pd(_mm512_set1_pd(a), b, acc);
  }
  template <class StoreFn>
  static void Store(float* p, const Vec& v, const StoreFn&) {
    _mm256_storeu_ps(p, __builtin_convertvector(v, __m256));
  }
  template <class StoreFn>
  static void StoreEdge(float* p, const Vec& v, Mask mask, const StoreFn&) {
    _mm256_mask_storeu_ps(p, mask, __builtin_convertvector(v, __m256));
  }
};

[[gnu::flatten]] void MatMulAvx512(const MatMulDims& d, const float* a,
                                   const float* b, float* out,
                                   std::byte* pack) {
  MatMulDriver<Avx512Isa>(d, a, b, out, pack, ToF32());
  _mm256_zeroupper();
}

[[gnu::flatten]] void Conv2DAvx512(const Conv2DDims& d, const float* in,
                                   const float* filter, float* out,
                                   std::byte* pack) {
  Conv2DDriver<Avx512Isa>(d, in, filter, out, pack);
  _mm256_zeroupper();
}

#pragma GCC pop_options

#endif  // defined(__x86_64__)

struct HostFeatures {
  bool avx2 = false;
  bool avx512 = false;
};

const HostFeatures& Host() {
  static const HostFeatures features = [] {
    HostFeatures f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    f.avx512 = __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512vl");
#endif
    return f;
  }();
  return features;
}

// Element strides between the batch slices of a row-major operand with
// `dims`, aligned to `rank` output batch dims (0 where it broadcasts).
std::vector<int64_t> BatchStrides(const std::vector<int64_t>& dims,
                                  size_t rank) {
  const size_t batch_rank = dims.size() - 2;
  std::vector<int64_t> strides(rank, 0);
  int64_t stride = dims[batch_rank] * dims[batch_rank + 1];
  for (size_t i = batch_rank; i-- > 0;) {
    if (dims[i] != 1) strides[rank - batch_rank + i] = stride;
    stride *= dims[i];
  }
  return strides;
}

}  // namespace

const char* ContractionIsaName(ContractionIsa isa) {
  switch (isa) {
    case ContractionIsa::kGeneric:
      return "generic";
    case ContractionIsa::kAvx2:
      return "avx2";
    case ContractionIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool HostSupports(ContractionIsa isa) {
  switch (isa) {
    case ContractionIsa::kGeneric:
      return true;
    case ContractionIsa::kAvx2:
      return Host().avx2;
    case ContractionIsa::kAvx512:
      return Host().avx512;
  }
  return false;
}

ContractionIsa HostIsa() {
  if (Host().avx512) return ContractionIsa::kAvx512;
  if (Host().avx2) return ContractionIsa::kAvx2;
  return ContractionIsa::kGeneric;
}

ContractionIsa SelectContraction(DType dtype, int64_t m, bool transpose_b) {
  constexpr int64_t kMinRowsToPackTransposedB = 2;
  if (dtype != DType::kF32) return ContractionIsa::kGeneric;
  if (transpose_b && m < kMinRowsToPackTransposedB) {
    return ContractionIsa::kGeneric;
  }
  return HostIsa();
}

Result<MatMulDims> MatMulDimsOf(const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b, bool ta,
                                bool tb) {
  const size_t ra = a.size(), rb = b.size();
  if (ra < 2 || rb < 2) return Status::InvalidArgument("rank < 2");
  MatMulDims d;
  d.m = a[ra - (ta ? 1 : 2)];
  d.k = a[ra - (ta ? 2 : 1)];
  d.n = b[rb - (tb ? 2 : 1)];
  if (b[rb - (tb ? 1 : 2)] != d.k) {
    return Status::InvalidArgument("contraction mismatch");
  }
  d.transpose_a = ta;
  d.transpose_b = tb;
  DISC_ASSIGN_OR_RETURN(
      d.batch, BroadcastDims(std::vector<int64_t>(a.begin(), a.end() - 2),
                             std::vector<int64_t>(b.begin(), b.end() - 2)));
  d.a_batch_strides = BatchStrides(a, d.batch.size());
  d.b_batch_strides = BatchStrides(b, d.batch.size());
  return d;
}

int64_t MatMulPackBytes(ContractionIsa isa, DType dtype,
                        const MatMulDims& dims) {
  if (dtype != DType::kF32) return MatMulPack<GenericIsa, int64_t>(dims).bytes;
  switch (isa) {
#if defined(__x86_64__)
    case ContractionIsa::kAvx2:
      return MatMulPack<Avx2Isa, float>(dims).bytes;
    case ContractionIsa::kAvx512:
      return MatMulPack<Avx512Isa, float>(dims).bytes;
#endif
    default:
      return MatMulPack<GenericIsa, float>(dims).bytes;
  }
}

int64_t Conv2DPackBytes(ContractionIsa isa, const Conv2DDims& dims) {
  int64_t doubles = Conv2DPackDoubles<GenericIsa>(dims);
#if defined(__x86_64__)
  if (isa == ContractionIsa::kAvx2) doubles = Conv2DPackDoubles<Avx2Isa>(dims);
  if (isa == ContractionIsa::kAvx512) {
    doubles = Conv2DPackDoubles<Avx512Isa>(dims);
  }
#endif
  return doubles * static_cast<int64_t>(sizeof(double));
}

void MatMulF32(ContractionIsa isa, const MatMulDims& dims, const float* a,
               const float* b, float* out, std::byte* pack) {
  DISC_CHECK(HostSupports(isa))
      << ContractionIsaName(isa) << " is not supported by this CPU";
  switch (isa) {
    case ContractionIsa::kGeneric:
      return MatMulGeneric(dims, a, b, out, pack);
#if defined(__x86_64__)
    case ContractionIsa::kAvx2:
      return MatMulAvx2(dims, a, b, out, pack);
    case ContractionIsa::kAvx512:
      return MatMulAvx512(dims, a, b, out, pack);
#endif
    default:
      DISC_UNREACHABLE(ContractionIsaName(isa));
  }
}

[[gnu::flatten]] void MatMulI64(const MatMulDims& dims, DType dtype,
                                const int64_t* a, const int64_t* b,
                                int64_t* out, std::byte* pack) {
  if (dtype == DType::kI1) {
    MatMulDriver<GenericIsa>(dims, a, b, out, pack, ToI1());
  } else {
    MatMulDriver<GenericIsa>(dims, a, b, out, pack, ToI64());
  }
}

void Conv2DF32(ContractionIsa isa, const Conv2DDims& dims, const float* in,
               const float* filter, float* out, std::byte* pack) {
  DISC_CHECK(HostSupports(isa))
      << ContractionIsaName(isa) << " is not supported by this CPU";
  switch (isa) {
    case ContractionIsa::kGeneric:
      return Conv2DGeneric(dims, in, filter, out, pack);
#if defined(__x86_64__)
    case ContractionIsa::kAvx2:
      return Conv2DAvx2(dims, in, filter, out, pack);
    case ContractionIsa::kAvx512:
      return Conv2DAvx512(dims, in, filter, out, pack);
#endif
    default:
      DISC_UNREACHABLE(ContractionIsaName(isa));
  }
}

}  // namespace disc
