#pragma once
// Bulk stream-collide loops: the SIMD path of lbm::StepEngine.
//
// A bulk loop updates a contiguous run of points that are all kBulk, so it
// has no node-type branch and no Zou-He completion, and its streaming is a
// plain gather through a 32-bit slot table with wall bounce-back already
// folded in (see StepEngine).  That leaves a branch-free body the compiler
// vectorizes across points under `#pragma omp simd`.
//
// Each loop is one always-inline body compiled twice: for the baseline ISA
// and with target("avx512f").  The library is built with -ffp-contract=off,
// so neither build fuses a multiply and an add; both then perform, per
// point, exactly the floating-point operations of the per-point reference
// kernels (kernels.hpp) in the same order, and all three agree bit for bit.
// Vectorizing across points never reorders the operations within a point.

#include <cstdint>

#include "lbm/kernels.hpp"

namespace hemo::lbm {

/// A flat index into a q-major SoA distribution array: q * n + point, or
/// kQ * n + k for value k of the region after the rows.
/// Half the width of PointIndex, so a 32-bit table moves half the bytes of
/// the int64 adjacency; valid while every flat index is below 2^31, which
/// StepEngine checks when it builds its tables.
using Slot = std::int32_t;

/// Arguments of a bulk loop: the kernel arguments (arrays of row stride
/// k.n, relaxation, force) plus the engine's slot table, kQ rows of k.n.
struct BulkArgs {
  KernelArgs k;
  const Slot* slots = nullptr;  // kQ * k.n, q-major
};

/// Updates every point of [lo, hi); each one must be a kBulk point.
///   pull     f_out[q][i] = collide(f_in[slots[q][i]])[q]
///   aa_even  f[opposite(q)][i] = collide(f[q][i])[q]          (no table)
///   aa_odd   reads f[slots[q][i]], writes result q to f[slots[opposite(q)][i]]
using BulkLoop = void (*)(const BulkArgs& args, std::int64_t lo,
                          std::int64_t hi);

struct BulkKernels {
  BulkLoop pull = nullptr;
  BulkLoop aa_even = nullptr;
  BulkLoop aa_odd = nullptr;
};

/// The instruction sets the bulk loops are compiled for.
enum class BulkIsa { kBaseline, kAvx512 };

/// The loops compiled for `isa`.  Calling the AVX-512 loops on a CPU
/// without AVX-512F is undefined; check bulk_isa_supported first.
const BulkKernels& bulk_kernels(BulkIsa isa);

/// True when this CPU can run the loops compiled for `isa`.
bool bulk_isa_supported(BulkIsa isa);

/// The widest ISA this CPU supports, read once from the CPU.
BulkIsa native_bulk_isa();

}  // namespace hemo::lbm
