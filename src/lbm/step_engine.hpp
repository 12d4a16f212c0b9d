#pragma once
// StepEngine: the one stream-collide time step under all three solver
// front-ends — lbm::Solver (host vectors), harvey::DeviceSolver (device
// allocations) and every rank of harvey::DistributedSolver (host vectors
// with a region of received halo values after the rows).  The layering is
//
//   hal::launch      how a dialect launches a kernel        (hal/launch.hpp)
//   lbm::StepEngine  which kernel runs, on which arrays, with which args
//   front-ends       storage ownership, observers, checkpoints, comm
//
// The engine owns the decisions every front-end would otherwise repeat:
// the KernelArgs built from SolverOptions, the initial equilibrium fill
// laid out for the propagation pattern, and the choice of pull, AA-even or
// AA-odd kernel from the pattern and the step parity.  It owns no
// distribution storage: the front-end hands it the arrays and keeps them
// alive as long as the engine.
//
// What the engine does own is its addressing.  At construction it turns
// the int64 adjacency into one 32-bit slot table (kQ x n, q-major) with
// wall bounce-back folded in, and a list of the inlet/outlet (Zou-He)
// points:
//
//   pull     slots[q][i] = q * n + up            up = adjacency[q][i]
//                        = opposite(q) * n + i   at a wall
//   AA       slots[q][i] = opposite(q) * n + up  (the odd step's read)
//                        = q * n + i             at a wall
//   either   slots[q][i] = kQ * n + (up - n)     up >= n: region value
//
// The AA odd step writes result q to slots[opposite(q)][i], the very slot
// it read direction opposite(q) from, so one table serves its reads and
// its writes; the AA even bulk loop is local and reads no table.  The
// adjacency is read during construction only.
//
// A step is one launch over fixed kStepBlock-point blocks.  A block runs
// the vectorized bulk loop (lbm/bulk_kernels.hpp) over the runs of kBulk
// points between its Zou-He points, and the unchanged per-point reference
// kernel (lbm/kernels.hpp) on each Zou-He point, so a Zou-He point never
// enters the SIMD loop.  That matters under AA, which updates in place: a
// point the SIMD loop computed and the reference kernel then recomputed
// would read its own overwritten slots.
//
// The span work is public (blocks() and commit()), so a front-end that
// steps several engines at once — DistributedSolver's ranks — can run all
// their work in one launch of its own, over spans of its choosing
// (BlockStep::range); step() is the block sequence for one engine.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hpp"
#include "hal/model.hpp"
#include "lbm/bulk_kernels.hpp"
#include "lbm/kernels.hpp"
#include "lbm/propagation.hpp"

namespace hemo::lbm {

struct SolverOptions {
  double tau = 1.0;               // BGK relaxation time (omega = 1/tau)
  Vec3 body_force{};              // uniform Guo body force
  double inlet_velocity = 0.0;    // u_z at kVelocityInlet points
  double outlet_density = 1.0;    // rho at kPressureOutlet points
  double initial_density = 1.0;
  Vec3 initial_velocity{};
  Propagation propagation = Propagation::kPullSoA;
};

/// Points per work-item of a step launch.
inline constexpr std::int64_t kStepBlock = 256;

/// The arrays an engine steps.  Distributions are q-major SoA: kQ rows of
/// the `n` points, which every step updates, then `region` values past the
/// rows that are only read (a rank's received halo values, filled by its
/// front-end).  An adjacency entry up >= n names region value up - n.
struct StepStorage {
  double* f_a = nullptr;  // pull: the initial current buffer; AA: the array
  double* f_b = nullptr;  // pull: the second buffer; AA: unused, null
  const PointIndex* adjacency = nullptr;    // kQ * n, q-major; read by the
                                            // constructor only
  const std::uint8_t* node_type = nullptr;  // NodeType per point
  std::int64_t n = 0;
  std::int64_t region = 0;
};

class StepEngine {
 public:
  StepEngine() = default;
  /// Builds the slot table and the Zou-He list.  Requires
  /// kQ * n + region < 2^31, so every slot fits a 32-bit Slot.  The bulk
  /// loops run the `isa` build; it defaults to the widest this CPU
  /// supports.
  StepEngine(Propagation pattern, const StepStorage& storage,
             BulkIsa isa = native_bulk_isa());

  /// Fills the rows of the live array with the uniform equilibrium of the
  /// options' initial density and velocity, laid out for step 0.  The
  /// region is the front-end's to fill.
  void fill_equilibrium(const SolverOptions& options,
                        std::optional<hal::Model> model = std::nullopt);

  /// The next step as span work: range(lo, hi) computes points [lo, hi) of
  /// this engine and writes no slot of a point outside them, so spans that
  /// cover [0, n) once make the same step in any order and on any threads.
  /// step() runs one span per kStepBlock-point block, `count` of them.
  /// Captured by value; it stays valid until commit().
  struct BlockStep {
    BulkArgs args;
    BulkLoop bulk = nullptr;
    void (*boundary_point)(const BulkArgs&, std::int64_t) = nullptr;
    const std::int64_t* boundary = nullptr;
    const std::int64_t* block_boundary = nullptr;
    std::int64_t n = 0;
    std::int64_t count = 0;  // blocks

    /// Computes points [lo, hi), 0 <= lo <= hi <= n, finding its Zou-He
    /// points in the blocks the span touches.
    void range(std::int64_t lo, std::int64_t hi) const {
      const std::int64_t* first = boundary + block_boundary[lo / kStepBlock];
      const std::int64_t* last =
          boundary + block_boundary[(hi + kStepBlock - 1) / kStepBlock];
      const std::int64_t* const zh_end = std::lower_bound(first, last, hi);
      for (const std::int64_t* zh = std::lower_bound(first, last, lo);
           zh != zh_end; ++zh) {
        bulk(args, lo, *zh);
        boundary_point(args, *zh);
        lo = *zh + 1;
      }
      bulk(args, lo, hi);
    }

    /// The array this step writes: pull's second buffer, or the AA array
    /// in place.  It is the engine's live() once commit() ran.
    double* output() const {
      return args.k.f_out != nullptr ? args.k.f_out : args.k.f;
    }
  };

  /// The next step's span work; cover [0, n) with range(), then commit().
  BlockStep blocks(const SolverOptions& options) const;
  /// Completes the step whose blocks() all ran: the pull buffers swap and
  /// the step counter advances.
  void commit();

  /// Advances one step through `model`'s launch primitive (a host loop
  /// when empty): blocks(), one launch over them, commit().
  void step(const SolverOptions& options,
            std::optional<hal::Model> model = std::nullopt);

  /// Pull only: recomputes the last step over points [begin, end) into
  /// `out` (kQ rows of n), from its input, which survives, region
  /// included, in the second buffer.  The SDC sentinel's duplicate
  /// re-execution; it runs the per-point reference kernel on every point,
  /// so it stays a different implementation from the bulk loop it checks.
  void recompute_range(const SolverOptions& options, std::int64_t begin,
                       std::int64_t end, double* out) const;

  /// Kernel arguments of the next step: f_in and f the live array, f_out
  /// the second buffer (null under AA).  The engine keeps no int64
  /// adjacency, so `adjacency` is null; a caller that gathers sets it.
  KernelArgs args(const SolverOptions& options) const;

  /// The array the next step reads: the pull buffer holding the last
  /// step's output, or the AA array at the current step parity.
  double* live() const { return f_; }

  std::int64_t steps_done() const { return steps_; }
  /// Sets the step counter after the live array was restored from a
  /// checkpoint laid out for that step's parity.
  void set_steps_done(std::int64_t steps);

 private:
  /// The step's arguments for the bulk loops and the Zou-He points.
  BulkArgs bulk_args(const SolverOptions& options) const;

  Propagation pattern_ = Propagation::kPullSoA;
  double* f_ = nullptr;
  double* spare_ = nullptr;
  const std::uint8_t* node_type_ = nullptr;
  std::int64_t n_ = 0;
  std::int64_t steps_ = 0;
  const BulkKernels* bulk_ = nullptr;
  std::vector<Slot> slots_;  // kQ * n, q-major (see the header comment)
  // Zou-He points in ascending order; block b's are
  // boundary_[block_boundary_[b], block_boundary_[b + 1]).
  std::vector<std::int64_t> boundary_;
  std::vector<std::int64_t> block_boundary_;
};

}  // namespace hemo::lbm
