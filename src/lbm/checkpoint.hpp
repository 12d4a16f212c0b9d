#pragma once
// The one on-disk checkpoint format of every solver, written and read by
// this module alone: an io::Blob (CRC-32 per record, atomic .tmp + rename
// publish; see io/blob.hpp) holding a metadata record {step, global_size,
// q} and then kQ state records.  Record q is direction q's row over the
// global points, in global order — the rows of lbm::Solver::
// distributions() and harvey::DistributedSolver::global_distributions().
// No rank count, ghost slot or AA parity is stored, so a checkpoint
// restores into either solver, at any rank count, under pull or AA.

#include <cstdint>
#include <functional>
#include <string>

#include "io/blob.hpp"

namespace hemo::lbm {

/// Every checkpoint failure — missing file, wrong magic or version,
/// truncation, a CRC mismatch, a record out of order, or a file taken for
/// another lattice — is one recoverable error type: campaigns catch it and
/// fall back to a cold start.
using CheckpointError = io::BlobError;

inline constexpr std::uint64_t kCheckpointMagic =
    0x48454D4F44434B50ull;  // "HEMODCKP"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Writes the checkpoint of a `global_size`-point state at `step`.  row(q)
/// yields direction q's row of global_size values; it is called for q in
/// order, and its pointer need only stay valid until the next call.
void write_checkpoint(const std::string& path, std::int64_t step,
                      std::int64_t global_size,
                      const std::function<const double*(int q)>& row);

/// Reads a checkpoint taken for a `global_size`-point lattice and returns
/// its step.  row(q, bytes) receives direction q's row, global_size
/// doubles as raw bytes (copy them out with std::memcpy), in order and
/// each only after its CRC has passed.  Throws CheckpointError on a file
/// of another version or lattice, a record out of order, a row of the
/// wrong size or CRC, or a record after the last row — possibly after
/// some rows were handed over, so a caller stages them where a failed
/// restore does not show.
std::int64_t read_checkpoint(
    const std::string& path, std::int64_t global_size,
    const std::function<void(int q, const char* bytes)>& row);

}  // namespace hemo::lbm
