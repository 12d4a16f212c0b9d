#pragma once
// The one on-disk checkpoint format of every solver: an io::Blob (CRC-32
// per record, atomic .tmp + rename publish; see io/blob.hpp) holding a
// metadata record (tag kCheckpointMetaTag) and then one state record per
// rank (tag kCheckpointStateTag + rank).  harvey::DistributedSolver writes
// each rank's distribution array, ghost slots included; lbm::Solver writes
// the single-rank case, whose one state record is the canonical snapshot
// of the whole lattice — portable across propagation patterns and AA
// parities.

#include <algorithm>
#include <cstdint>
#include <string>

#include "io/blob.hpp"
#include "lbm/d3q19.hpp"

namespace hemo::lbm {

/// Every checkpoint failure — missing file, wrong magic, truncation, a CRC
/// mismatch, or a file taken for another solver configuration — is one
/// recoverable error type: campaigns catch it and fall back to a cold
/// start.
using CheckpointError = io::BlobError;

inline constexpr std::uint64_t kCheckpointMagic =
    0x48454D4F44434B50ull;  // "HEMODCKP"
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::uint32_t kCheckpointMetaTag = 0;
inline constexpr std::uint32_t kCheckpointStateTag = 1;  // + rank

struct CheckpointMeta {
  std::int64_t step = 0;
  std::int64_t global_size = 0;
  std::int32_t n_ranks = 0;
  std::int32_t q = kQ;
};

/// Reads the metadata record that must open a checkpoint and checks it
/// against the restoring solver's lattice size and rank count.
inline CheckpointMeta read_checkpoint_meta(io::BlobReader& reader,
                                           const std::string& path,
                                           std::int64_t global_size,
                                           int n_ranks) {
  if (reader.at_end())
    throw CheckpointError("checkpoint '" + path + "' has no metadata record");
  const io::BlobRecord rec = reader.next();
  if (rec.tag != kCheckpointMetaTag ||
      rec.bytes.size() != sizeof(CheckpointMeta))
    throw CheckpointError("checkpoint '" + path +
                          "': first record is not valid metadata");
  CheckpointMeta meta;
  std::copy(rec.bytes.begin(), rec.bytes.end(),
            reinterpret_cast<char*>(&meta));
  if (meta.global_size != global_size || meta.n_ranks != n_ranks ||
      meta.q != kQ)
    throw CheckpointError("checkpoint '" + path +
                          "' was taken for a different solver configuration");
  if (meta.step < 0)
    throw CheckpointError("checkpoint '" + path + "': negative step counter");
  return meta;
}

}  // namespace hemo::lbm
