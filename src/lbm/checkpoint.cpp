#include "lbm/checkpoint.hpp"

#include <cstring>

#include "lbm/d3q19.hpp"

namespace hemo::lbm {

namespace {

constexpr std::uint32_t kCheckpointMetaTag = 0;
constexpr std::uint32_t kCheckpointStateTag = 1;  // + direction

struct CheckpointMeta {
  std::int64_t step, global_size, q;
};

}  // namespace

void write_checkpoint(const std::string& path, std::int64_t step,
                      std::int64_t global_size,
                      const std::function<const double*(int q)>& row) {
  io::BlobWriter writer(path, kCheckpointMagic, kCheckpointVersion);
  const CheckpointMeta meta{step, global_size, kQ};
  const auto row_bytes = static_cast<std::size_t>(global_size) * sizeof(double);
  writer.add_record(kCheckpointMetaTag, &meta, sizeof meta);
  for (int q = 0; q < kQ; ++q)
    writer.add_record(kCheckpointStateTag + static_cast<std::uint32_t>(q),
                      row(q), row_bytes);
  writer.finish();
}

std::int64_t read_checkpoint(
    const std::string& path, std::int64_t global_size,
    const std::function<void(int q, const char* bytes)>& row) {
  io::BlobReader reader(path, kCheckpointMagic, kCheckpointVersion);
  const std::string file = "checkpoint '" + path + "'";
  // Each version has its own layout, and v1's metadata has v2's size.
  if (reader.version() != kCheckpointVersion)
    throw CheckpointError(file + " has unsupported version " +
                          std::to_string(reader.version()));
  CheckpointMeta meta{};
  const io::BlobRecord first = reader.next();
  if (first.tag != kCheckpointMetaTag || first.bytes.size() != sizeof meta)
    throw CheckpointError(file + ": first record is not valid metadata");
  std::memcpy(&meta, first.bytes.data(), sizeof meta);
  if (meta.global_size != global_size || meta.q != kQ)
    throw CheckpointError(file + " was taken for a different lattice");
  if (meta.step < 0) throw CheckpointError(file + ": negative step counter");

  const auto row_bytes = static_cast<std::size_t>(global_size) * sizeof(double);
  for (int q = 0; q < kQ; ++q) {
    // CRC-checked; throws at the end of the file.  The previous row's
    // record is gone, so one row is held at a time.
    const io::BlobRecord rec = reader.next();
    if (rec.tag != kCheckpointStateTag + static_cast<std::uint32_t>(q) ||
        rec.bytes.size() != row_bytes)
      throw CheckpointError(file + ": record " + std::to_string(q + 1) +
                            " is not direction row " + std::to_string(q));
    row(q, rec.bytes.data());
  }
  if (!reader.at_end())
    throw CheckpointError(file + ": unexpected records after the last row");
  return meta.step;
}

}  // namespace hemo::lbm
