#pragma once
// CRC-checked binary record streams: the on-disk substrate of the
// resilience subsystem's checkpoints.  A blob is a magic/version header
// followed by tagged records, each carrying its own CRC-32 so a corrupted
// or truncated checkpoint is *detected and reported* (BlobError) instead
// of silently restoring garbage or aborting the process.  The format is
// versioned so future layouts can coexist with old checkpoint files.
//
// Layout:
//   header:  u64 magic | u32 version
//   record:  u32 tag | u64 payload bytes | u32 crc32(payload) | payload
//   ... records until EOF.

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hemo::io {

/// Recoverable blob failure: wrong magic, unsupported version, truncated
/// stream, or a CRC mismatch.  Callers (checkpoint restore, campaign
/// resume) catch it and fall back — a bad checkpoint must never take the
/// process down with it.
class BlobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range
/// at any alignment.  On an x86-64 CPU with PCLMULQDQ and SSE4.1 (checked
/// at run time) the largest 16-byte multiple of a buffer of 64 bytes or
/// more is folded by carry-less multiplication; the rest, and everything on
/// other CPUs, runs eight bytes per step (slicing-by-8).  Both give the same
/// bits.  `seed` chains incremental computations:
/// crc32(b, crc32(a)) == crc32(ab).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

class BlobWriter {
 public:
  /// Opens `path` for writing and emits the header.  Throws BlobError when
  /// the file cannot be opened (a full disk is a campaign hazard, not a
  /// programmer error).
  ///
  /// The write is atomic: records accumulate in `path + ".tmp"` and only
  /// finish() renames the temporary over `path`, so a crash mid-checkpoint
  /// can never leave a torn blob behind — readers see either the previous
  /// complete file or the new one, never a prefix of the new one.
  BlobWriter(const std::string& path, std::uint64_t magic,
             std::uint32_t version);

  /// Appends one tagged, CRC-protected record.
  void add_record(std::uint32_t tag, const void* data, std::uint64_t bytes);

  /// Flushes, closes, and renames the temporary into place; throws
  /// BlobError if any write (or the rename) failed.  The destructor calls
  /// this best-effort (swallowing the throw), so callers that care about
  /// durability must call finish() explicitly.
  void finish();

  ~BlobWriter();

 private:
  std::ofstream out_;
  std::string path_;
  std::string tmp_path_;
  bool finished_ = false;
};

struct BlobRecord {
  std::uint32_t tag = 0;
  std::vector<char> bytes;
};

class BlobReader {
 public:
  /// Opens `path` and validates the header.  Throws BlobError on a missing
  /// file, wrong magic, or a version newer than `max_version`.
  BlobReader(const std::string& path, std::uint64_t magic,
             std::uint32_t max_version);

  std::uint32_t version() const { return version_; }

  /// True when the stream is cleanly exhausted.
  bool at_end();

  /// Reads the next record, validating size and CRC; throws BlobError on
  /// truncation or checksum mismatch.
  BlobRecord next();

 private:
  std::ifstream in_;
  std::string path_;
  std::uint32_t version_ = 0;
};

}  // namespace hemo::io
