// io::Blob framing under failure: roundtrips, atomic replacement (the
// .tmp + rename protocol), and fault injection — truncation at every
// interesting byte offset and single-bit payload corruption must surface
// as BlobError, never as silently restored garbage.

#include "io/blob.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

namespace hemo::io {
namespace {

constexpr std::uint64_t kMagic = 0x424f4c424f4d4548ull;
constexpr std::uint32_t kVersion = 3;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

bool file_exists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return static_cast<bool>(is);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_blob(const std::string& path,
                const std::vector<std::string>& payloads) {
  BlobWriter writer(path, kMagic, kVersion);
  for (std::size_t i = 0; i < payloads.size(); ++i)
    writer.add_record(static_cast<std::uint32_t>(i + 1), payloads[i].data(),
                      payloads[i].size());
  writer.finish();
}

TEST(Blob, RoundTripsTaggedRecords) {
  TempFile file("blob_roundtrip.bin");
  const std::vector<std::string> payloads = {"alpha", "", "gamma-gamma"};
  write_blob(file.path, payloads);

  BlobReader reader(file.path, kMagic, kVersion);
  EXPECT_EQ(reader.version(), kVersion);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_FALSE(reader.at_end());
    const BlobRecord record = reader.next();
    EXPECT_EQ(record.tag, i + 1);
    EXPECT_EQ(std::string(record.bytes.begin(), record.bytes.end()),
              payloads[i]);
  }
  EXPECT_TRUE(reader.at_end());
}

TEST(Blob, WriteIsAtomic) {
  TempFile file("blob_atomic.bin");
  write_blob(file.path, {"previous checkpoint"});
  const std::string previous = slurp(file.path);

  {
    // While a new write is in flight, the visible file must still be the
    // complete previous blob — records land in the .tmp sibling.
    BlobWriter writer(file.path, kMagic, kVersion);
    const std::string payload = "half-written replacement";
    writer.add_record(9, payload.data(), payload.size());
    EXPECT_EQ(slurp(file.path), previous);
    EXPECT_TRUE(file_exists(file.path + ".tmp"));
    writer.finish();
  }
  EXPECT_FALSE(file_exists(file.path + ".tmp"));  // renamed into place
  BlobReader reader(file.path, kMagic, kVersion);
  EXPECT_EQ(reader.next().tag, 9u);
}

TEST(Blob, AbandonedWriterLeavesPreviousFileIntact) {
  TempFile file("blob_abandoned.bin");
  write_blob(file.path, {"previous checkpoint"});
  const std::string previous = slurp(file.path);
  {
    BlobWriter writer(file.path, kMagic, kVersion);
    const std::string payload = "crashed before finish";
    writer.add_record(1, payload.data(), payload.size());
    // No finish(): the destructor's best-effort finish still renames, so
    // simulate the crash by deleting the temporary out from under it —
    // the rename fails and is swallowed, the original must survive.
    std::remove((file.path + ".tmp").c_str());
  }
  EXPECT_EQ(slurp(file.path), previous);
}

TEST(Blob, DetectsTruncationAtEveryPrefix) {
  TempFile file("blob_truncate.bin");
  write_blob(file.path, {"payload-one", "payload-two"});
  const std::string bytes = slurp(file.path);

  // Truncate inside the header, inside a record frame, and inside a
  // payload; every prefix must be reported, never silently accepted.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{11}, std::size_t{13}, std::size_t{20},
        bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    {
      std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    if (keep < 12) {  // u64 magic + u32 version
      EXPECT_THROW(BlobReader(file.path, kMagic, kVersion), BlobError)
          << "keep=" << keep;
      continue;
    }
    BlobReader reader(file.path, kMagic, kVersion);
    EXPECT_THROW(
        {
          while (!reader.at_end()) reader.next();
        },
        BlobError)
        << "keep=" << keep;
  }
}

TEST(Blob, DamagedRecordSizeReadsAsTruncation) {
  TempFile file("blob_bad_size.bin");
  write_blob(file.path, {"payload"});
  std::string bytes = slurp(file.path);
  // The u64 size field of the first record follows the 12-byte header and
  // the u32 tag; claim far more payload than the file holds.
  bytes[12 + 4 + 7] = '\x7f';
  {
    std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  BlobReader reader(file.path, kMagic, kVersion);
  EXPECT_THROW(reader.next(), BlobError);
}

TEST(Blob, DetectsPayloadCorruption) {
  TempFile file("blob_corrupt.bin");
  write_blob(file.path, {"pristine payload bytes"});
  std::string bytes = slurp(file.path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip one bit inside the payload
  {
    std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  BlobReader reader(file.path, kMagic, kVersion);
  EXPECT_THROW(reader.next(), BlobError);
}

TEST(Blob, RejectsForeignMagicAndNewerVersion) {
  TempFile file("blob_foreign.bin");
  write_blob(file.path, {"payload"});
  EXPECT_THROW(BlobReader(file.path, kMagic + 1, kVersion), BlobError);
  EXPECT_THROW(BlobReader(file.path, kMagic, kVersion - 1), BlobError);
  EXPECT_NO_THROW(BlobReader(file.path, kMagic, kVersion + 1));
}

TEST(Blob, Crc32MatchesKnownVectorAndChains) {
  // IEEE 802.3 check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  const std::uint32_t whole = crc32(check.data(), check.size());
  const std::uint32_t first = crc32(check.data(), 4);
  EXPECT_EQ(crc32(check.data() + 4, check.size() - 4, first), whole);
}

/// The textbook bytewise CRC-32, the reference the sliced one must match.
std::uint32_t bytewise_crc32(const unsigned char* bytes, std::size_t size,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Blob, Crc32MatchesBytewiseReferenceAtAnyLengthAndAlignment) {
  std::mt19937_64 rng(20231117);
  std::vector<unsigned char> buffer(4096 + 16);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  std::uniform_int_distribution<std::size_t> length(0, 4096);
  for (int trial = 0; trial < 400; ++trial) {
    // Every length up to 64 (the tail loop's cases), then random ones.
    const std::size_t size =
        trial <= 64 ? static_cast<std::size_t>(trial) : length(rng);
    const std::size_t offset = static_cast<std::size_t>(trial) % 16;
    const auto seed = static_cast<std::uint32_t>(rng());
    const unsigned char* start = buffer.data() + offset;
    ASSERT_EQ(crc32(start, size), bytewise_crc32(start, size, 0))
        << "size " << size << ", offset " << offset;
    ASSERT_EQ(crc32(start, size, seed), bytewise_crc32(start, size, seed))
        << "size " << size << ", offset " << offset << ", seed " << seed;
  }
  // Every length from 48 to 272 at every offset mod 16: buffers below the
  // 64-byte fold threshold, and folds of 4 to 17 16-byte blocks followed by
  // tails of every length 0..15.
  for (std::size_t size = 48; size <= 272; ++size)
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const auto seed = static_cast<std::uint32_t>(rng());
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(crc32(start, size, seed), bytewise_crc32(start, size, seed))
          << "size " << size << ", offset " << offset << ", seed " << seed;
    }
  // A halo payload of the 8-rank aorta's size: many four-lane fold rounds.
  std::vector<double> halo(23001);
  for (double& v : halo) v = std::ldexp(static_cast<double>(rng() >> 11), -53);
  const auto* bytes = reinterpret_cast<const unsigned char*>(halo.data());
  const std::size_t halo_bytes = halo.size() * sizeof(double);
  EXPECT_EQ(crc32(halo.data(), halo_bytes),
            bytewise_crc32(bytes, halo_bytes, 0));
  EXPECT_EQ(crc32(halo.data(), halo_bytes, 0xDEADBEEFu),
            bytewise_crc32(bytes, halo_bytes, 0xDEADBEEFu));
}

}  // namespace
}  // namespace hemo::io
