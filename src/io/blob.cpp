#include "io/blob.hpp"

#include <array>
#include <cstdio>

namespace hemo::io {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise CRC-32 table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// The four bytes at p as a little-endian word, on any host.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

template <class T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <class T>
bool read_pod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof *value);
  return in.gcount() == static_cast<std::streamsize>(sizeof *value);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ c;
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

BlobWriter::BlobWriter(const std::string& path, std::uint64_t magic,
                       std::uint32_t version)
    : out_(path + ".tmp", std::ios::binary),
      path_(path),
      tmp_path_(path + ".tmp") {
  if (!out_.good())
    throw BlobError("cannot open blob file '" + path + "' for writing");
  write_pod(out_, magic);
  write_pod(out_, version);
}

void BlobWriter::add_record(std::uint32_t tag, const void* data,
                            std::uint64_t bytes) {
  write_pod(out_, tag);
  write_pod(out_, bytes);
  write_pod(out_, crc32(data, static_cast<std::size_t>(bytes)));
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_.good())
    throw BlobError("write failed on blob file '" + path_ + "'");
}

void BlobWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_.flush();
  if (!out_.good()) {
    out_.close();
    std::remove(tmp_path_.c_str());
    throw BlobError("flush failed on blob file '" + path_ + "'");
  }
  out_.close();
  // The atomic publish: until this rename, `path_` still holds whatever
  // complete blob was there before (or nothing), so a crash anywhere
  // above leaves at worst a stale .tmp — never a torn blob.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    throw BlobError("cannot rename '" + tmp_path_ + "' over '" + path_ + "'");
  }
}

BlobWriter::~BlobWriter() {
  try {
    finish();
  } catch (const BlobError&) {
    // Destructors must not throw; explicit finish() reports durably.
  }
}

BlobReader::BlobReader(const std::string& path, std::uint64_t magic,
                       std::uint32_t max_version)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_.good()) throw BlobError("cannot open blob file '" + path + "'");
  std::uint64_t got_magic = 0;
  if (!read_pod(in_, &got_magic) || got_magic != magic)
    throw BlobError("blob file '" + path + "' has the wrong magic number");
  if (!read_pod(in_, &version_) || version_ == 0 || version_ > max_version)
    throw BlobError("blob file '" + path + "' has unsupported version " +
                    std::to_string(version_));
}

bool BlobReader::at_end() {
  return in_.peek() == std::ifstream::traits_type::eof();
}

BlobRecord BlobReader::next() {
  BlobRecord record;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  if (!read_pod(in_, &record.tag) || !read_pod(in_, &bytes) ||
      !read_pod(in_, &crc))
    throw BlobError("blob file '" + path_ + "' is truncated (record header)");
  // Bound the claimed size by what the file still holds before allocating:
  // a damaged size field must read as truncation, not as a huge request.
  const std::streampos payload_at = in_.tellg();
  in_.seekg(0, std::ios::end);
  const std::streamoff left = in_.tellg() - payload_at;
  in_.seekg(payload_at);
  if (bytes > static_cast<std::uint64_t>(left))
    throw BlobError("blob file '" + path_ + "' is truncated (record payload)");
  record.bytes.resize(static_cast<std::size_t>(bytes));
  in_.read(record.bytes.data(), static_cast<std::streamsize>(bytes));
  if (in_.gcount() != static_cast<std::streamsize>(bytes))
    throw BlobError("blob file '" + path_ + "' is truncated (record payload)");
  if (crc32(record.bytes.data(), record.bytes.size()) != crc)
    throw BlobError("CRC mismatch in blob file '" + path_ +
                    "': the record is corrupted");
  return record;
}

}  // namespace hemo::io
