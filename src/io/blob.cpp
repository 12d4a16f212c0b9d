#include "io/blob.hpp"

#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <immintrin.h>
#define HEMO_CRC_FOLD 1
#endif

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

/// Advances the CRC register c (the running value before the final
/// inversion) over size bytes, eight at a time.
std::uint32_t crc_sliced(const unsigned char* bytes, std::size_t size,
                         std::uint32_t c) {
  const CrcTables& t = kCrcTables;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ c;
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef HEMO_CRC_FOLD

#define HEMO_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

HEMO_CRC_FOLD_TARGET __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x's low half times k's low half, XOR x's high half times k's high half:
/// x moved along the message by the distance k encodes.
HEMO_CRC_FOLD_TARGET __m128i fold128(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advances the CRC register c over size bytes (at least 64, a multiple of
/// 16) by carry-less multiplication, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009).  In
/// the bit-reflected domain of 0xEDB88320, multiplying a 128-bit remainder's
/// halves by x^(k+32) mod P and x^(k-32) mod P moves it k bits further along
/// the message, where it is XORed into the data there.  Four lanes fold
/// 64 bytes per round; the lanes then fold into one, the one folds over
/// any remaining 16-byte blocks, down to 64 bits, and a Barrett reduction
/// by P and floor(x^64 / P) leaves the 32-bit register.
HEMO_CRC_FOLD_TARGET std::uint32_t crc_folded(
    const unsigned char* bytes, std::size_t size, std::uint32_t c) {
  // {x^(512+32), x^(512-32)} mod P, {x^(128+32), x^(128-32)} mod P,
  // x^64 mod P, and {P, floor(x^64 / P)}, all bit-reflected and shifted
  // left by one.
  const __m128i by_512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i by_128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i by_64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i lane[4] = {
      _mm_xor_si128(load128(bytes), _mm_cvtsi32_si128(static_cast<int>(c))),
      load128(bytes + 16), load128(bytes + 32), load128(bytes + 48)};
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64)
    for (int k = 0; k < 4; ++k)
      lane[k] =
          _mm_xor_si128(fold128(lane[k], by_512), load128(bytes + 16 * k));

  __m128i x = lane[0];
  for (int k = 1; k < 4; ++k) x = _mm_xor_si128(fold128(x, by_128), lane[k]);
  for (; size >= 16; bytes += 16, size -= 16)
    x = _mm_xor_si128(fold128(x, by_128), load128(bytes));

  // 128 -> 96 bits: the low half times x^(128-32) mod P joins the high half;
  // 96 -> 64 bits: the low 32 bits times x^64 mod P join the rest.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, by_128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), by_64, 0x00));

  // Barrett: q = (low 32 bits * floor(x^64 / P)) mod x^32, then x ^= q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

bool cpu_folds_crc() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // HEMO_CRC_FOLD

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
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef HEMO_CRC_FOLD
  static const bool folds = cpu_folds_crc();
  if (folds && size >= 64) {
    const std::size_t prefix = size & ~std::size_t{15};
    c = crc_folded(bytes, prefix, c);
    bytes += prefix;
    size -= prefix;
  }
#endif
  return crc_sliced(bytes, size, c) ^ 0xFFFFFFFFu;
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
