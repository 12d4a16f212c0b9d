#pragma once
// Write-ahead journal of the hemo-durable serving layer: every externally
// visible serving decision — a tenant config, a request admission, a point
// completion, a terminal request status — is appended to an on-disk log
// BEFORE the corresponding event reaches a client, so a process crash can
// lose at most work the client was never told was accepted.
//
// Format: the io::Blob framing, append-oriented.
//   header:  u64 magic | u32 version
//   record:  u32 tag | u64 payload bytes | u32 crc32(payload) | payload
// Each record is written with one write(2) and (per the group-commit
// policy) fsync'd, so after SIGKILL the file is a valid prefix of the
// record stream plus at most one torn tail record — which the CRC framing
// detects and replay discards (serve/recovery.hpp).
//
// Payloads are binary: doubles are stored as raw IEEE-754 bit patterns,
// so a PointResult replayed from the journal formats to the byte-identical
// CSV/JSON the uninterrupted run produced — the property the crash harness
// (hemo_chaos --serve-crash) diffs for.
//
// Durability cost is configurable: group_commit = 1 fsyncs every record
// (strict WAL); larger windows batch records per fsync, trading the last
// few completions for throughput (bench_serve tables the difference).
// Losing a tail of *point* records is safe — points are pure functions of
// their key, so recovery simply re-executes them bit-identically.

#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/campaign.hpp"
#include "serve/admission.hpp"

namespace hemo::serve {

/// Unrecoverable journal failure: the file cannot be opened, written, or
/// synced.  Torn/corrupt *records* are not errors — replay stops at them.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kJournalMagic = 0x4c41574f4d4548ull;  // "HEMOWAL"
// Bumped whenever a payload layout changes (v3: point records end at the
// prediction).  Recovery reads exactly this version — a version bump is a
// clean break, not a compatibility layer.
inline constexpr std::uint32_t kJournalVersion = 3;

enum class WalTag : std::uint32_t {
  kTenantConfig = 1,   // a configure_tenant that took effect
  kAdmitted = 2,       // a request passed admission (before its accepted event)
  kPoint = 3,          // one point's result delivered (before its point event)
  kDone = 4,           // a request reached a terminal status
  kCleanShutdown = 5,  // the server drained and exited on purpose
};

// ---------------------------------------------------------------------------
// Payload (de)serialization.
// ---------------------------------------------------------------------------

/// Append-only binary encoder for journal payloads (little-endian PODs,
/// length-prefixed strings, doubles as raw bit patterns).
class WalBuffer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size());
  }

  const std::vector<char>& bytes() const { return bytes_; }

 private:
  void raw(const void* data, std::size_t size) {
    const char* p = static_cast<const char*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  std::vector<char> bytes_;
};

/// Bounds-checked decoder over one record's payload; throws JournalError
/// on underflow (a CRC-valid record with a short payload is corruption).
class WalCursor {
 public:
  WalCursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return pod<std::uint8_t>(); }
  std::uint32_t u32() { return pod<std::uint32_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }
  std::int32_t i32() { return pod<std::int32_t>(); }
  std::int64_t i64() { return pod<std::int64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (size_ - pos_ < n) throw JournalError("journal payload underflow");
    std::string out(data_ + pos_, n);
    pos_ += n;
    return out;
  }
  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  template <class T>
  T pod() {
    if (size_ - pos_ < sizeof(T))
      throw JournalError("journal payload underflow");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// How a journaled request ended.
enum class WalDoneStatus : std::uint8_t {
  kCompleted = 0,         // every point delivered
  kDeadlineExceeded = 1,  // expired; undelivered points were cancelled
};

// Typed payload encoders/decoders, shared by the Server (append side) and
// the recovery replayer.  Decoders throw JournalError on malformed bytes.
void wal_encode_tenant(WalBuffer* out, const std::string& tenant,
                       const TenantConfig& config);
void wal_decode_tenant(WalCursor* in, std::string* tenant,
                       TenantConfig* config);

void wal_encode_admitted(WalBuffer* out, std::uint64_t request_id,
                         const std::string& tenant, const std::string& name,
                         const std::vector<rt::SeriesSpec>& series);
void wal_decode_admitted(WalCursor* in, std::uint64_t* request_id,
                         std::string* tenant, std::string* name,
                         std::vector<rt::SeriesSpec>* series);

void wal_encode_point(WalBuffer* out, std::uint64_t request_id,
                      std::uint32_t series_index, std::uint32_t point_index,
                      const rt::PointResult& result);
void wal_decode_point(WalCursor* in, std::uint64_t* request_id,
                      std::uint32_t* series_index, std::uint32_t* point_index,
                      rt::PointResult* result);

void wal_encode_done(WalBuffer* out, std::uint64_t request_id,
                     WalDoneStatus status, std::uint64_t failed);
void wal_decode_done(WalCursor* in, std::uint64_t* request_id,
                     WalDoneStatus* status, std::uint64_t* failed);

// ---------------------------------------------------------------------------
// The journal itself.
// ---------------------------------------------------------------------------

struct JournalOptions {
  std::string path;
  /// Records per fsync.  1 = fsync after every append (strict WAL);
  /// N > 1 batches: the sync happens on every Nth append and on sync().
  std::size_t group_commit = 1;
  /// Resume point: byte offset of the valid prefix found by replay
  /// (RecoveredState::valid_bytes).  The file is truncated here before
  /// appending, discarding a torn tail record.  Required (and > 0) when
  /// the file already has content: opening a non-empty journal without a
  /// replayed resume offset throws, so stale logs are never silently
  /// overwritten or blindly appended to.
  std::uint64_t resume_offset = 0;
  /// Crash-injection hook for the hemo_chaos --serve-crash harness: after
  /// the Nth record has been appended AND fsynced, the process _exit()s
  /// immediately — no destructors, no flushes, a faithful SIGKILL at a
  /// seeded journal offset.  0 = off.
  std::uint64_t crash_after_records = 0;
};

class Journal {
 public:
  /// Opens (creating or resuming) the journal file.  Throws JournalError
  /// when the file cannot be opened/truncated, when an existing file's
  /// header is foreign, or when a non-empty file is opened without a
  /// resume offset.
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record (single write(2)), fsyncing per the group-commit
  /// policy.  Thread-safe.  Throws JournalError on a failed write/sync —
  /// a full disk must surface, not silently drop durability.
  void append(WalTag tag, const WalBuffer& payload);

  /// Forces an fsync of everything appended so far.
  void sync();

  std::uint64_t appended() const;  // records appended this process
  std::uint64_t unsynced() const;  // appended since the last fsync
  // immutable after construction: journal options are fixed at open
  const std::string& path() const { return options_.path; }

 private:
  JournalOptions options_;
  int fd_ = -1;
  mutable std::mutex mu_;
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_ = 0;
};

}  // namespace hemo::serve
