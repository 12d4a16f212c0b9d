#include "serve/recovery.hpp"

#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "io/blob.hpp"

namespace hemo::serve {

namespace {

struct RawJournal {
  std::string bytes;
  bool exists = false;
};

RawJournal slurp(const std::string& path) {
  RawJournal raw;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return raw;  // missing file: empty state (first boot)
  raw.exists = true;
  raw.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  return raw;
}

template <class T>
bool peek_pod(const std::string& bytes, std::size_t offset, T* out) {
  if (offset > bytes.size() || bytes.size() - offset < sizeof(T)) return false;
  std::memcpy(out, bytes.data() + offset, sizeof(T));
  return true;
}

}  // namespace

RecoveredState replay_journal(const std::string& path) {
  RecoveredState state;
  const RawJournal raw = slurp(path);
  if (!raw.exists) return state;

  constexpr std::size_t kHeaderBytes = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  if (!peek_pod(raw.bytes, 0, &magic) || magic != kJournalMagic)
    throw JournalError("journal '" + path + "' has the wrong magic number");
  // Exact-version match: each bump changed the point payload's layout, so
  // another version's point records would mis-decode rather than merely
  // miss fields.  Refusing loudly beats replaying garbage.
  if (!peek_pod(raw.bytes, sizeof magic, &version) ||
      version != kJournalVersion)
    throw JournalError("journal '" + path + "' has unsupported version " +
                       std::to_string(version));
  state.valid_bytes = kHeaderBytes;

  std::unordered_map<std::uint64_t, std::size_t> request_index;
  // (request_id << 32 | series << 16 | point) would overflow nothing here,
  // but a string key is unambiguous and this is a cold path.
  std::unordered_set<std::string> seen_points;

  std::size_t offset = kHeaderBytes;
  while (offset < raw.bytes.size()) {
    const std::size_t record_start = offset;
    std::uint32_t tag = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    if (!peek_pod(raw.bytes, offset, &tag) ||
        !peek_pod(raw.bytes, offset + sizeof tag, &bytes) ||
        !peek_pod(raw.bytes, offset + sizeof tag + sizeof bytes, &crc)) {
      state.truncated_reason = "torn record header at byte " +
                               std::to_string(record_start);
      break;
    }
    const std::size_t payload_at = offset + sizeof tag + sizeof bytes + sizeof crc;
    if (bytes > raw.bytes.size() - payload_at) {
      state.truncated_reason = "torn record payload at byte " +
                               std::to_string(record_start);
      break;
    }
    const char* payload = raw.bytes.data() + payload_at;
    if (io::crc32(payload, static_cast<std::size_t>(bytes)) != crc) {
      state.truncated_reason = "CRC mismatch at byte " +
                               std::to_string(record_start);
      break;
    }

    WalCursor cursor(payload, static_cast<std::size_t>(bytes));
    try {
      switch (static_cast<WalTag>(tag)) {
        case WalTag::kTenantConfig: {
          std::string tenant;
          TenantConfig config;
          wal_decode_tenant(&cursor, &tenant, &config);
          state.tenants.emplace_back(std::move(tenant), config);
          break;
        }
        case WalTag::kAdmitted: {
          RecoveredRequest request;
          wal_decode_admitted(&cursor, &request.id, &request.tenant,
                              &request.name, &request.series);
          if (request_index.count(request.id)) break;  // duplicate: ignore
          request_index[request.id] = state.requests.size();
          state.requests.push_back(std::move(request));
          break;
        }
        case WalTag::kPoint: {
          RecoveredPoint point;
          std::uint64_t request_id = 0;
          wal_decode_point(&cursor, &request_id, &point.series_index,
                           &point.point_index, &point.result);
          const auto it = request_index.find(request_id);
          if (it == request_index.end()) break;  // unknown request: ignore
          const std::string key = std::to_string(request_id) + "/" +
                                  std::to_string(point.series_index) + "/" +
                                  std::to_string(point.point_index);
          if (!seen_points.insert(key).second) break;  // duplicate: ignore
          state.requests[it->second].completed.push_back(std::move(point));
          break;
        }
        case WalTag::kDone: {
          std::uint64_t request_id = 0;
          WalDoneStatus status = WalDoneStatus::kCompleted;
          std::uint64_t failed = 0;
          wal_decode_done(&cursor, &request_id, &status, &failed);
          const auto it = request_index.find(request_id);
          if (it == request_index.end()) break;
          RecoveredRequest& request = state.requests[it->second];
          request.done = true;
          request.status = status;
          request.failed = failed;
          break;
        }
        case WalTag::kCleanShutdown:
          state.clean_shutdown = true;
          break;
        default:
          // Unknown tag from a newer same-major writer: skip the record
          // (it passed its CRC, so the framing is trustworthy).
          break;
      }
    } catch (const JournalError& e) {
      // CRC-valid but semantically malformed payload: stop here and let
      // the resume truncate it — the prefix before it is still good.
      state.truncated_reason = std::string(e.what()) + " at byte " +
                               std::to_string(record_start);
      break;
    }

    offset = payload_at + static_cast<std::size_t>(bytes);
    state.valid_bytes = offset;
    ++state.records;
  }

  return state;
}

}  // namespace hemo::serve
