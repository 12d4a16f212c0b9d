#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "io/blob.hpp"

namespace hemo::serve {

namespace {

std::string errno_text() { return std::string(std::strerror(errno)); }

void wal_encode_series(WalBuffer* out, const rt::SeriesSpec& series) {
  out->i32(static_cast<std::int32_t>(series.system));
  out->i32(static_cast<std::int32_t>(series.model));
  out->i32(static_cast<std::int32_t>(series.app));
  out->i32(static_cast<std::int32_t>(series.workload));
}

// Bytes one series occupies on the wire (four i32 enums).
constexpr std::size_t kWalSeriesBytes = 4 * sizeof(std::int32_t);

rt::SeriesSpec wal_decode_series(WalCursor* in) {
  rt::SeriesSpec series;
  series.system = static_cast<sys::SystemId>(in->i32());
  series.model = static_cast<hal::Model>(in->i32());
  series.app = static_cast<sim::App>(in->i32());
  series.workload = static_cast<rt::WorkloadKind>(in->i32());
  return series;
}

void wal_encode_failure(WalBuffer* out, const rt::JobFailure& failure) {
  out->str(failure.job);
  out->i32(failure.attempts);
  out->u8(failure.timed_out ? 1 : 0);
  out->u8(failure.cancelled ? 1 : 0);
  out->str(failure.message);
}

rt::JobFailure wal_decode_failure(WalCursor* in) {
  rt::JobFailure failure;
  failure.job = in->str();
  failure.attempts = in->i32();
  failure.timed_out = in->u8() != 0;
  failure.cancelled = in->u8() != 0;
  failure.message = in->str();
  return failure;
}

void wal_encode_result(WalBuffer* out, const rt::PointResult& result) {
  out->i32(result.schedule.devices);
  out->i32(result.schedule.size_multiplier);
  out->i32(result.attempts);
  out->u8(result.failure.has_value() ? 1 : 0);
  if (result.failure) wal_encode_failure(out, *result.failure);
  out->i32(result.sim.devices);
  out->i32(result.sim.size_multiplier);
  out->f64(result.sim.total_points);
  out->f64(result.sim.iteration_s);
  out->f64(result.sim.mflups);
  out->f64(result.sim.worst_rank.streamcollide_s);
  out->f64(result.sim.worst_rank.comm_s);
  out->f64(result.sim.worst_rank.h2d_s);
  out->f64(result.sim.worst_rank.d2h_s);
  out->f64(result.prediction.t_streamcollide_s);
  out->f64(result.prediction.t_comm_s);
  out->f64(result.prediction.t_total_s);
  out->f64(result.prediction.mflups);
  out->f64(result.prediction.surface_points);
  out->i32(result.prediction.comm_events);
}

rt::PointResult wal_decode_result(WalCursor* in) {
  rt::PointResult result;
  result.schedule.devices = in->i32();
  result.schedule.size_multiplier = in->i32();
  result.attempts = in->i32();
  if (in->u8() != 0) result.failure = wal_decode_failure(in);
  result.sim.devices = in->i32();
  result.sim.size_multiplier = in->i32();
  result.sim.total_points = in->f64();
  result.sim.iteration_s = in->f64();
  result.sim.mflups = in->f64();
  result.sim.worst_rank.streamcollide_s = in->f64();
  result.sim.worst_rank.comm_s = in->f64();
  result.sim.worst_rank.h2d_s = in->f64();
  result.sim.worst_rank.d2h_s = in->f64();
  result.prediction.t_streamcollide_s = in->f64();
  result.prediction.t_comm_s = in->f64();
  result.prediction.t_total_s = in->f64();
  result.prediction.mflups = in->f64();
  result.prediction.surface_points = in->f64();
  result.prediction.comm_events = in->i32();
  return result;
}

}  // namespace

void wal_encode_tenant(WalBuffer* out, const std::string& tenant,
                       const TenantConfig& config) {
  out->str(tenant);
  out->f64(config.weight);
  out->f64(config.budget);
  out->i32(config.max_pending_points);
}

void wal_decode_tenant(WalCursor* in, std::string* tenant,
                       TenantConfig* config) {
  *tenant = in->str();
  config->weight = in->f64();
  config->budget = in->f64();
  config->max_pending_points = in->i32();
}

void wal_encode_admitted(WalBuffer* out, std::uint64_t request_id,
                         const std::string& tenant, const std::string& name,
                         const std::vector<rt::SeriesSpec>& series) {
  out->u64(request_id);
  out->str(tenant);
  out->str(name);
  out->u32(static_cast<std::uint32_t>(series.size()));
  for (const rt::SeriesSpec& s : series) wal_encode_series(out, s);
}

void wal_decode_admitted(WalCursor* in, std::uint64_t* request_id,
                         std::string* tenant, std::string* name,
                         std::vector<rt::SeriesSpec>* series) {
  *request_id = in->u64();
  *tenant = in->str();
  *name = in->str();
  const std::uint32_t n = in->u32();
  // The count sizes an allocation, so it must fit the bytes that follow.
  if (n > in->remaining() / kWalSeriesBytes)
    throw JournalError("journal admitted record claims " + std::to_string(n) +
                       " series in " + std::to_string(in->remaining()) +
                       " payload bytes");
  series->clear();
  series->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    series->push_back(wal_decode_series(in));
}

void wal_encode_point(WalBuffer* out, std::uint64_t request_id,
                      std::uint32_t series_index, std::uint32_t point_index,
                      const rt::PointResult& result) {
  out->u64(request_id);
  out->u32(series_index);
  out->u32(point_index);
  wal_encode_result(out, result);
}

void wal_decode_point(WalCursor* in, std::uint64_t* request_id,
                      std::uint32_t* series_index, std::uint32_t* point_index,
                      rt::PointResult* result) {
  *request_id = in->u64();
  *series_index = in->u32();
  *point_index = in->u32();
  *result = wal_decode_result(in);
}

void wal_encode_done(WalBuffer* out, std::uint64_t request_id,
                     WalDoneStatus status, std::uint64_t failed) {
  out->u64(request_id);
  out->u8(static_cast<std::uint8_t>(status));
  out->u64(failed);
}

void wal_decode_done(WalCursor* in, std::uint64_t* request_id,
                     WalDoneStatus* status, std::uint64_t* failed) {
  *request_id = in->u64();
  const std::uint8_t raw = in->u8();
  if (raw > static_cast<std::uint8_t>(WalDoneStatus::kDeadlineExceeded))
    throw JournalError("journal done record has unknown status " +
                       std::to_string(raw));
  *status = static_cast<WalDoneStatus>(raw);
  *failed = in->u64();
}

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  fd_ = ::open(options_.path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0)
    throw JournalError("cannot open journal '" + options_.path +
                       "': " + errno_text());
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw JournalError("cannot stat journal '" + options_.path +
                       "': " + errno_text());
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size == 0) {
    // Fresh journal: write and sync the header before any record can land.
    WalBuffer header;
    header.u64(kJournalMagic);
    header.u32(kJournalVersion);
    const std::vector<char>& bytes = header.bytes();
    if (::write(fd_, bytes.data(), bytes.size()) !=
            static_cast<ssize_t>(bytes.size()) ||
        ::fsync(fd_) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw JournalError("cannot initialize journal '" + options_.path +
                         "': " + errno_text());
    }
    return;
  }
  if (options_.resume_offset == 0) {
    ::close(fd_);
    fd_ = -1;
    throw JournalError("journal '" + options_.path +
                       "' already has content; replay it first and resume "
                       "at RecoveredState::valid_bytes");
  }
  if (options_.resume_offset > size) {
    ::close(fd_);
    fd_ = -1;
    throw JournalError("journal '" + options_.path + "' resume offset " +
                       std::to_string(options_.resume_offset) +
                       " is past the end of the file");
  }
  // Drop the torn tail (if any) found by replay, then append after the
  // valid prefix.
  if (::ftruncate(fd_, static_cast<off_t>(options_.resume_offset)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0 || ::fsync(fd_) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw JournalError("cannot resume journal '" + options_.path +
                       "': " + errno_text());
  }
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void Journal::append(WalTag tag, const WalBuffer& payload) {
  // Frame the whole record in one buffer so it reaches the kernel with a
  // single write(2): a crash leaves either the full record or a torn tail
  // the replayer's CRC check discards — never an interleaved mess.
  WalBuffer frame;
  frame.u32(static_cast<std::uint32_t>(tag));
  frame.u64(static_cast<std::uint64_t>(payload.bytes().size()));
  frame.u32(io::crc32(payload.bytes().data(), payload.bytes().size()));
  const std::vector<char>& body = payload.bytes();
  std::vector<char> record = frame.bytes();
  record.insert(record.end(), body.begin(), body.end());

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) throw JournalError("journal '" + options_.path + "' is closed");
  if (::write(fd_, record.data(), record.size()) !=
      static_cast<ssize_t>(record.size()))
    throw JournalError("write failed on journal '" + options_.path +
                       "': " + errno_text());
  ++appended_;
  ++unsynced_;
  if (options_.group_commit <= 1 || unsynced_ >= options_.group_commit) {
    if (::fsync(fd_) != 0)
      throw JournalError("fsync failed on journal '" + options_.path +
                         "': " + errno_text());
    unsynced_ = 0;
  }
  if (options_.crash_after_records > 0 &&
      appended_ >= options_.crash_after_records) {
    // Crash injection: die as abruptly as SIGKILL would, right after this
    // record became (or did not become, under group commit) durable.
    if (unsynced_ > 0) {
      // Group-commit mode: the harness still wants a deterministic durable
      // prefix, so force the pending records down before dying.
      ::fsync(fd_);
    }
    ::_exit(137);
  }
}

void Journal::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (::fsync(fd_) != 0)
    throw JournalError("fsync failed on journal '" + options_.path +
                       "': " + errno_text());
  unsynced_ = 0;
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::uint64_t Journal::unsynced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unsynced_;
}

}  // namespace hemo::serve
