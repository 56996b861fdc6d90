#include "service/protocol.hpp"

#include <chrono>
#include <cstring>

#include "driver/payload.hpp"
#include "rsg/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PSA_SERVICE_HAS_SOCKETS 1
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define PSA_SERVICE_HAS_SOCKETS 0
#endif

namespace psa::service {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'A', 'R', 'P', 'C', '2', '\n'};
constexpr std::size_t kHeaderSize = 8 + 1 + 8 + 8;
// Version 3 dropped the engine thread count from the request body; an older
// peer's bodies are rejected as unsupported instead of misparsed.
constexpr std::uint32_t kBodyVersion = 3;

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void fail(std::string* error, std::string_view what) {
  if (error != nullptr) *error = std::string(what);
}

bool known_type(std::uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRequest:
    case MsgType::kBusy:
    case MsgType::kError:
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kUnitResult:
    case MsgType::kHeartbeat:
    case MsgType::kSummary:
      return true;
  }
  return false;  // includes the retired PSARPC1 batch response (2)
}

#if PSA_SERVICE_HAS_SOCKETS

using Clock = std::chrono::steady_clock;

/// Poll `fd` for `events` within the remaining deadline. 1 ready, 0 timeout,
/// -1 error.
int wait_ready(int fd, short events, Clock::time_point deadline,
               bool has_deadline) {
  while (true) {
    int wait_ms = -1;
    if (has_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return 0;
      wait_ms = static_cast<int>(left);
    }
    struct pollfd p {};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, wait_ms);
    if (r > 0) return 1;
    if (r == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

/// Flip `fd` to O_NONBLOCK for the duration of an I/O loop. Without this a
/// poll deadline is theater: a blocking stream-socket write() does not
/// return after the buffer fills — it blocks until the peer drains, so one
/// stalled peer would wedge the writer forever.
class ScopedNonblock {
 public:
  explicit ScopedNonblock(int fd)
      : fd_(fd), flags_(::fcntl(fd, F_GETFL, 0)) {
    if (flags_ >= 0 && (flags_ & O_NONBLOCK) == 0) {
      (void)::fcntl(fd_, F_SETFL, flags_ | O_NONBLOCK);
      restore_ = true;
    }
  }
  ~ScopedNonblock() {
    if (restore_) (void)::fcntl(fd_, F_SETFL, flags_);
  }
  ScopedNonblock(const ScopedNonblock&) = delete;
  ScopedNonblock& operator=(const ScopedNonblock&) = delete;

 private:
  int fd_;
  int flags_;
  bool restore_ = false;
};

bool write_all(int fd, std::string_view bytes, std::uint64_t timeout_ms,
               std::string* error) {
  const ScopedNonblock nonblock(fd);
  const bool has_deadline = timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const int ready = wait_ready(fd, POLLOUT, deadline, has_deadline);
    if (ready == 0) {
      fail(error, "send timeout");
      return false;
    }
    if (ready < 0) {
      fail(error, "send poll failed");
      return false;
    }
    // MSG_NOSIGNAL: a hung-up peer yields EPIPE here instead of a
    // process-wide SIGPIPE — the protocol layer must never require callers
    // to adjust their signal dispositions (service/client.hpp regression).
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    fail(error, "connection closed while sending");
    return false;
  }
  return true;
}

bool read_all(int fd, char* buf, std::size_t size, std::uint64_t timeout_ms,
              std::string* error) {
  const ScopedNonblock nonblock(fd);
  const bool has_deadline = timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t off = 0;
  while (off < size) {
    const int ready = wait_ready(fd, POLLIN, deadline, has_deadline);
    if (ready == 0) {
      fail(error, "receive timeout");
      return false;
    }
    if (ready < 0) {
      fail(error, "receive poll failed");
      return false;
    }
    const ssize_t n = ::read(fd, buf + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    fail(error, off == 0 ? "connection closed" : "connection reset mid-frame");
    return false;
  }
  return true;
}

#endif  // PSA_SERVICE_HAS_SOCKETS

void append_unit(rsg::ByteWriter& out, const driver::AnalysisUnit& unit) {
  out.str(unit.name);
  out.str(unit.function);
  out.str(unit.source);
  out.str(unit.source_path);
}

driver::AnalysisUnit read_unit(rsg::ByteReader& in) {
  driver::AnalysisUnit unit;
  unit.name = std::string(in.str("unit name"));
  unit.function = std::string(in.str("unit function"));
  unit.source = std::string(in.str("unit source"));
  unit.source_path = std::string(in.str("unit source path"));
  return unit;
}

void append_unit_report(rsg::ByteWriter& out,
                        const driver::UnitReport& report) {
  append_unit(out, report.unit);
  out.u8(static_cast<std::uint8_t>(report.outcome.kind));
  out.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(report.outcome.exit_code)));
  out.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(report.outcome.signal)));
  out.u32(static_cast<std::uint32_t>(report.outcome.attempts));
  out.u8(report.outcome.quarantined ? 1 : 0);
  out.u8(report.outcome.from_checkpoint ? 1 : 0);
  out.str(report.outcome.detail);
  if (report.payload && report.payload->interner) {
    out.u8(1);
    out.str(driver::serialize_unit_payload(*report.payload,
                                           *report.payload->interner));
  } else {
    out.u8(0);
  }
}

/// Decodes one unit report; the raw payload bytes (when present) are copied
/// into `payload_bytes` verbatim in addition to being deep-validated into
/// the report, so stream consumers can journal them without re-serializing.
driver::UnitReport read_unit_report(rsg::ByteReader& in,
                                    std::string* payload_bytes) {
  driver::UnitReport report;
  report.unit = read_unit(in);
  const std::uint8_t kind = in.u8("outcome kind");
  if (kind > static_cast<std::uint8_t>(driver::UnitOutcomeKind::kPartial)) {
    throw rsg::SnapshotError("outcome kind out of range");
  }
  report.outcome.kind = static_cast<driver::UnitOutcomeKind>(kind);
  report.outcome.exit_code = static_cast<int>(
      static_cast<std::int64_t>(in.u64("outcome exit code")));
  report.outcome.signal = static_cast<int>(
      static_cast<std::int64_t>(in.u64("outcome signal")));
  report.outcome.attempts = static_cast<int>(in.u32("outcome attempts"));
  report.outcome.quarantined = in.u8("outcome quarantined") != 0;
  report.outcome.from_checkpoint = in.u8("outcome from_checkpoint") != 0;
  report.outcome.detail = std::string(in.str("outcome detail"));
  if (in.u8("payload present") != 0) {
    // Second validation layer: the payload's own PSASNAP1 envelope and
    // bounds-checked records.
    const std::string_view bytes = in.str("payload bytes");
    report.payload = driver::deserialize_unit_payload(bytes);
    if (payload_bytes != nullptr) *payload_bytes = std::string(bytes);
  }
  return report;
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kRequest: return "request";
    case MsgType::kBusy: return "busy";
    case MsgType::kError: return "error";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kUnitResult: return "unit_result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kSummary: return "summary";
  }
  return "?";
}

std::string encode_frame(MsgType type, std::string_view body) {
  std::string frame;
  frame.reserve(kHeaderSize + body.size());
  frame.append(kMagic, sizeof kMagic);
  frame.push_back(static_cast<char>(type));
  put_u64(frame, body.size());
  put_u64(frame, rsg::snapshot_checksum(body));
  frame.append(body);
  return frame;
}

bool send_bytes(int fd, std::string_view bytes, std::uint64_t timeout_ms,
                std::string* error) {
#if PSA_SERVICE_HAS_SOCKETS
  return write_all(fd, bytes, timeout_ms, error);
#else
  (void)fd;
  (void)bytes;
  (void)timeout_ms;
  fail(error, "sockets unsupported on this platform");
  return false;
#endif
}

bool send_frame(int fd, MsgType type, std::string_view body,
                std::uint64_t timeout_ms, std::string* error) {
  return send_bytes(fd, encode_frame(type, body), timeout_ms, error);
}

bool recv_frame(int fd, Frame& out, std::uint64_t timeout_ms,
                std::string* error) {
#if PSA_SERVICE_HAS_SOCKETS
  char header[kHeaderSize];
  if (!read_all(fd, header, sizeof header, timeout_ms, error)) return false;
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    fail(error, "bad frame magic");
    return false;
  }
  const auto type = static_cast<std::uint8_t>(header[8]);
  if (!known_type(type)) {
    fail(error, "unknown frame type");
    return false;
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(header);
  const std::uint64_t size = get_u64(p + 9);
  const std::uint64_t checksum = get_u64(p + 17);
  if (size > kMaxFrameBody) {
    fail(error, "frame body exceeds cap");
    return false;
  }
  std::string body(static_cast<std::size_t>(size), '\0');
  if (size > 0 &&
      !read_all(fd, body.data(), body.size(), timeout_ms, error)) {
    return false;
  }
  if (rsg::snapshot_checksum(body) != checksum) {
    fail(error, "frame checksum mismatch");
    return false;
  }
  out.type = static_cast<MsgType>(type);
  out.body = std::move(body);
  return true;
#else
  (void)fd;
  (void)out;
  (void)timeout_ms;
  fail(error, "sockets unsupported on this platform");
  return false;
#endif
}

std::string encode_request(const ServiceRequest& request) {
  rsg::ByteWriter out;
  out.u32(kBodyVersion);
  out.u32(static_cast<std::uint32_t>(request.units.size()));
  for (const driver::AnalysisUnit& unit : request.units) {
    append_unit(out, unit);
  }
  out.u8(static_cast<std::uint8_t>(request.engine.level));
  out.u8(request.engine.enable_join ? 1 : 0);
  out.u8(request.engine.share_pruning ? 1 : 0);
  out.u64(request.engine.widen_threshold);
  out.u64(request.engine.max_rsgs_per_set);
  out.u64(request.engine.max_node_visits);
  out.u64(request.engine.memory_budget_bytes);
  out.u64(request.engine.deadline_ms);
  out.u8(static_cast<std::uint8_t>(request.engine.budget_policy));
  out.u8(request.check ? 1 : 0);
  out.u8(request.strict_frontend ? 1 : 0);
  out.u64(request.unit_timeout_ms);
  return out.take();
}

ServiceRequest decode_request(std::string_view body) {
  rsg::ByteReader in(body);
  if (in.u32("request version") != kBodyVersion) {
    throw rsg::SnapshotError("unsupported request version");
  }
  ServiceRequest request;
  const std::uint32_t n = in.count("unit count", 4);
  request.units.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) request.units.push_back(read_unit(in));
  const std::uint8_t level = in.u8("engine level");
  if (level < 1 || level > 3) {
    throw rsg::SnapshotError("engine level out of range");
  }
  request.engine.level = static_cast<rsg::AnalysisLevel>(level);
  request.engine.enable_join = in.u8("enable_join") != 0;
  request.engine.share_pruning = in.u8("share_pruning") != 0;
  request.engine.widen_threshold =
      static_cast<std::size_t>(in.u64("widen_threshold"));
  request.engine.max_rsgs_per_set =
      static_cast<std::size_t>(in.u64("max_rsgs_per_set"));
  request.engine.max_node_visits = in.u64("max_node_visits");
  request.engine.memory_budget_bytes =
      static_cast<std::size_t>(in.u64("memory_budget_bytes"));
  request.engine.deadline_ms = in.u64("deadline_ms");
  const std::uint8_t policy = in.u8("budget_policy");
  if (policy > static_cast<std::uint8_t>(analysis::BudgetPolicy::kHardFail)) {
    throw rsg::SnapshotError("budget policy out of range");
  }
  request.engine.budget_policy = static_cast<analysis::BudgetPolicy>(policy);
  request.check = in.u8("check") != 0;
  request.strict_frontend = in.u8("strict_frontend") != 0;
  request.unit_timeout_ms = in.u64("unit_timeout_ms");
  in.expect_end("request body");
  return request;
}

std::string encode_unit_result(std::uint64_t seq, std::uint32_t unit_index,
                               const driver::UnitReport& report) {
  rsg::ByteWriter out;
  out.u32(kBodyVersion);
  out.u64(seq);
  out.u32(unit_index);
  append_unit_report(out, report);
  return out.take();
}

UnitResultFrame decode_unit_result(std::string_view body) {
  rsg::ByteReader in(body);
  if (in.u32("unit result version") != kBodyVersion) {
    throw rsg::SnapshotError("unsupported unit result version");
  }
  UnitResultFrame frame;
  frame.seq = in.u64("unit result seq");
  frame.unit_index = in.u32("unit result index");
  frame.report = read_unit_report(in, &frame.payload_bytes);
  in.expect_end("unit result body");
  return frame;
}

std::string encode_heartbeat(const HeartbeatFrame& frame) {
  rsg::ByteWriter out;
  out.u32(kBodyVersion);
  out.u64(frame.seq);
  out.u64(frame.units_done);
  out.u64(frame.units_total);
  return out.take();
}

HeartbeatFrame decode_heartbeat(std::string_view body) {
  rsg::ByteReader in(body);
  if (in.u32("heartbeat version") != kBodyVersion) {
    throw rsg::SnapshotError("unsupported heartbeat version");
  }
  HeartbeatFrame frame;
  frame.seq = in.u64("heartbeat seq");
  frame.units_done = in.u64("heartbeat units_done");
  frame.units_total = in.u64("heartbeat units_total");
  in.expect_end("heartbeat body");
  return frame;
}

std::string encode_summary(const SummaryFrame& frame) {
  rsg::ByteWriter out;
  out.u32(kBodyVersion);
  out.u64(frame.seq);
  out.u8(frame.isolated ? 1 : 0);
  out.u64(frame.units_total);
  out.u64(frame.units_streamed);
  return out.take();
}

SummaryFrame decode_summary(std::string_view body) {
  rsg::ByteReader in(body);
  if (in.u32("summary version") != kBodyVersion) {
    throw rsg::SnapshotError("unsupported summary version");
  }
  SummaryFrame frame;
  frame.seq = in.u64("summary seq");
  frame.isolated = in.u8("summary isolated") != 0;
  frame.units_total = in.u64("summary units_total");
  frame.units_streamed = in.u64("summary units_streamed");
  in.expect_end("summary body");
  return frame;
}

}  // namespace psa::service
