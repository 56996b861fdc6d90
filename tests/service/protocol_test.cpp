// The PSARPC2 wire protocol: frame round-trips over a real socketpair,
// checksum/magic/size/type validation on receive, and the request/stream
// body codecs — including rejection of every malformed-field class the
// decoders guard against (the daemon and client feed them bytes straight
// off the network), the retired PSARPC1 frame type, and sequence-number
// plumbing across unit_result / heartbeat / summary frames.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rsg/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#define PSA_TEST_HAS_SOCKETPAIR 1
#else
#define PSA_TEST_HAS_SOCKETPAIR 0
#endif

namespace psa::service {
namespace {

#if PSA_TEST_HAS_SOCKETPAIR

/// A connected local stream pair; frames written on one end are read on the
/// other — the transport the daemon and client actually use, minus the
/// unix-socket filesystem plumbing.
class FramePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FramePairTest, FrameRoundTripsAllTypes) {
  for (const MsgType type :
       {MsgType::kRequest, MsgType::kBusy, MsgType::kError, MsgType::kPing,
        MsgType::kPong, MsgType::kUnitResult, MsgType::kHeartbeat,
        MsgType::kSummary}) {
    const std::string body = "body-of-" + std::string(to_string(type));
    std::string error;
    ASSERT_TRUE(send_frame(fds_[0], type, body, 1000, &error)) << error;
    Frame frame;
    ASSERT_TRUE(recv_frame(fds_[1], frame, 1000, &error)) << error;
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.body, body);
  }
}

TEST_F(FramePairTest, EmptyAndLargeBodiesRoundTrip) {
  std::string error;
  ASSERT_TRUE(send_frame(fds_[0], MsgType::kPing, "", 1000, &error)) << error;
  Frame frame;
  ASSERT_TRUE(recv_frame(fds_[1], frame, 1000, &error)) << error;
  EXPECT_TRUE(frame.body.empty());

  // Larger than any socket buffer: exercises the partial-write/read loops.
  // Needs a concurrent reader — the writer fills the kernel buffer and must
  // wait for the peer to drain it (exactly the daemon/client situation).
  const std::string big(4u << 20, 'x');
  std::thread reader([&] {
    std::string recv_error;
    EXPECT_TRUE(recv_frame(fds_[1], frame, 10000, &recv_error)) << recv_error;
  });
  EXPECT_TRUE(send_frame(fds_[0], MsgType::kUnitResult, big, 10000, &error))
      << error;
  reader.join();
  EXPECT_EQ(frame.body, big);
}

TEST_F(FramePairTest, StalledPeerHitsTheSendTimeoutInsteadOfHanging) {
  // Nobody drains the other end: the kernel buffer fills and the send must
  // fail at the deadline — never block forever on a wedged peer.
  const std::string big(4u << 20, 'x');
  std::string error;
  EXPECT_FALSE(send_frame(fds_[0], MsgType::kUnitResult, big, 100, &error));
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
}

TEST_F(FramePairTest, SendToHungUpPeerFailsWithoutSigpipe) {
  // The peer is gone. Without MSG_NOSIGNAL in the protocol layer this send
  // would raise a process-wide SIGPIPE (default: kill the process) unless
  // the CALLER had changed the disposition — the contract says the caller
  // never has to. Surviving this test at the default disposition IS the
  // assertion.
  ::close(fds_[1]);
  fds_[1] = -1;
  const std::string big(1u << 20, 'x');
  std::string error;
  EXPECT_FALSE(send_frame(fds_[0], MsgType::kUnitResult, big, 1000, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FramePairTest, CorruptedBodyFailsTheChecksum) {
  std::string error;
  ASSERT_TRUE(send_frame(fds_[0], MsgType::kUnitResult, "payload bytes", 1000,
                         &error));
  // Read the raw frame, flip one body bit, and replay it.
  char raw[64];
  const ssize_t n = ::recv(fds_[1], raw, sizeof(raw), 0);
  ASSERT_GT(n, 25);
  raw[n - 1] ^= 0x01;
  ASSERT_EQ(::send(fds_[0], raw, static_cast<size_t>(n), 0), n);
  Frame frame;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(FramePairTest, BadMagicIsRejected) {
  const std::string junk = "HTTP/1.1 400 Bad Request\r\n\r\n";
  ASSERT_EQ(::send(fds_[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  Frame frame;
  std::string error;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(FramePairTest, Psarpc1MagicIsRejected) {
  // A v1 peer (old binary, same socket path) must be refused at the magic,
  // not misparsed: the header layout matches but the protocols do not.
  std::string header = "PSARPC1\n";
  header.push_back(static_cast<char>(MsgType::kRequest));
  header.append(16, '\0');  // zero size, zero checksum
  ASSERT_EQ(::send(fds_[0], header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  Frame frame;
  std::string error;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(FramePairTest, OversizedLengthIsRejectedBeforeAllocation) {
  // Hand-build a header claiming a body far beyond kMaxFrameBody; recv_frame
  // must reject on the length field alone (no 2^60-byte allocation).
  std::string header = "PSARPC2\n";
  header.push_back(static_cast<char>(MsgType::kUnitResult));
  std::uint64_t size = 1ull << 60;
  for (int i = 0; i < 8; ++i) header.push_back(static_cast<char>(size >> (8 * i)));
  for (int i = 0; i < 8; ++i) header.push_back('\0');  // checksum, irrelevant
  ASSERT_EQ(::send(fds_[0], header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  Frame frame;
  std::string error;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("body"), std::string::npos) << error;
}

TEST_F(FramePairTest, TruncatedFrameReportsEof) {
  std::string error;
  ASSERT_TRUE(send_frame(fds_[0], MsgType::kUnitResult, "cut short", 1000,
                         &error));
  // Steal the full frame, replay only a prefix, then close the writer — the
  // reader must see a clean failure, not a hang or a garbage frame. This is
  // exactly what the streamtear fault injection does to a live client.
  char raw[64];
  const ssize_t n = ::recv(fds_[1], raw, sizeof(raw), 0);
  ASSERT_GT(n, 25);
  ASSERT_EQ(::send(fds_[0], raw, static_cast<size_t>(n - 4), 0), n - 4);
  ::close(fds_[0]);
  fds_[0] = -1;
  Frame frame;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FramePairTest, HalfAFrameFromEncodeFrameTearsCleanly) {
  // encode_frame + send_bytes is how the daemon streams; sending a strict
  // prefix and hanging up is the daemon's streamtear fault point. The
  // reader's failure must be clean and diagnosable.
  const std::string bytes = encode_frame(MsgType::kUnitResult, "torn body");
  std::string error;
  ASSERT_TRUE(send_bytes(fds_[0],
                         std::string_view(bytes).substr(0, bytes.size() / 2),
                         1000, &error))
      << error;
  ::close(fds_[0]);
  fds_[0] = -1;
  Frame frame;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FramePairTest, RecvTimesOutOnSilence) {
  Frame frame;
  std::string error;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 50, &error));
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
}

TEST_F(FramePairTest, UnknownMessageTypeIsRejected) {
  std::string error;
  ASSERT_TRUE(send_frame(fds_[0], MsgType::kPing, "", 1000, &error));
  char raw[32];
  const ssize_t n = ::recv(fds_[1], raw, sizeof(raw), 0);
  ASSERT_EQ(n, 25);
  raw[8] = 99;  // type byte out of the MsgType range
  ASSERT_EQ(::send(fds_[0], raw, static_cast<size_t>(n), 0), n);
  Frame frame;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST_F(FramePairTest, RetiredResponseTypeIsRejected) {
  // Type 2 was the PSARPC1 batch response. Its number is a permanent gap in
  // PSARPC2 — a frame claiming it must be rejected, not decoded as anything.
  std::string error;
  ASSERT_TRUE(send_frame(fds_[0], MsgType::kPing, "", 1000, &error));
  char raw[32];
  const ssize_t n = ::recv(fds_[1], raw, sizeof(raw), 0);
  ASSERT_EQ(n, 25);
  raw[8] = 2;  // the retired type sits INSIDE the numeric range
  ASSERT_EQ(::send(fds_[0], raw, static_cast<size_t>(n), 0), n);
  Frame frame;
  EXPECT_FALSE(recv_frame(fds_[1], frame, 1000, &error));
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

#endif  // PSA_TEST_HAS_SOCKETPAIR

// ---------------------------------------------------------------------------
// Body codecs (no sockets involved).

constexpr std::string_view kSource =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  p->next = NULL;\n"
    "}\n";

ServiceRequest sample_request() {
  ServiceRequest request;
  driver::AnalysisUnit unit;
  unit.name = "a.c";
  unit.function = "main";
  unit.source = std::string(kSource);
  unit.source_path = "/src/a.c";
  request.units.push_back(unit);
  unit.name = "b.c";
  unit.source_path.clear();
  request.units.push_back(unit);
  request.engine.level = rsg::AnalysisLevel::kL2;
  request.engine.widen_threshold = 12;
  request.engine.deadline_ms = 500;
  request.check = true;
  request.strict_frontend = true;
  request.unit_timeout_ms = 9000;
  return request;
}

/// One real analyzed unit report (payload included) for stream-codec tests.
driver::UnitReport sample_ok_report() {
  std::vector<driver::AnalysisUnit> units;
  driver::AnalysisUnit a;
  a.name = "a.c";
  a.source = std::string(kSource);
  units.push_back(a);
  driver::BatchOptions options;
  options.isolate = false;
  options.check = true;
  driver::BatchResult batch = driver::run_batch(units, options);
  return std::move(batch.units[0]);
}

TEST(RequestCodec, RoundTripsEveryField) {
  const ServiceRequest request = sample_request();
  const ServiceRequest decoded = decode_request(encode_request(request));
  ASSERT_EQ(decoded.units.size(), 2u);
  EXPECT_EQ(decoded.units[0].name, "a.c");
  EXPECT_EQ(decoded.units[0].function, "main");
  EXPECT_EQ(decoded.units[0].source, kSource);
  EXPECT_EQ(decoded.units[0].source_path, "/src/a.c");
  EXPECT_EQ(decoded.units[1].name, "b.c");
  EXPECT_TRUE(decoded.units[1].source_path.empty());
  EXPECT_EQ(decoded.engine.level, rsg::AnalysisLevel::kL2);
  EXPECT_EQ(decoded.engine.widen_threshold, 12u);
  EXPECT_EQ(decoded.engine.deadline_ms, 500u);
  EXPECT_TRUE(decoded.check);
  EXPECT_TRUE(decoded.strict_frontend);
  EXPECT_EQ(decoded.unit_timeout_ms, 9000u);
}

TEST(RequestCodec, RejectsGarbageAndTruncation) {
  EXPECT_THROW((void)decode_request("not a request body"),
               rsg::SnapshotError);
  const std::string body = encode_request(sample_request());
  EXPECT_THROW((void)decode_request(std::string_view(body).substr(
                   0, body.size() / 2)),
               rsg::SnapshotError);
  EXPECT_THROW((void)decode_request(body + "trailing junk"),
               rsg::SnapshotError);
  // A version-2 body (it still carried the engine thread count) from an
  // older peer is rejected by its version word, never misparsed.
  std::string v2 = body;
  v2.replace(0, 4, std::string("\x02\x00\x00\x00", 4));
  try {
    (void)decode_request(v2);
    ADD_FAILURE() << "a version-2 request body was accepted";
  } catch (const rsg::SnapshotError& e) {
    EXPECT_STREQ(e.what(),
                 rsg::SnapshotError("unsupported request version").what());
  }
}

TEST(UnitResultCodec, RoundTripsAReportWithPayload) {
  const driver::UnitReport original = sample_ok_report();
  ASSERT_TRUE(original.payload.has_value());

  const UnitResultFrame decoded =
      decode_unit_result(encode_unit_result(7, 3, original));
  EXPECT_EQ(decoded.seq, 7u);
  EXPECT_EQ(decoded.unit_index, 3u);
  EXPECT_EQ(decoded.report.unit.name, "a.c");
  EXPECT_EQ(decoded.report.outcome.kind, driver::UnitOutcomeKind::kOk);
  ASSERT_TRUE(decoded.report.payload.has_value());
  EXPECT_EQ(decoded.report.payload->unit_name, "a.c");
  EXPECT_EQ(decoded.report.payload->findings.size(),
            original.payload->findings.size());
  // The raw payload bytes travel alongside the decoded payload, verbatim —
  // the client journals them into its checkpoint without re-serializing.
  ASSERT_FALSE(decoded.payload_bytes.empty());
  const driver::UnitPayload rehydrated =
      driver::deserialize_unit_payload(decoded.payload_bytes);
  EXPECT_EQ(rehydrated.unit_name, "a.c");

  // Losslessness where it matters: a batch assembled from streamed frames
  // renders the identical report.
  driver::BatchResult direct;
  direct.units.push_back(original);
  driver::BatchResult streamed;
  streamed.units.push_back(decoded.report);
  EXPECT_EQ(driver::format_batch_report(streamed),
            driver::format_batch_report(direct));
}

TEST(UnitResultCodec, RoundTripsAPayloadFreeFailure) {
  driver::UnitReport report;
  report.unit.name = "bad.c";
  report.unit.function = "main";
  report.outcome.kind = driver::UnitOutcomeKind::kCrash;
  report.outcome.signal = 11;
  report.outcome.attempts = 2;
  report.outcome.quarantined = true;
  report.outcome.detail = "worker crashed twice";

  const UnitResultFrame decoded =
      decode_unit_result(encode_unit_result(1, 0, report));
  EXPECT_EQ(decoded.report.unit.name, "bad.c");
  EXPECT_EQ(decoded.report.outcome.kind, driver::UnitOutcomeKind::kCrash);
  EXPECT_EQ(decoded.report.outcome.signal, 11);
  EXPECT_EQ(decoded.report.outcome.attempts, 2);
  EXPECT_TRUE(decoded.report.outcome.quarantined);
  EXPECT_EQ(decoded.report.outcome.detail, "worker crashed twice");
  EXPECT_FALSE(decoded.report.payload.has_value());
  EXPECT_TRUE(decoded.payload_bytes.empty());
}

TEST(UnitResultCodec, RejectsCorruptPayloadEnvelope) {
  std::string body = encode_unit_result(1, 0, sample_ok_report());
  // Flip a bit deep in the body — inside the embedded PSASNAP1 payload. The
  // frame checksum is not in play here; the payload envelope must catch it.
  body[body.size() - body.size() / 4] ^= 0x04;
  EXPECT_THROW((void)decode_unit_result(body), rsg::SnapshotError);
}

TEST(UnitResultCodec, RejectsGarbage) {
  EXPECT_THROW((void)decode_unit_result(""), rsg::SnapshotError);
  EXPECT_THROW((void)decode_unit_result(std::string(128, '\xfe')),
               rsg::SnapshotError);
}

TEST(HeartbeatCodec, RoundTripsAndRejectsTruncation) {
  HeartbeatFrame heartbeat;
  heartbeat.seq = 42;
  heartbeat.units_done = 3;
  heartbeat.units_total = 9;
  const std::string body = encode_heartbeat(heartbeat);
  const HeartbeatFrame decoded = decode_heartbeat(body);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.units_done, 3u);
  EXPECT_EQ(decoded.units_total, 9u);
  EXPECT_THROW((void)decode_heartbeat(
                   std::string_view(body).substr(0, body.size() - 1)),
               rsg::SnapshotError);
  EXPECT_THROW((void)decode_heartbeat(body + "x"), rsg::SnapshotError);
}

TEST(SummaryCodec, RoundTripsAndRejectsTruncation) {
  SummaryFrame summary;
  summary.seq = 99;
  summary.isolated = true;
  summary.units_total = 5;
  summary.units_streamed = 5;
  const std::string body = encode_summary(summary);
  const SummaryFrame decoded = decode_summary(body);
  EXPECT_EQ(decoded.seq, 99u);
  EXPECT_TRUE(decoded.isolated);
  EXPECT_EQ(decoded.units_total, 5u);
  EXPECT_EQ(decoded.units_streamed, 5u);
  EXPECT_THROW((void)decode_summary(
                   std::string_view(body).substr(0, body.size() - 1)),
               rsg::SnapshotError);
  EXPECT_THROW((void)decode_summary(body + "x"), rsg::SnapshotError);
}

}  // namespace
}  // namespace psa::service
