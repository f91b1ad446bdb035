// PlanServer's side of the wire upgrade (docs/WIRE.md): serve_stream sniffs
// the first line — a hello upgrades the connection to id-tagged binary frames
// answered in completion order, anything else stays on the byte-identical
// line protocol.  Ends with a full-duplex integration: a binary TcpBackend
// talking to a live PlanServer over a socketpair, responses byte-identical to
// direct submission.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/server.hpp"
#include "service/wire.hpp"

#ifdef __unix__
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>  // libstdc++: iostream over a file descriptor

#include "fleet/tcp_backend.hpp"
#include "service/fdio.hpp"
#endif

namespace pglb {
namespace {

PlannerOptions tiny_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;
  return options;
}

std::string plan_line(int variant, int sequence) {
  PlanRequest request;
  request.id = "q" + std::to_string(sequence);
  request.app = variant % 2 == 0 ? AppKind::kPageRank : AppKind::kColoring;
  request.machines = variant % 4 < 2
                         ? std::vector<std::string>{"m4.2xlarge", "c4.2xlarge"}
                         : std::vector<std::string>{"xeon_server_s", "xeon_server_l"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000 + static_cast<std::uint64_t>(variant % 4) * 1'000'000;
  return serialize_request(request);
}

/// Split a serve_stream transcript into the ack line and the decoded frames.
std::pair<std::string, std::map<std::uint64_t, std::string>> parse_frame_output(
    const std::string& output) {
  const std::size_t newline = output.find('\n');
  EXPECT_NE(newline, std::string::npos);
  std::map<std::uint64_t, std::string> responses;
  std::size_t offset = newline + 1;
  while (offset < output.size()) {
    wire::Frame frame;
    std::string error;
    const auto status = wire::decode_frame(output, &offset, &frame, &error);
    EXPECT_EQ(status, wire::DecodeStatus::kFrame) << error;
    if (status != wire::DecodeStatus::kFrame) break;
    EXPECT_EQ(frame.type, wire::FrameType::kResponse);
    responses[frame.id] = frame.payload;
  }
  return {output.substr(0, newline), responses};
}

TEST(WireServer, HelloUpgradesAndAnswersFramesById) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 4, .queue_capacity = 16});
  // Byte-identity reference: an independent server instance — plans are
  // deterministic, so the same request line yields the same response bytes.
  ServiceMetrics reference_metrics;
  Planner reference_planner(tiny_options(), &reference_metrics);
  PlanServer reference(reference_planner, reference_metrics,
                       {.threads = 1, .queue_capacity = 16});

  const std::vector<std::uint64_t> ids = {7, 99, 3};
  std::string input = wire::hello_line() + "\n";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    wire::append_frame(input, wire::FrameType::kRequest, ids[i],
                       plan_line(static_cast<int>(i), static_cast<int>(i)));
  }
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), ids.size());

  const auto [ack, responses] = parse_frame_output(out.str());
  EXPECT_TRUE(wire::is_hello_ack(ack));
  ASSERT_EQ(responses.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string expected =
        reference.submit(plan_line(static_cast<int>(i), static_cast<int>(i)))
            .get();
    EXPECT_EQ(responses.at(ids[i]), expected) << "frame id " << ids[i];
  }
  EXPECT_EQ(metrics.counter("wire.binary_upgrades"), 1u);
}

TEST(WireServer, NonHelloFirstLineStaysOnTheLineProtocol) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 2, .queue_capacity = 8});
  ServiceMetrics reference_metrics;
  Planner reference_planner(tiny_options(), &reference_metrics);
  PlanServer reference(reference_planner, reference_metrics,
                       {.threads = 1, .queue_capacity = 8});

  std::istringstream in(plan_line(0, 0) + "\n" + plan_line(1, 1) + "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 2u);
  EXPECT_EQ(out.str(), reference.submit(plan_line(0, 0)).get() + "\n" +
                           reference.submit(plan_line(1, 1)).get() + "\n");
  EXPECT_EQ(metrics.counter("wire.binary_upgrades"), 0u);
}

TEST(WireServer, UpgradeDisabledAnswersHelloWithTypedError) {
  // --wire=line replicas (mixed fleets, docs/WIRE.md): the hello gets the
  // same typed parse error a pre-wire server would send, which a kAuto
  // client reads as the fall-back-to-lines signal.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics,
                    {.threads = 2, .queue_capacity = 8,
                     .allow_wire_upgrade = false});

  std::istringstream in(wire::hello_line() + "\n" + plan_line(0, 0) + "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 2u);

  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_FALSE(wire::is_hello_ack(first));
  EXPECT_NE(first.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(second.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(metrics.counter("wire.binary_upgrades"), 0u);
}

TEST(WireServer, HelloThenEofServesNothingAndReturns) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 2, .queue_capacity = 8});
  std::istringstream in(wire::hello_line() + "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0u);
  EXPECT_TRUE(wire::is_hello_ack(out.str().substr(0, out.str().size() - 1)));
}

TEST(WireServer, GarbageAfterHandshakeIsCountedAndStopsTheStream) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 2, .queue_capacity = 8});
  std::istringstream in(wire::hello_line() + "\n" +
                        std::string(wire::kHeaderSize, 'X'));
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0u);
  EXPECT_EQ(metrics.counter("wire.bad_frames"), 1u);
}

TEST(WireServer, CrcHelloNegotiatesTrailersBothWays) {
  // A crc-requesting hello gets a crc-granting ack, and every response frame
  // carries the trailer — which parse_frame_output validates by decoding.
  // The payload bytes stay byte-identical to an untrailed server's.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 2, .queue_capacity = 8});
  ServiceMetrics reference_metrics;
  Planner reference_planner(tiny_options(), &reference_metrics);
  PlanServer reference(reference_planner, reference_metrics,
                       {.threads = 1, .queue_capacity = 8});

  std::string input = wire::hello_line(true) + "\n";
  wire::append_frame(input, wire::FrameType::kRequest, 21, plan_line(0, 0),
                     /*with_crc=*/true);
  wire::append_frame(input, wire::FrameType::kRequest, 22, plan_line(1, 1),
                     /*with_crc=*/true);
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 2u);

  const auto [ack, responses] = parse_frame_output(out.str());
  EXPECT_TRUE(wire::is_hello_ack(ack));
  EXPECT_TRUE(wire::ack_grants_crc(ack));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses.at(21), reference.submit(plan_line(0, 0)).get());
  EXPECT_EQ(responses.at(22), reference.submit(plan_line(1, 1)).get());
  // The raw transcript really contains flagged frames, not just clean ones.
  EXPECT_NE(out.str().find(static_cast<char>(wire::kFlagCrc)),
            std::string::npos);
  EXPECT_EQ(metrics.counter("wire.crc_upgrades"), 1u);
}

TEST(WireServer, CorruptPayloadGetsTypedErrorAndTheStreamSurvives) {
  // Flip one payload byte of a CRC frame in flight: the server must reject
  // THAT id with a typed error and keep serving — corruption is a per-frame
  // event, not a connection killer (docs/CHAOS.md).
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 2, .queue_capacity = 8});

  std::string damaged;
  wire::append_frame(damaged, wire::FrameType::kRequest, 5, plan_line(0, 0),
                     /*with_crc=*/true);
  damaged[wire::kHeaderSize + 3] ^= 0x40;  // one bit, inside the payload
  std::string input = wire::hello_line(true) + "\n" + damaged;
  wire::append_frame(input, wire::FrameType::kRequest, 6, plan_line(1, 1),
                     /*with_crc=*/true);

  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 2u);

  const auto [ack, responses] = parse_frame_output(out.str());
  EXPECT_TRUE(wire::ack_grants_crc(ack));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses.at(5).find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(responses.at(5).find("crc"), std::string::npos);
  EXPECT_NE(responses.at(6).find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(metrics.counter("wire.crc_rejected"), 1u);
  EXPECT_EQ(metrics.counter("wire.bad_frames"), 0u);
}

TEST(WireServer, InflightCapShedsWithTypedPushback) {
  // One worker, a cap of one frame in flight, six frames arriving faster than
  // any plan completes: the excess gets immediate "overloaded" responses on
  // their own ids instead of monopolizing the queue.  Every id is answered.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics,
                    {.threads = 1, .queue_capacity = 16,
                     .max_inflight_frames = 1});

  std::string input = wire::hello_line() + "\n";
  for (std::uint64_t id = 1; id <= 6; ++id) {
    wire::append_frame(input, wire::FrameType::kRequest, id,
                       plan_line(static_cast<int>(id), static_cast<int>(id)));
  }
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 6u);

  const auto [ack, responses] = parse_frame_output(out.str());
  EXPECT_TRUE(wire::is_hello_ack(ack));
  ASSERT_EQ(responses.size(), 6u);
  std::size_t shed = 0;
  for (const auto& [id, payload] : responses) {
    if (payload.find("\"status\":\"overloaded\"") != std::string::npos) ++shed;
  }
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(metrics.counter("wire.inflight_shed"), shed);
}

#ifdef __unix__

TEST(WireServerIntegration, BinaryBackendRoundTripsByteIdentical) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics, {.threads = 4, .queue_capacity = 16});
  ServiceMetrics reference_metrics;
  Planner reference_planner(tiny_options(), &reference_metrics);
  PlanServer reference(reference_planner, reference_metrics,
                       {.threads = 1, .queue_capacity = 16});

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serving([&server, fd = fds[1]] {
    __gnu_cxx::stdio_filebuf<char> in_buf(fd, std::ios::in);
    __gnu_cxx::stdio_filebuf<char> out_buf(::dup(fd), std::ios::out);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    EXPECT_EQ(server.serve_stream(in, out), 8u);
  });

  {
    TcpBackend backend("b0", fds[0], WireMode::kAuto);
    std::vector<std::future<std::string>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(backend.submit(plan_line(i, i)));
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(),
                reference.submit(plan_line(i, i)).get())
          << "request " << i;
    }
    EXPECT_TRUE(backend.stats().binary);
  }  // backend teardown closes its end; the server sees EOF and returns

  serving.join();
  EXPECT_EQ(metrics.counter("wire.binary_upgrades"), 1u);
  EXPECT_EQ(metrics.counter("requests_total"), 8u);
}

TEST(WireServerIntegration, AcceptedConnectionsDisableNagle) {
  // The router pipelines frames over one connection per replica: without
  // TCP_NODELAY a response finished behind an unacknowledged one waits for
  // the peer's delayed ACK.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof(address);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length), 0);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);

  const int connection = accept_connection(listener);
  ASSERT_GE(connection, 0);
  int nodelay = 0;
  socklen_t size = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(connection, IPPROTO_TCP, TCP_NODELAY, &nodelay, &size), 0);
  EXPECT_EQ(nodelay, 1);
  ::close(connection);
  ::close(client);
  ::close(listener);
}

TEST(WireServerIntegration, HandshakeDeadlineCutsOffASilentPeer) {
  // Slow-loris defense (docs/CHAOS.md): a peer that connects and never sends
  // a byte is cut off at the handshake deadline instead of parking a serving
  // slot forever, and the cut is counted distinctly.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics,
                    {.threads = 2, .queue_capacity = 8,
                     .handshake_timeout_ms = 80});

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::ostringstream out;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(server.serve_fd(fds[1], out), 0u);  // peer open, silent
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_GE(waited, std::chrono::milliseconds(70));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(metrics.counter("wire.handshake_timeouts"), 1u);
  EXPECT_EQ(metrics.counter("wire.idle_reaped"), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireServerIntegration, IdleDeadlineReapsAfterServingWhatArrived) {
  // A connection that speaks and then goes quiet is served, then reaped at
  // the idle deadline — the request it DID send is answered first.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanServer server(planner, metrics,
                    {.threads = 2, .queue_capacity = 8,
                     .idle_timeout_ms = 80});

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string request = plan_line(0, 0) + "\n";
  ASSERT_EQ(::send(fds[0], request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::ostringstream out;
  EXPECT_EQ(server.serve_fd(fds[1], out), 1u);  // then silence until the reap
  EXPECT_NE(out.str().find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(metrics.counter("wire.idle_reaped"), 1u);
  EXPECT_EQ(metrics.counter("wire.handshake_timeouts"), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

#endif  // __unix__

}  // namespace
}  // namespace pglb
