// RemoteBackend proxy vs an in-process backend: hosting a backend in a
// "separate process" (here: a server thread over a real AF_UNIX socketpair,
// so the whole framed protocol is exercised) must not change a single
// response byte, and a dead host must surface as a failed shard
// (ProtocolError), never a hang.
#include "src/castanet/remote.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/transport.hpp"

namespace castanet::cosim {
namespace {

constexpr MessageType kCellsIn = 0;
constexpr MessageType kEchoOut = 1;

ConservativeSync::Params sync_params() {
  ConservativeSync::Params p;
  p.policy = SyncPolicy::kGlobalOrder;
  p.clock_period = SimTime::from_ns(50);
  return p;
}

atm::Cell mk_cell(std::uint16_t vci, std::uint8_t fill) {
  atm::Cell c;
  c.header.vpi = 3;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

// Reference backend that echoes every deliverable cell back on kEchoOut.
std::unique_ptr<ReferenceBackend> make_echo_backend(const std::string& name) {
  auto b = std::make_unique<ReferenceBackend>(name, sync_params());
  ReferenceBackend* raw = b.get();
  b->register_input(kCellsIn, 2, [raw](const TimedMessage& m) {
    raw->respond(kEchoOut, m.timestamp, *m.cell);
  });
  return b;
}

std::vector<TimedMessage> stimulus() {
  std::vector<TimedMessage> msgs;
  for (int i = 0; i < 10; ++i) {
    msgs.push_back(make_cell_message(kCellsIn, SimTime::from_us(i + 1),
                                     mk_cell(40, static_cast<std::uint8_t>(i))));
  }
  msgs.push_back(make_time_update(SimTime::from_us(20)));
  return msgs;
}

TEST(RemoteBackend, ProxiedBackendMatchesDirect) {
  const auto direct = make_echo_backend("direct");
  const auto hosted = make_echo_backend("hosted");

  auto [client, host] = transport::make_socket_pipe();
  bool served_ok = false;
  std::thread server([&, host_pipe = std::move(host)]() mutable {
    served_ok = serve_backend(*hosted, *host_pipe);
  });

  RemoteBackend proxy("proxy", sync_params(), std::move(client));
  proxy.declare_input(kCellsIn, 2);

  const SimTime horizon = SimTime::from_us(20);
  for (const TimedMessage& m : stimulus()) {
    direct->push(m);
    proxy.push(m);
  }
  direct->catch_up(horizon);
  proxy.catch_up(horizon);
  direct->finish(horizon);
  proxy.finish(horizon);

  std::vector<TimedMessage> from_direct;
  std::vector<TimedMessage> from_proxy;
  direct->drain_responses(from_direct);
  proxy.drain_responses(from_proxy);

  ASSERT_EQ(from_direct.size(), 10u);
  ASSERT_EQ(from_proxy.size(), from_direct.size());
  for (std::size_t i = 0; i < from_direct.size(); ++i) {
    EXPECT_EQ(wire::encode_message(from_proxy[i]),
              wire::encode_message(from_direct[i]))
        << "response " << i;
  }
  EXPECT_EQ(proxy.now(), direct->now());
  // One round-trip per granted window, not one per message.
  EXPECT_GT(proxy.round_trips(), 0u);
  EXPECT_LE(proxy.round_trips(), stimulus().size() + 1);

  proxy.shutdown();
  server.join();
  EXPECT_TRUE(served_ok);
}

TEST(RemoteBackend, HostDeathSurfacesAsProtocolError) {
  auto [client, host] = transport::make_socket_pipe();
  std::thread flaky_host([host_pipe = std::move(host)]() mutable {
    std::vector<std::uint8_t> frame;
    host_pipe->recv_frame(frame, 5000);  // accept one request, then die
    host_pipe->close();
  });

  RemoteBackend proxy("proxy", sync_params(), std::move(client));
  proxy.declare_input(kCellsIn, 2);
  proxy.push(
      make_cell_message(kCellsIn, SimTime::from_us(1), mk_cell(1, 0xAA)));
  EXPECT_THROW(
      {
        proxy.push(make_time_update(SimTime::from_us(10)));
        proxy.catch_up(SimTime::from_us(10));
      },
      ProtocolError);
  flaky_host.join();
}

TEST(RemoteBackend, CorruptHostFrameSurfacesAsProtocolError) {
  // A "host" whose reply starts with an impossible length prefix: the
  // proxy must give up on the pipe, not wait for a 4 GiB frame.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fds[1], header, sizeof header), 4);

  RemoteBackend proxy("proxy", sync_params(), transport::wrap_socket(fds[0]));
  proxy.declare_input(kCellsIn, 2);
  proxy.push(make_time_update(SimTime::from_us(10)));
  EXPECT_THROW(proxy.catch_up(SimTime::from_us(10)), ProtocolError);
  ::close(fds[1]);
}

TEST(RemoteBackend, HostSideExceptionPropagatesWithMessage) {
  // The hosted backend throws during apply; the proxy's mirror stays clean
  // (it never runs apply handlers), so the failure must travel back over the
  // wire as a kError frame.
  auto hosted =
      std::make_unique<ReferenceBackend>("exploding", sync_params());
  hosted->register_input(kCellsIn, 2, [](const TimedMessage&) {
    throw IoError("board fuse blew");
  });

  auto [client, host] = transport::make_socket_pipe();
  bool served_ok = true;
  std::thread server([&, host_pipe = std::move(host)]() mutable {
    served_ok = serve_backend(*hosted, *host_pipe);
  });

  RemoteBackend proxy("proxy", sync_params(), std::move(client));
  proxy.declare_input(kCellsIn, 2);
  proxy.push(
      make_cell_message(kCellsIn, SimTime::from_us(1), mk_cell(2, 0xBB)));
  proxy.push(make_time_update(SimTime::from_us(10)));
  try {
    proxy.catch_up(SimTime::from_us(10));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("board fuse blew"), std::string::npos)
        << e.what();
  }
  server.join();
  EXPECT_FALSE(served_ok);  // host loop terminated by the backend error
}

}  // namespace
}  // namespace castanet::cosim
