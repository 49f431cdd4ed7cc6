// Hosted parameter-server endpoint (service::PsHost + the ps_serve/ps_stop
// protocol verbs): a daemon-owned model that external workers train against
// over the distributed wire protocol, applying pushes with the same
// fenced::apply_push arithmetic as every other backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/ps_wire.hpp"
#include "net/transport.hpp"
#include "objectives/objective.hpp"
#include "service/protocol.hpp"
#include "service/ps_host.hpp"
#include "service/training_service.hpp"

namespace isasgd {
namespace {

namespace wire = distributed::wire;

// Every frame goes through the wire codec a real PsClient uses. PsHost only
// echoes seq, so one counter serves every connection of the test binary.
std::uint64_t next_seq = 0;

std::vector<double> step_values(net::Endpoint& ep,
                                const std::vector<std::uint32_t>& idx) {
  const std::uint64_t seq = ++next_seq;
  wire::Packer req;
  wire::encode_step(req, seq, idx);
  net::write_frame(ep, wire::kStep, req.view());
  const net::Frame reply = net::expect_frame(ep, wire::kStepReply, "step");
  wire::Unpacker in(reply.payload);
  EXPECT_EQ(in.u64(), seq) << "the reply must echo the request's seq";
  std::vector<double> values;
  wire::decode_step_reply(in, idx.size(), values);
  return values;
}

void push(net::Endpoint& ep, double gradient_scale, double scaled_step,
          const std::vector<std::uint32_t>& idx,
          const std::vector<double>& val) {
  const std::uint64_t seq = ++next_seq;
  wire::Packer req;
  wire::encode_push(req, seq, {0, gradient_scale, scaled_step}, idx, val);
  net::write_frame(ep, wire::kPush, req.view());
  const net::Frame ack = net::expect_frame(ep, wire::kPushAck, "push");
  wire::Unpacker in(ack.payload);
  EXPECT_EQ(in.u64(), seq) << "the ack must echo the push's seq";
}

TEST(PsHost, ServesGetsAndAppliesPushesWithSharedApplyArithmetic) {
  service::PsHost host(/*dim=*/16, "tcp://127.0.0.1:0");
  auto ep = net::connect(host.address());
  ep->set_io_timeout(5000);

  // Fresh model is all zeros.
  const std::vector<std::uint32_t> idx{1, 4, 9};
  EXPECT_EQ(step_values(*ep, idx), (std::vector<double>{0.0, 0.0, 0.0}));

  // One push must land exactly as fenced::apply_push lands it locally.
  const std::vector<double> val{0.5, -1.25, 2.0};
  const double gscale = 0.375, sstep = 0.0625;
  std::vector<double> expected(16, 0.0);
  distributed::fenced::apply_push(idx, val, gscale, sstep,
                                  objectives::Regularization::none(),
                                  expected);
  push(*ep, gscale, sstep, idx, val);
  const std::vector<double> got = step_values(*ep, idx);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    EXPECT_EQ(got[j], expected[idx[j]]) << "coordinate " << idx[j];
  }
  EXPECT_EQ(host.pushes(), 1u);
  EXPECT_EQ(host.model(), expected);
}

TEST(PsHost, ModelOutlivesWorkerConnections) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  {
    auto first = net::connect(host.address());
    first->set_io_timeout(5000);
    push(*first, 1.0, 0.5, {2}, {1.0});  // w[2] -= 0.5
    first->close();
  }
  auto second = net::connect(host.address());
  second->set_io_timeout(5000);
  EXPECT_EQ(step_values(*second, {2}), (std::vector<double>{-0.5}));
  EXPECT_EQ(host.pushes(), 1u);
}

TEST(PsHost, OutOfRangePushCoordinateCostsOnlyThatConnection) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  {
    auto bad = net::connect(host.address());
    bad->set_io_timeout(5000);
    wire::Packer req;
    const std::vector<std::uint32_t> idx{99};
    const std::vector<double> val{1.0};
    wire::encode_push(req, 1, {0, 1.0, 1.0}, idx, val);
    net::write_frame(*bad, wire::kPush, req.view());
    // The host drops the connection without acking.
    EXPECT_THROW((void)net::read_frame(*bad), net::TransportError);
  }
  auto good = net::connect(host.address());
  good->set_io_timeout(5000);
  EXPECT_EQ(step_values(*good, {0}), (std::vector<double>{0.0}));
  EXPECT_EQ(host.pushes(), 0u);
}

TEST(PsHost, MidPushConnectionDropLeavesNoHalfAppliedUpdate) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  {
    // A worker dies mid-push: hand-build the full kPush wire bytes, deliver
    // the header plus half the payload, and vanish. The host parses a push
    // only from a complete frame, so the torn one must cost nothing — not
    // one coordinate of it may land.
    auto torn = net::connect(host.address());
    torn->set_io_timeout(5000);
    wire::Packer req;
    const std::vector<std::uint32_t> idx{0, 1};
    const std::vector<double> val{1.0, 1.0};
    wire::encode_push(req, 1, {0, 1.0, 0.5}, idx, val);
    const std::string payload = std::move(req).take();
    std::string bytes(16 + payload.size(), '\0');
    const std::uint32_t magic = net::kFrameMagic;
    const std::uint32_t type = wire::kPush;
    const std::uint64_t length = payload.size();
    std::memcpy(bytes.data(), &magic, 4);
    std::memcpy(bytes.data() + 4, &type, 4);
    std::memcpy(bytes.data() + 8, &length, 8);
    std::memcpy(bytes.data() + 16, payload.data(), payload.size());
    torn->send_bytes(bytes.data(), 16 + payload.size() / 2);
    torn->close();
  }
  // The host stays serviceable: the next worker's push is the FIRST applied
  // update, and the model is exactly that one push — nothing half-applied.
  auto good = net::connect(host.address());
  good->set_io_timeout(5000);
  const std::vector<std::uint32_t> idx{2};
  const std::vector<double> val{1.0};
  push(*good, 1.0, 0.5, idx, val);
  std::vector<double> expected(4, 0.0);
  distributed::fenced::apply_push(idx, val, 1.0, 0.5,
                                  objectives::Regularization::none(),
                                  expected);
  EXPECT_EQ(host.pushes(), 1u);
  EXPECT_EQ(host.model(), expected);
  EXPECT_EQ(step_values(*good, {0, 1}), (std::vector<double>{0.0, 0.0}));
}

TEST(PsHost, PushStepAppliesThenAnswersTheGetAtOnce) {
  // The hosted PS has no rank order: a fused push + get reads the model
  // right after its own apply, echoing the seq in a kStepReply.
  service::PsHost host(/*dim=*/8, "tcp://127.0.0.1:0");
  auto ep = net::connect(host.address());
  ep->set_io_timeout(5000);
  const std::vector<std::uint32_t> idx{2, 5};
  const std::vector<double> val{1.0, -0.5};
  const std::vector<std::uint32_t> next{5, 0, 2};
  std::vector<double> expected(8, 0.0);
  distributed::fenced::apply_push(idx, val, 0.75, 0.5,
                                  objectives::Regularization::none(),
                                  expected);
  wire::Packer req;
  wire::encode_push_step(req, 41, {0, 0.75, 0.5}, idx, val, next);
  net::write_frame(*ep, wire::kPushStep, req.view());
  const net::Frame reply = net::expect_frame(*ep, wire::kStepReply, "fused");
  wire::Unpacker in(reply.payload);
  EXPECT_EQ(in.u64(), 41u);
  std::vector<double> got;
  wire::decode_step_reply(in, next.size(), got);
  EXPECT_EQ(got, (std::vector<double>{expected[5], expected[0], expected[2]}));
  EXPECT_EQ(host.pushes(), 1u);
  EXPECT_EQ(host.model(), expected);
}

TEST(PsHost, OutOfRangeGetCoordinateIsATypedProtocolError) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  auto bad = net::connect(host.address());
  bad->set_io_timeout(5000);
  EXPECT_THROW((void)step_values(*bad, {7}), net::TransportError);
  auto good = net::connect(host.address());
  good->set_io_timeout(5000);
  EXPECT_EQ(step_values(*good, {3}), (std::vector<double>{0.0}));
}

TEST(PsWireCodec, DecodersRejectCountsThePayloadCannotHold) {
  // A count field announcing more entries than the payload carries is a
  // typed protocol error before any allocation of that size.
  wire::Packer p;
  p.u32(0xffffffffu).u32(1);
  wire::Unpacker u(p.view());
  std::vector<std::uint32_t> cols;
  EXPECT_THROW(wire::decode_cols(u, 16, cols), net::TransportError);
  EXPECT_LE(cols.capacity(), 1u);

  wire::Packer q;
  q.u32(0).f64(1.0).f64(1.0).u32(1000).u32(1).f64(2.0);
  wire::Unpacker v(q.view());
  std::vector<std::uint32_t> idx;
  std::vector<double> val;
  EXPECT_THROW((void)wire::decode_push(v, 16, idx, val), net::TransportError);
}

TEST(PsHostProtocol, ServeStopRoundTripThroughTheVerbs) {
  service::TrainingService svc{service::TrainingService::Options{}};
  service::ProtocolHandler handler(svc);

  EXPECT_EQ(handler.handle_line("ps_stop"), "err no hosted ps");

  const std::string reply = handler.handle_line("ps_serve dim=8");
  ASSERT_EQ(reply.rfind("ok addr=", 0), 0u) << reply;
  ASSERT_NE(reply.find(" dim=8"), std::string::npos) << reply;
  const std::string addr =
      reply.substr(8, reply.find(' ', 8) - 8);  // between addr= and " dim"

  // Second serve is refused while one is running.
  EXPECT_EQ(handler.handle_line("ps_serve dim=8").rfind("err ", 0), 0u);

  // A worker can train against the daemon-hosted model.
  {
    auto ep = net::connect(addr);
    ep->set_io_timeout(5000);
    push(*ep, 2.0, 0.25, {3}, {1.0});
    push(*ep, 2.0, 0.25, {3}, {1.0});
    EXPECT_EQ(step_values(*ep, {3}), (std::vector<double>{-1.0}));
  }
  EXPECT_EQ(handler.handle_line("ps_stop"), "ok pushes=2");
  EXPECT_EQ(handler.handle_line("ps_stop"), "err no hosted ps");

  // Bad arguments are typed errors, not crashes.
  EXPECT_EQ(handler.handle_line("ps_serve dim=0"),
            "err ps_serve requires dim > 0");
  EXPECT_EQ(handler.handle_line("ps_serve").rfind("err ", 0), 0u);
  EXPECT_EQ(handler.handle_line("ps_serve dim=-1").rfind("err bad integer", 0),
            0u);
}

TEST(PsHostProtocol, ShutdownStopsTheHostedPs) {
  service::TrainingService svc{service::TrainingService::Options{}};
  service::ProtocolHandler handler(svc);
  ASSERT_EQ(handler.handle_line("ps_serve dim=2").rfind("ok ", 0), 0u);
  EXPECT_EQ(handler.handle_line("shutdown"), "ok bye");
  EXPECT_TRUE(handler.shutdown_requested());
  EXPECT_EQ(handler.ps_host(), nullptr);
}

}  // namespace
}  // namespace isasgd
