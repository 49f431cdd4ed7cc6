#include "service/ps_host.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/ps_wire.hpp"

namespace isasgd::service {

namespace wire = distributed::wire;

namespace {

/// A worker that connects and then stalls must not hold the host hostage:
/// each in-flight request gets this long before its connection is dropped.
constexpr int kConnectionIoTimeoutMs = 5000;
/// Accept poll period — the stop flag is checked at this cadence.
constexpr int kAcceptPollMs = 100;

}  // namespace

PsHost::PsHost(std::size_t dim, const std::string& address,
               objectives::Regularization reg)
    : dim_(dim), reg_(std::move(reg)), model_(dim, 0.0) {
  listener_ = net::listen(address);
  address_ = listener_->address();
  listener_->set_accept_timeout(kAcceptPollMs);
  thread_ = std::thread([this] { serve(); });
}

PsHost::~PsHost() { stop(); }

std::vector<double> PsHost::model() const {
  std::lock_guard lock(model_mu_);
  return model_;
}

void PsHost::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listener_) listener_->close();
}

void PsHost::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::unique_ptr<net::Endpoint> ep;
    try {
      ep = listener_->accept();
    } catch (const net::TransportError& e) {
      if (e.kind() == net::TransportError::Kind::kTimeout) continue;
      break;  // listener closed or unusable: wind down
    }
    ep->set_io_timeout(kConnectionIoTimeoutMs);
    try {
      serve_connection(*ep);
    } catch (const net::TransportError&) {
      // A misbehaving or vanished client costs its own connection, nothing
      // else — the host keeps serving.
    }
  }
}

void PsHost::serve_connection(net::Endpoint& ep) {
  net::Frame frame;
  wire::Packer out;
  std::vector<std::uint32_t> idx, cols;
  std::vector<double> val;
  for (;;) {
    try {
      net::read_frame(ep, frame);
    } catch (const net::TransportError& e) {
      if (e.kind() == net::TransportError::Kind::kClosed) return;  // done
      throw;
    }
    if (frame.type == wire::kHello) continue;  // no reply in the wire map
    wire::Unpacker in(frame.payload);
    const std::uint64_t seq = in.u64();
    out.clear();
    switch (frame.type) {
      case wire::kStep: {
        wire::decode_cols(in, dim_, cols);
        {
          std::lock_guard lock(model_mu_);
          wire::encode_step_reply(out, seq, model_, cols);
        }
        net::write_frame(ep, wire::kStepReply, out.view());
        break;
      }
      case wire::kPush:
      case wire::kPushStep: {
        // Decode the whole frame before touching the model: a malformed
        // push costs its connection and lands nothing.
        const wire::PushHead head = wire::decode_push(in, dim_, idx, val);
        const bool fused = frame.type == wire::kPushStep;
        if (fused) wire::decode_cols(in, dim_, cols);
        {
          std::lock_guard lock(model_mu_);
          distributed::fenced::apply_push(idx, val, head.gradient_scale,
                                          head.scaled_step, reg_, model_);
          // No rank order here: the fused get reads right after the apply.
          if (fused) wire::encode_step_reply(out, seq, model_, cols);
        }
        pushes_.fetch_add(1, std::memory_order_relaxed);
        if (fused) {
          net::write_frame(ep, wire::kStepReply, out.view());
        } else {
          wire::encode_push_ack(out, seq);
          net::write_frame(ep, wire::kPushAck, out.view());
        }
        break;
      }
      default:
        throw net::TransportError(
            net::TransportError::Kind::kProtocol,
            "hosted PS: unexpected frame type " + std::to_string(frame.type));
    }
  }
}

}  // namespace isasgd::service
