// Wire protocol of the real distributed backend: frame types plus POD
// packing helpers.
//
// Every payload is a flat little-endian sequence of u32/u64/f64 fields
// written with memcpy — doubles travel as their exact 8-byte IEEE-754 bit
// patterns, which is load-bearing: the bit-identity guarantee between the
// process backend and the fenced simulator dies the moment a value is
// formatted through text. (Same-architecture process groups only; this repo
// targets x86-64/AArch64 little-endian, as the kernels already assume.)
//
// Message map (request/response over net::write_frame framing). Every
// parameter-server request carries a per-rank sequence number and every
// reply echoes it: the server treats seq == last as "resend the cached
// reply" and seq < last as a stale duplicate to discard, which makes a
// retried push apply exactly once no matter how many times the wire drops,
// tears or resets frames in between (see net/fault.hpp). `resume` in the
// hello distinguishes a mid-epoch reconnect (resume=1: keep the rank's
// sequence state) from a fresh process (resume=0: reset it — a rejoining
// replacement starts at seq 1).
//
//   worker → server      kHello{role=0, rank, resume}
//   controller → server  kHello{role=1, rank=0, resume=0}
//   worker → server      kStep{seq, ncols, idx[ncols]}     coordinate get
//   server → worker      kStepReply{seq, w[ncols]}         values, same order
//   worker → server      kPushStep{seq, walk, gscale, sstep, nnz,
//                                  (idx, val)[nnz], ncols, idx[ncols]}
//                                                          push + next get
//   server → worker      kStepReply{seq, w[ncols]}         the get's values
//   worker → server      kPush{seq, walk, gscale, sstep, nnz, (idx, val)[nnz]}
//   server → worker      kPushAck{seq}
//   worker → server      kEpochEnd{seq, retries}           quota exhausted
//   server → controller  kFence{epoch, applied, messages, bytes, retries,
//                               nranks, alive[nranks], nwalks, draws[nwalks],
//                               dim, w[dim]}
//   controller → server  kFenceReply{continue, nranks,
//                               (alive, nwalks, (walk, ff)[nwalks])[nranks]}
//   server → worker      kEpochGo{seq, continue, next_epoch,
//                               nwalks, (walk, ff)[nwalks]}
//   worker → server      kReduce{count, (idx, val)[count]} all-reduce partial
//   server → worker      kModelDelta{count, (idx, w)[count]} updated coords
//
// One wire round trip per sample: a worker's epoch is kStep (the first
// sample's get), then one kPushStep per sample — the push of draw t fused
// with the get of draw t+1 — and a plain kPush for the last draw (and for
// the draw before a scripted crash). The parked-get rule keeps the fused
// exchange on the fenced schedule: the process-group server applies the
// push in the rank's current slot and answers the get only when the rank's
// NEXT slot opens, after every other rank's push of that round — the moment
// a standalone kStep would have read the model. Until that reply is formed
// a retransmitted kPushStep (seq == last) is ignored; afterwards it is the
// cached reply like any other. The daemon-hosted PS (service::PsHost) has
// no rank order and answers a kPushStep at once.
//
// The per-sample frames (kStep, kStepReply, kPush, kPushStep, kPushAck)
// are encoded and decoded only by the codec below — every peer (PsClient,
// the process-group server, PsHost) uses it, so their layouts cannot drift.
//
// The all-reduce group keeps the un-sequenced kReduce/kModelDelta exchange
// (it has no retry layer — fault injection targets the PS runtime) but
// shares the kFence/kFenceReply shape with nranks = nwalks = 0; the
// controller-side parser is one implementation for both. Unpacker ignores
// trailing bytes by design, which is what lets the all-reduce fence carry
// the recovery fields as zeros without its own format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"

namespace isasgd::distributed::wire {

enum MsgType : std::uint32_t {
  kHello = 1,
  kStep = 2,
  kStepReply = 3,
  kPush = 4,
  kPushAck = 5,
  kEpochEnd = 6,
  kFence = 7,
  kFenceReply = 8,
  kEpochGo = 9,
  kReduce = 10,
  kModelDelta = 11,
  kPushStep = 12,
};

inline constexpr std::uint32_t kRoleWorker = 0;
inline constexpr std::uint32_t kRoleController = 1;

/// Appends POD fields to a payload string. clear() keeps the capacity, so a
/// reused Packer encodes the per-sample frames without allocating.
class Packer {
 public:
  Packer& u32(std::uint32_t v) { return raw(&v, sizeof(v)); }
  Packer& u64(std::uint64_t v) { return raw(&v, sizeof(v)); }
  Packer& f64(double v) { return raw(&v, sizeof(v)); }
  Packer& raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
    return *this;
  }

  void clear() noexcept { buf_.clear(); }

  [[nodiscard]] std::string take() && { return std::move(buf_); }
  [[nodiscard]] const std::string& view() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads POD fields back out; a short payload is a typed protocol error,
/// never an out-of-bounds read.
class Unpacker {
 public:
  explicit Unpacker(std::string_view payload) : buf_(payload) {}

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] double f64() {
    double v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  void raw(void* out, std::size_t size) {
    if (size == 0) return;  // `out` may be an empty vector's null data()
    if (buf_.size() - off_ < size) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "truncated payload: wanted " + std::to_string(size) +
              " more bytes, have " + std::to_string(buf_.size() - off_));
    }
    std::memcpy(out, buf_.data() + off_, size);
    off_ += size;
  }

  [[nodiscard]] bool done() const noexcept { return off_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - off_;
  }

 private:
  std::string_view buf_;
  std::size_t off_ = 0;
};

// ---- Per-sample codec -------------------------------------------------------
//
// Every per-sample frame starts with its u64 seq; the encoders write it, the
// decoders below start after it (the receiver reads it first to dedup and
// dispatch). Decoders bound every count by the bytes actually present and
// every coordinate by the model dimension, so a hostile or corrupt frame is
// a typed kProtocol error — never a huge allocation or an out-of-range read.

/// The scalar fields of a push (kPush, and the push half of kPushStep).
struct PushHead {
  std::uint32_t walk = 0;
  double gradient_scale = 0;
  double scaled_step = 0;
};

namespace detail {

[[noreturn]] inline void bad_frame(const std::string& what) {
  throw net::TransportError(net::TransportError::Kind::kProtocol, what);
}

inline void put_cols(Packer& p, std::span<const std::uint32_t> cols) {
  p.u32(static_cast<std::uint32_t>(cols.size()));
  p.raw(cols.data(), cols.size() * sizeof(std::uint32_t));
}

/// Reads a u32 count of `elem`-byte records, refusing one the payload
/// cannot hold.
inline std::size_t get_count(Unpacker& u, std::size_t elem, const char* what) {
  const std::size_t n = u.u32();
  if (n > u.remaining() / elem) {
    bad_frame(std::string(what) + " announces " + std::to_string(n) +
              " entries, payload holds " +
              std::to_string(u.remaining() / elem));
  }
  return n;
}

inline void check_coord(std::uint32_t c, std::size_t dim) {
  if (c >= dim) {
    bad_frame("coordinate " + std::to_string(c) + " out of range (dim " +
              std::to_string(dim) + ")");
  }
}

}  // namespace detail

/// kStep{seq, ncols, idx[ncols]}.
inline void encode_step(Packer& p, std::uint64_t seq,
                        std::span<const std::uint32_t> cols) {
  p.u64(seq);
  detail::put_cols(p, cols);
}

/// kPush{seq, walk, gscale, sstep, nnz, (idx, val)[nnz]}.
inline void encode_push(Packer& p, std::uint64_t seq, const PushHead& head,
                        std::span<const std::uint32_t> idx,
                        std::span<const double> val) {
  p.u64(seq).u32(head.walk).f64(head.gradient_scale).f64(head.scaled_step);
  p.u32(static_cast<std::uint32_t>(idx.size()));
  for (std::size_t j = 0; j < idx.size(); ++j) {
    p.u32(idx[j]);
    p.f64(val[j]);
  }
}

/// kPushStep: a kPush followed by the next get's {ncols, idx[ncols]}.
inline void encode_push_step(Packer& p, std::uint64_t seq,
                             const PushHead& head,
                             std::span<const std::uint32_t> idx,
                             std::span<const double> val,
                             std::span<const std::uint32_t> cols) {
  encode_push(p, seq, head, idx, val);
  detail::put_cols(p, cols);
}

/// kStepReply{seq, w[cols[0]], w[cols[1]], ...}.
inline void encode_step_reply(Packer& p, std::uint64_t seq,
                              std::span<const double> w,
                              std::span<const std::uint32_t> cols) {
  p.u64(seq);
  for (const std::uint32_t c : cols) p.f64(w[c]);
}

/// kPushAck{seq}.
inline void encode_push_ack(Packer& p, std::uint64_t seq) { p.u64(seq); }

/// The {ncols, idx[ncols]} of a kStep or kPushStep, into `cols`.
inline void decode_cols(Unpacker& u, std::size_t dim,
                        std::vector<std::uint32_t>& cols) {
  cols.resize(detail::get_count(u, sizeof(std::uint32_t), "get"));
  u.raw(cols.data(), cols.size() * sizeof(std::uint32_t));
  for (const std::uint32_t c : cols) detail::check_coord(c, dim);
}

/// The push fields of a kPush or kPushStep, sparse row into idx/val.
inline PushHead decode_push(Unpacker& u, std::size_t dim,
                            std::vector<std::uint32_t>& idx,
                            std::vector<double>& val) {
  PushHead head;
  head.walk = u.u32();
  head.gradient_scale = u.f64();
  head.scaled_step = u.f64();
  const std::size_t nnz = detail::get_count(
      u, sizeof(std::uint32_t) + sizeof(double), "push");
  idx.resize(nnz);
  val.resize(nnz);
  for (std::size_t j = 0; j < nnz; ++j) {
    idx[j] = u.u32();
    val[j] = u.f64();
    detail::check_coord(idx[j], dim);
  }
  return head;
}

/// The `n` values of a kStepReply, into `values`.
inline void decode_step_reply(Unpacker& u, std::size_t n,
                              std::vector<double>& values) {
  if (u.remaining() != n * sizeof(double)) {
    detail::bad_frame("step reply carries " +
                      std::to_string(u.remaining()) + " value bytes, expected " +
                      std::to_string(n * sizeof(double)));
  }
  values.resize(n);
  u.raw(values.data(), n * sizeof(double));
}

}  // namespace isasgd::distributed::wire
