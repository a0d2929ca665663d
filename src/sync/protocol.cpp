#include "sync/protocol.hpp"

namespace mwsec::sync {

namespace {

bool known_kind(std::uint8_t kind) {
  switch (static_cast<DeltaKind>(kind)) {
    case DeltaKind::kAddPolicy:
    case DeltaKind::kAddCredential:
    case DeltaKind::kRevokeMatching:
    case DeltaKind::kRevokeByLicensee:
      return true;
  }
  return false;
}

mwsec::Result<Delta> read_delta(util::ByteReader& r) {
  Delta d;
  auto epoch = r.u64();
  if (!epoch.ok()) return epoch.error();
  d.epoch = *epoch;
  auto kind = r.u8();
  if (!kind.ok()) return kind.error();
  if (!known_kind(*kind)) {
    return Error::make("unknown delta kind " + std::to_string(*kind), "wire");
  }
  d.kind = static_cast<DeltaKind>(*kind);
  auto body = r.str();
  if (!body.ok()) return body.error();
  d.body = std::move(body).take();
  auto trace = r.u64();
  if (!trace.ok()) return trace.error();
  auto span = r.u64();
  if (!span.ok()) return span.error();
  d.ctx = {*trace, *span};
  return d;
}

}  // namespace

const char* delta_kind_name(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kAddPolicy: return "add-policy";
    case DeltaKind::kAddCredential: return "add-credential";
    case DeltaKind::kRevokeMatching: return "revoke-matching";
    case DeltaKind::kRevokeByLicensee: return "revoke-by-licensee";
  }
  return "unknown";
}

util::Bytes DeltaBatch::encode() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const auto& d : deltas) {
    w.u64(d.epoch);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.str(d.body);
    w.u64(d.ctx.trace_id);
    w.u64(d.ctx.span_id);
  }
  return w.take();
}

mwsec::Result<DeltaBatch> DeltaBatch::decode(const util::Bytes& payload) {
  util::ByteReader r(payload);
  DeltaBatch out;
  auto n = r.u32();
  if (!n.ok()) return n.error();
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto d = read_delta(r);
    if (!d.ok()) return d.error();
    out.deltas.push_back(std::move(d).take());
  }
  if (!r.exhausted()) {
    return Error::make("trailing bytes in delta batch", "wire");
  }
  return out;
}

util::Bytes SubscribeMessage::encode() const {
  util::ByteWriter w;
  w.u64(have_epoch);
  return w.take();
}

mwsec::Result<SubscribeMessage> SubscribeMessage::decode(
    const util::Bytes& payload) {
  util::ByteReader r(payload);
  SubscribeMessage out;
  auto e = r.u64();
  if (!e.ok()) return e.error();
  out.have_epoch = *e;
  if (!r.exhausted()) {
    return Error::make("trailing bytes in subscribe", "wire");
  }
  return out;
}

util::Bytes AckMessage::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  return w.take();
}

mwsec::Result<AckMessage> AckMessage::decode(const util::Bytes& payload) {
  util::ByteReader r(payload);
  AckMessage out;
  auto e = r.u64();
  if (!e.ok()) return e.error();
  out.epoch = *e;
  if (!r.exhausted()) return Error::make("trailing bytes in ack", "wire");
  return out;
}

util::Bytes SnapshotMessage::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  w.str(bundle);
  return w.take();
}

mwsec::Result<SnapshotMessage> SnapshotMessage::decode(
    const util::Bytes& payload) {
  util::ByteReader r(payload);
  SnapshotMessage out;
  auto e = r.u64();
  if (!e.ok()) return e.error();
  out.epoch = *e;
  auto b = r.str();
  if (!b.ok()) return b.error();
  out.bundle = std::move(b).take();
  if (!r.exhausted()) {
    return Error::make("trailing bytes in snapshot", "wire");
  }
  return out;
}

}  // namespace mwsec::sync
