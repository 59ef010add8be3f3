#include "src/castanet/wire.hpp"

#include <cstring>
#include <string>

#include "src/core/error.hpp"

namespace castanet::cosim::wire {

void Writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  // Canonicalize NaN payloads: any NaN becomes the quiet NaN, so encoding a
  // decoded frame is byte-equal.
  if (v != v) bits = 0x7ff8000000000000ull;
  u64(bits);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void Writer::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

std::uint8_t Reader::u8() {
  if (remaining() < 1) throw ProtocolError("wire: truncated frame (u8)");
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  if (remaining() < 4) throw ProtocolError("wire: truncated frame (u32)");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  if (remaining() < 8) throw ProtocolError("wire: truncated frame (u64)");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (remaining() < n) throw ProtocolError("wire: truncated frame (str)");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::bytes(void* out, std::size_t len) {
  if (remaining() < len) throw ProtocolError("wire: truncated frame (bytes)");
  if (len) std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

namespace {

// Presence flags packed into the message's tag byte.
constexpr std::uint8_t kHasCell = 0x01;
constexpr std::uint8_t kTimeUpdateOnly = 0x02;

/// Rejects an element count the rest of the frame cannot hold, given that
/// each element encodes to at least `min_bytes`.  Runs before any reserve,
/// so a corrupt count ends in ProtocolError, not in a huge allocation.
void check_count(const Reader& r, std::uint32_t count, std::size_t min_bytes,
                 const char* what) {
  if (count > r.remaining() / min_bytes) {
    throw ProtocolError(std::string("wire: ") + what +
                        " count exceeds the frame length");
  }
}

}  // namespace

void encode_message(Writer& w, const TimedMessage& m) {
  w.u32(m.type);
  w.i64(m.timestamp.ps());
  std::uint8_t tag = 0;
  if (m.cell) tag |= kHasCell;
  if (m.time_update_only) tag |= kTimeUpdateOnly;
  w.u8(tag);
  if (m.cell) {
    const atm::Cell& c = *m.cell;
    w.u8(c.header.gfc);
    w.u32(c.header.vpi);
    w.u32(c.header.vci);
    w.u8(c.header.pti);
    w.u8(c.header.clp ? 1 : 0);
    w.bytes(c.payload.data(), c.payload.size());
  }
  w.u32(static_cast<std::uint32_t>(m.words.size()));
  for (std::uint64_t word : m.words) w.u64(word);
}

std::vector<std::uint8_t> encode_message(const TimedMessage& m) {
  Writer w;
  encode_message(w, m);
  return w.take();
}

TimedMessage decode_message(Reader& r) {
  TimedMessage m;
  m.type = r.u32();
  m.timestamp = SimTime::from_ps(r.i64());
  const std::uint8_t tag = r.u8();
  if (tag & ~(kHasCell | kTimeUpdateOnly)) {
    throw ProtocolError("wire: unknown message tag bits");
  }
  m.time_update_only = (tag & kTimeUpdateOnly) != 0;
  if (tag & kHasCell) {
    atm::Cell c;
    c.header.gfc = r.u8();
    c.header.vpi = static_cast<std::uint16_t>(r.u32());
    c.header.vci = static_cast<std::uint16_t>(r.u32());
    c.header.pti = r.u8();
    c.header.clp = r.u8() != 0;
    r.bytes(c.payload.data(), c.payload.size());
    m.cell = c;
  }
  const std::uint32_t nwords = r.u32();
  check_count(r, nwords, sizeof(std::uint64_t), "word");
  m.words.reserve(nwords);
  for (std::uint32_t i = 0; i < nwords; ++i) m.words.push_back(r.u64());
  return m;
}

TimedMessage decode_message(const std::vector<std::uint8_t>& frame) {
  Reader r(frame);
  TimedMessage m = decode_message(r);
  if (!r.done()) throw ProtocolError("wire: trailing bytes after message");
  return m;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t content_hash(const TimedMessage& m) {
  std::uint64_t h = fnv1a(&m.type, sizeof m.type);
  const std::uint8_t has_cell = m.cell ? 1 : 0;
  h = fnv1a(&has_cell, 1, h);
  if (m.cell) {
    const atm::Cell& c = *m.cell;
    // Hash the decoded header fields, not a re-encoding: what the comparator
    // diffs on mismatch is these fields, so hash equality must mirror
    // diff_payload equality exactly.
    const std::uint8_t hdr[7] = {
        c.header.gfc,
        static_cast<std::uint8_t>(c.header.vpi),
        static_cast<std::uint8_t>(c.header.vpi >> 8),
        static_cast<std::uint8_t>(c.header.vci),
        static_cast<std::uint8_t>(c.header.vci >> 8),
        c.header.pti,
        static_cast<std::uint8_t>(c.header.clp ? 1 : 0),
    };
    h = fnv1a(hdr, sizeof hdr, h);
    h = fnv1a(c.payload.data(), c.payload.size(), h);
  }
  const std::uint64_t nwords = m.words.size();
  h = fnv1a(&nwords, sizeof nwords, h);
  if (!m.words.empty()) {
    h = fnv1a(m.words.data(), m.words.size() * sizeof(std::uint64_t), h);
  }
  return h;
}

}  // namespace castanet::cosim::wire
