#include "src/rtl/logic_vector.hpp"

#include <algorithm>
#include <bit>

#include "src/core/error.hpp"

namespace castanet::rtl {

namespace {

/// Low `n` bits set (n in [0, 64]).
constexpr std::uint64_t low_mask(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Reads `n` (<= 64) bits of `src` starting at bit `pos`.
std::uint64_t extract_bits(const std::uint64_t* src, std::size_t pos,
                           std::size_t n) {
  const std::size_t w = pos / 64, b = pos % 64;
  std::uint64_t v = src[w] >> b;
  if (b != 0 && b + n > 64) v |= src[w + 1] << (64 - b);
  return v & low_mask(n);
}

/// Copies `len` bits from `src` starting at `spos` into `dst` at `dpos`.
void blit_bits(std::uint64_t* dst, std::size_t dpos, const std::uint64_t* src,
               std::size_t spos, std::size_t len) {
  while (len > 0) {
    const std::size_t dw = dpos / 64, db = dpos % 64;
    const std::size_t take = std::min(len, 64 - db);
    const std::uint64_t chunk = extract_bits(src, spos, take);
    const std::uint64_t m = low_mask(take) << db;
    dst[dw] = (dst[dw] & ~m) | (chunk << db);
    dpos += take;
    spos += take;
    len -= take;
  }
}

}  // namespace

void LogicVector::allocate(std::size_t width) {
  width_ = width;
  sbo_.fill(0);
  if (width > 64) {
    const std::size_t n = kPlanes * words();
    heap_.reset(new std::uint64_t[n]{});
  } else {
    heap_.reset();
  }
}

LogicVector::LogicVector(std::size_t width, Logic fill) {
  allocate(width);
  if (width == 0) return;
  const auto code = static_cast<std::uint8_t>(fill);
  const std::size_t nw = words();
  for (std::size_t p = 0; p < kPlanes; ++p) {
    if (((code >> p) & 1) == 0) continue;
    std::uint64_t* pl = plane(p);
    std::fill_n(pl, nw, ~std::uint64_t{0});
    pl[nw - 1] = tail_mask();
  }
}

LogicVector::LogicVector(const LogicVector& o)
    : width_(o.width_), sbo_(o.sbo_) {
  if (!o.inlined()) {
    const std::size_t n = kPlanes * o.words();
    heap_.reset(new std::uint64_t[n]);
    std::copy_n(o.heap_.get(), n, heap_.get());
  }
}

LogicVector& LogicVector::assign_slow(const LogicVector& o) {
  if (this == &o) return *this;
  if (o.inlined()) {
    heap_.reset();
  } else {
    const std::size_t need = kPlanes * o.words();
    const std::size_t have = inlined() ? 0 : kPlanes * words();
    if (have != need) heap_.reset(new std::uint64_t[need]);
    std::copy_n(o.heap_.get(), need, heap_.get());
  }
  width_ = o.width_;
  sbo_ = o.sbo_;
  return *this;
}

LogicVector::LogicVector(LogicVector&& o) noexcept
    : width_(o.width_), sbo_(o.sbo_), heap_(std::move(o.heap_)) {
  o.width_ = 0;
  o.sbo_.fill(0);
}

LogicVector& LogicVector::operator=(LogicVector&& o) noexcept {
  if (this == &o) return *this;
  width_ = o.width_;
  sbo_ = o.sbo_;
  heap_ = std::move(o.heap_);
  o.width_ = 0;
  o.sbo_.fill(0);
  return *this;
}

LogicVector LogicVector::from_string(const std::string& s) {
  LogicVector v;
  v.allocate(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Leftmost char is the MSB.
    v.set_bit(s.size() - 1 - i, from_char(s[i]));
  }
  return v;
}

LogicVector LogicVector::from_uint(std::uint64_t value, std::size_t width) {
  require(width <= 64, "LogicVector::from_uint: width > 64");
  LogicVector v;
  v.allocate(width);
  if (width == 0) return v;
  v.sbo_[0] = value & v.tail_mask();  // value plane
  v.sbo_[1] = v.tail_mask();          // every bit a strong '0'/'1'
  return v;
}

void LogicVector::throw_undefined_bit() const {
  // Slow path only to produce the diagnostic: find the offending bit.
  for (std::size_t i = 0; i < width_; ++i) {
    if (!is_01(bit(i))) {
      throw LogicError("LogicVector::to_uint: bit " + std::to_string(i) +
                       " is '" + std::string(1, to_char(bit(i))) +
                       "' (no defined boolean value)");
    }
  }
  throw LogicError("LogicVector::to_uint: undefined bit");
}

bool LogicVector::is_defined() const {
  if (width_ == 0) return true;
  const std::uint64_t* p1 = plane(1);
  const std::size_t nw = words();
  for (std::size_t w = 0; w + 1 < nw; ++w) {
    if (p1[w] != ~std::uint64_t{0}) return false;
  }
  return p1[nw - 1] == tail_mask();
}

bool LogicVector::has_unknown() const {
  // U (0000) and X (0001) are the only codes with planes 1..3 all clear.
  const std::size_t nw = words();
  const std::uint64_t* p1 = plane(1);
  const std::uint64_t* p2 = plane(2);
  const std::uint64_t* p3 = plane(3);
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t m = (w + 1 == nw) ? tail_mask() : ~std::uint64_t{0};
    if ((~p1[w] & ~p2[w] & ~p3[w] & m) != 0) return true;
  }
  return false;
}

bool LogicVector::all_known_strong() const {
  if (width_ == 0) return true;
  const std::size_t nw = words();
  const std::uint64_t* p1 = plane(1);
  const std::uint64_t* p2 = plane(2);
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t m = (w + 1 == nw) ? tail_mask() : ~std::uint64_t{0};
    if ((p1[w] & m) != m || p2[w] != 0) return false;
  }
  return true;
}

LogicVector LogicVector::slice(std::size_t lo, std::size_t len) const {
  require(lo + len <= width_, "LogicVector::slice: out of range");
  LogicVector v;
  v.allocate(len);
  if (len == 0) return v;
  for (std::size_t p = 0; p < kPlanes; ++p) {
    blit_bits(v.plane(p), 0, plane(p), lo, len);
  }
  return v;
}

void LogicVector::set_slice(std::size_t lo, const LogicVector& v) {
  require(lo + v.width_ <= width_, "LogicVector::set_slice: out of range");
  if (v.width_ == 0) return;
  for (std::size_t p = 0; p < kPlanes; ++p) {
    blit_bits(plane(p), lo, v.plane(p), 0, v.width_);
  }
}

std::string LogicVector::to_string() const {
  std::string s(width_, '?');
  for (std::size_t i = 0; i < width_; ++i) {
    s[width_ - 1 - i] = to_char(bit(i));
  }
  return s;
}

bool LogicVector::heap_equal(const LogicVector& o) const {
  return std::equal(heap_.get(), heap_.get() + kPlanes * words(),
                    o.heap_.get());
}

void LogicVector::resolve_with(const LogicVector& o) {
  require(width_ == o.width_, "resolve: width mismatch");
  if (width_ == 0) return;
  const std::size_t nw = words();
  if (all_known_strong() && o.all_known_strong()) {
    // Two-valued fast path: agreeing drivers keep their value, disagreeing
    // drivers resolve to 'X' (code 0001) — pure word arithmetic.  Planes 2
    // and 3 are zero in both operands and stay zero in the result.
    std::uint64_t* a0 = plane(0);
    std::uint64_t* a1 = plane(1);
    const std::uint64_t* b0 = o.plane(0);
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t m =
          (w + 1 == nw) ? tail_mask() : ~std::uint64_t{0};
      const std::uint64_t av = a0[w];
      a0[w] = av | b0[w];
      a1[w] = ~(av ^ b0[w]) & m;
    }
    return;
  }
  // Nine-valued fallback: per-bit IEEE 1164 table lookups, but gathered a
  // word at a time — the four plane words of both operands are loaded once,
  // the resolved codes accumulate into local words, and each plane is
  // written back with a single masked store (no per-bit read-modify-write).
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t m = (w + 1 == nw) ? tail_mask() : ~std::uint64_t{0};
    std::uint64_t a[kPlanes], b[kPlanes];
    std::uint64_t out[kPlanes] = {0, 0, 0, 0};
    for (std::size_t p = 0; p < kPlanes; ++p) {
      a[p] = plane(p)[w];
      b[p] = o.plane(p)[w];
    }
    std::uint64_t pending = m;
    while (pending != 0) {
      const int i = std::countr_zero(pending);
      pending &= pending - 1;
      const auto ca = static_cast<std::uint8_t>(
          ((a[0] >> i) & 1) | (((a[1] >> i) & 1) << 1) |
          (((a[2] >> i) & 1) << 2) | (((a[3] >> i) & 1) << 3));
      const auto cb = static_cast<std::uint8_t>(
          ((b[0] >> i) & 1) | (((b[1] >> i) & 1) << 1) |
          (((b[2] >> i) & 1) << 2) | (((b[3] >> i) & 1) << 3));
      const auto cr = static_cast<std::uint8_t>(
          resolve(static_cast<Logic>(ca), static_cast<Logic>(cb)));
      for (std::size_t p = 0; p < kPlanes; ++p) {
        out[p] |= static_cast<std::uint64_t>((cr >> p) & 1) << i;
      }
    }
    // `pending` covered only in-width bits, so `out` already honors the
    // zero-tail invariant.
    for (std::size_t p = 0; p < kPlanes; ++p) plane(p)[w] = out[p];
  }
}

LogicVector resolve(const LogicVector& a, const LogicVector& b) {
  LogicVector out = a;
  out.resolve_with(b);
  return out;
}

LogicVector scalar(Logic v) {
  LogicVector out(1);
  out.set_bit(0, v);
  return out;
}

}  // namespace castanet::rtl
