// std_logic_vector equivalent.
//
// Bit order follows the VHDL "DOWNTO" convention used throughout the paper
// (e.g. `atmdata : STD_LOGIC_VECTOR(7 DOWNTO 0)`, Fig. 4): index 0 is the
// least-significant bit.
//
// Storage is *packed*: instead of one byte per std_logic value, the vector
// keeps four bit-planes of the 4-bit IEEE 1164 code (U=0, X=1, '0'=2, '1'=3,
// Z=4, W=5, L=6, H=7, '-'=8) in 64-bit words.  The encoding is chosen so
// that the two planes the kernel touches on every transaction have direct
// meaning:
//
//   plane 0 — the *value* bit ('1'/'H' have it set, '0'/'L' clear),
//   plane 1 — the *known* bit (set exactly for '0','1','L','H' — the codes
//             with a defined boolean value),
//
// while planes 2 and 3 only distinguish the rare U/X/Z/W/-/weak cases.  A
// fully two-valued vector therefore answers to_uint(), is_defined() and
// operator== with a handful of word operations, and the table-driven
// nine-valued resolution in logic.cpp is needed only when some driver
// actually carries U/X/Z/W/H/L/-.
//
// Widths <= 64 (every scalar and most buses) live entirely in a small
// in-object buffer; wider vectors (e.g. the 424-bit cell bus) allocate one
// contiguous block of 4*ceil(width/64) words.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/core/error.hpp"
#include "src/rtl/logic.hpp"

namespace castanet::rtl {

class LogicVector {
 public:
  LogicVector() = default;
  /// `width` bits, all set to `fill`.
  explicit LogicVector(std::size_t width, Logic fill = Logic::U);
  /// From a literal like "10ZX" — leftmost character is the MSB, as in VHDL.
  static LogicVector from_string(const std::string& s);
  /// Low `width` bits of `value`, bit 0 = LSB.
  static LogicVector from_uint(std::uint64_t value, std::size_t width);

  LogicVector(const LogicVector& o);
  /// Inline for the kernel's commit: two in-object vectors copy their four
  /// plane words, with no heap traffic.
  LogicVector& operator=(const LogicVector& o) {
    if (inlined() && o.inlined()) {
      width_ = o.width_;
      sbo_ = o.sbo_;
      return *this;
    }
    return assign_slow(o);
  }
  LogicVector(LogicVector&& o) noexcept;
  LogicVector& operator=(LogicVector&& o) noexcept;
  ~LogicVector() = default;

  std::size_t width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// i = 0 is the LSB.  Inline: a read_bool()-heavy module activation is a
  /// handful of these, so the call must compile down to four masked loads.
  Logic bit(std::size_t i) const {
    require(i < width_, "LogicVector::bit: index out of range");
    const std::size_t w = i / 64, b = i % 64;
    std::uint8_t code = 0;
    for (std::size_t p = 0; p < kPlanes; ++p) {
      code |= static_cast<std::uint8_t>((plane(p)[w] >> b) & 1) << p;
    }
    return static_cast<Logic>(code);
  }
  void set_bit(std::size_t i, Logic v) {
    require(i < width_, "LogicVector::set_bit: index out of range");
    const std::size_t w = i / 64, b = i % 64;
    const auto code = static_cast<std::uint8_t>(v);
    const std::uint64_t m = std::uint64_t{1} << b;
    for (std::size_t p = 0; p < kPlanes; ++p) {
      std::uint64_t* pl = plane(p);
      pl[w] = ((code >> p) & 1) != 0 ? (pl[w] | m) : (pl[w] & ~m);
    }
  }

  /// Interprets '1'/'H' as 1 and '0'/'L' as 0.  Throws LogicError if any bit
  /// lacks a defined boolean value (X/U/Z/W/-) — X-propagation must be
  /// handled explicitly by the caller.
  std::uint64_t to_uint() const {
    require(width_ <= 64, "LogicVector::to_uint: width > 64");
    if (width_ != 0 && sbo_[1] != tail_mask()) [[unlikely]] {
      throw_undefined_bit();
    }
    return sbo_[0];
  }

  /// Value-plane word `w`: bit i of the result is set iff bit 64*w+i of the
  /// vector is '1' or 'H'.  Only meaningful when the word is known defined
  /// (see is_defined()/all_known_strong()); undefined bits read as 0.
  std::uint64_t value_word(std::size_t w) const {
    require(w < words(), "LogicVector::value_word: word out of range");
    return plane(0)[w];
  }
  /// Boolean-view word `w`: bit i of the result is set iff bit 64*w+i is
  /// '1' or 'H' — to_bool() of every bit at once (value plane & known
  /// plane), with the other seven values reading 0.
  std::uint64_t bool_word(std::size_t w) const {
    require(w < words(), "LogicVector::bool_word: word out of range");
    return plane(0)[w] & plane(1)[w];
  }
  /// True when every bit is 'Z' (a released bus).
  bool all_z() const {
    for (std::size_t w = 0; w < words(); ++w) {
      const std::uint64_t m =
          (w + 1 == words()) ? tail_mask() : ~std::uint64_t{0};
      if ((plane(0)[w] | plane(1)[w] | plane(3)[w]) != 0 || plane(2)[w] != m) {
        return false;
      }
    }
    return true;
  }
  /// Overwrites bits [64*w, 64*w+64) — clipped to the vector width — with
  /// strong '0'/'1' per `bits`.  The word-at-a-time dual of from_uint() for
  /// wide buses (e.g. loading the 424-bit cell bus in 7 stores per plane).
  void set_value_word(std::size_t w, std::uint64_t bits) {
    require(w < words(), "LogicVector::set_value_word: word out of range");
    const std::uint64_t m =
        (w + 1 == words()) ? tail_mask() : ~std::uint64_t{0};
    plane(0)[w] = bits & m;
    plane(1)[w] = m;
    plane(2)[w] = 0;
    plane(3)[w] = 0;
  }
  /// True when the vector equals from_uint(value, width()) — every bit a
  /// strong '0'/'1' spelling the low width() bits of `value` — compared
  /// in place.  Width must be <= 64.
  bool equals_uint(std::uint64_t value) const {
    require(width_ <= 64, "LogicVector::equals_uint: width > 64");
    const std::uint64_t m = width_ == 0 ? 0 : tail_mask();
    return sbo_[0] == (value & m) && sbo_[1] == m && sbo_[2] == 0 &&
           sbo_[3] == 0;
  }
  /// Overwrites the whole vector with from_uint(value, width()) in place.
  /// Width must be <= 64.
  void assign_uint(std::uint64_t value) {
    require(width_ <= 64, "LogicVector::assign_uint: width > 64");
    const std::uint64_t m = width_ == 0 ? 0 : tail_mask();
    sbo_ = {value & m, m, 0, 0};
  }
  /// Scalar counterparts of equals_uint()/assign_uint() for a width-1
  /// vector: its single bit's code spread over the four plane words.
  bool equals_scalar(Logic v) const {
    return same_planes(sbo_, scalar_planes(v));
  }
  void assign_scalar(Logic v) { sbo_ = scalar_planes(v); }
  /// True when every bit is 0/1/L/H.
  bool is_defined() const;
  /// True if any bit is U or X.
  bool has_unknown() const;

  /// True when every bit is a strong '0' or '1' — the domain of the
  /// vectorized resolve fast path.  Excludes the weak L/H levels (they have
  /// a defined boolean value but resolve differently) and everything
  /// unknown/high-impedance.
  bool all_known_strong() const;

  /// Bits [lo, lo+len) as a new vector.
  LogicVector slice(std::size_t lo, std::size_t len) const;
  /// Overwrites bits [lo, lo+v.width()) with v.
  void set_slice(std::size_t lo, const LogicVector& v);

  /// MSB-first string, as in a VHDL waveform viewer.
  std::string to_string() const;

  bool operator==(const LogicVector& o) const {
    if (width_ != o.width_) return false;
    if (inlined()) return same_planes(sbo_, o.sbo_);
    return heap_equal(o);
  }
  bool operator!=(const LogicVector& o) const { return !(*this == o); }

  /// In-place element-wise resolution: *this := resolve(*this, o), never
  /// allocating.  The kernel's multi-driver commit folds every contribution
  /// through this — word-at-a-time over the bit-planes when both operands
  /// are all_known_strong(), per-bit IEEE 1164 table lookups gathered into
  /// masked word writes otherwise.
  void resolve_with(const LogicVector& o);

  /// O(1) content swap; the kernel uses it to recycle plane buffers between
  /// a signal's effective and previous values.
  void swap(LogicVector& o) noexcept {
    std::swap(width_, o.width_);
    std::swap(sbo_, o.sbo_);
    heap_.swap(o.heap_);
  }

  /// Element-wise resolution of two equal-width vectors.
  friend LogicVector resolve(const LogicVector& a, const LogicVector& b);

 private:
  static constexpr std::size_t kPlanes = 4;

  std::size_t words() const { return (width_ + 63) / 64; }
  bool inlined() const { return width_ <= 64; }
  /// Start of bit-plane `p` (stride words() in heap mode, 1 word inline).
  std::uint64_t* plane(std::size_t p) {
    return inlined() ? &sbo_[p] : heap_.get() + p * words();
  }
  const std::uint64_t* plane(std::size_t p) const {
    return inlined() ? &sbo_[p] : heap_.get() + p * words();
  }
  /// Word-wise compare of two in-object plane sets.  GCC 12 compiles
  /// std::array<std::uint64_t, 4>::operator== to an out-of-line
  /// `call memcmp` at -O2 and -O3; this is four xor/or pairs inline.
  static bool same_planes(const std::array<std::uint64_t, kPlanes>& a,
                          const std::array<std::uint64_t, kPlanes>& b) {
    return ((a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3])) ==
           0;
  }
  static std::array<std::uint64_t, kPlanes> scalar_planes(Logic v) {
    const auto c = static_cast<std::uint64_t>(v);
    return {c & 1, c >> 1 & 1, c >> 2 & 1, c >> 3 & 1};
  }
  /// In-width mask for the last (possibly partial) word.
  std::uint64_t tail_mask() const {
    const std::size_t r = width_ % 64;
    return r == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << r) - 1;
  }
  void allocate(std::size_t width);
  /// Out-of-line halves of operator= and operator== for heap-backed
  /// vectors.
  LogicVector& assign_slow(const LogicVector& o);
  bool heap_equal(const LogicVector& o) const;
  /// Cold half of to_uint(): finds the offending bit for the diagnostic.
  [[noreturn]] void throw_undefined_bit() const;

  std::size_t width_ = 0;
  // Invariant: bits at positions >= width_ are zero in every plane, so
  // whole-word comparisons implement operator==.
  std::array<std::uint64_t, kPlanes> sbo_{};          // used when width <= 64
  std::unique_ptr<std::uint64_t[]> heap_;             // used when width > 64
};

/// A width-1 vector holding `v` (scalars travel as 1-bit vectors through the
/// kernel so there is a single transaction type).
LogicVector scalar(Logic v);

}  // namespace castanet::rtl
