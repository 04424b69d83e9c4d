/// \file
/// \brief Overflow-checked 64/128-bit integer arithmetic.
///
/// The formal-analysis path of FANNet is exact by construction: every network
/// quantity is an integer (see DESIGN.md §4.1).  Exactness is only meaningful
/// if overflow is impossible or detected, so all arithmetic in that path goes
/// through these helpers.  They throw ArithmeticError instead of silently
/// wrapping.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace fannet::util {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i128 = __int128;
using u128 = unsigned __int128;

/// Checked i64 addition; throws ArithmeticError on overflow.
[[nodiscard]] inline i64 checked_add(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    throw ArithmeticError("checked_add: int64 overflow");
  }
  return r;
}

/// Checked i64 subtraction; throws ArithmeticError on overflow.
[[nodiscard]] inline i64 checked_sub(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_sub_overflow(a, b, &r)) {
    throw ArithmeticError("checked_sub: int64 overflow");
  }
  return r;
}

/// Checked i64 multiplication; throws ArithmeticError on overflow.
[[nodiscard]] inline i64 checked_mul(i64 a, i64 b) {
  i64 r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw ArithmeticError("checked_mul: int64 overflow");
  }
  return r;
}

/// Narrows a 128-bit value back to i64; throws ArithmeticError if it does
/// not fit.  This is the single funnel through which wide accumulations
/// re-enter the 64-bit world.
[[nodiscard]] inline i64 narrow_i128(i128 v) {
  if (v > static_cast<i128>(std::numeric_limits<i64>::max()) ||
      v < static_cast<i128>(std::numeric_limits<i64>::min())) {
    throw ArithmeticError("narrow_i128: value does not fit in int64");
  }
  return static_cast<i64>(v);
}

/// Floor division for signed integers (C++ '/' truncates toward zero).
[[nodiscard]] constexpr i64 floor_div(i64 a, i64 b) noexcept {
  const i64 q = a / b;
  const i64 r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

/// Ceiling division for signed integers.
[[nodiscard]] constexpr i64 ceil_div(i64 a, i64 b) noexcept {
  const i64 q = a / b;
  const i64 r = a % b;
  return (r != 0 && ((r < 0) == (b < 0))) ? q + 1 : q;
}

/// Renders an i128 as decimal text (the standard library cannot print it).
[[nodiscard]] inline std::string to_string_i128(i128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  // Negate digit-by-digit to avoid overflow on the minimum value.
  std::string digits;
  while (v != 0) {
    int d = static_cast<int>(v % 10);
    v /= 10;
    if (d < 0) d = -d;
    digits.push_back(static_cast<char>('0' + d));
  }
  if (neg) digits.push_back('-');
  return {digits.rbegin(), digits.rend()};
}

}  // namespace fannet::util
