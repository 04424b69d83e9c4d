#include "circuit/circuit.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fannet::circuit {

using util::i64;

Circuit::Circuit() {
  nodes_.push_back({kFalse, kFalse});  // node 0: constant false
  input_ordinal_.push_back(-1);
}

CLit Circuit::add_input() {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back({kFalse, kFalse});
  input_ordinal_.push_back(static_cast<std::int32_t>(input_nodes_.size()));
  input_nodes_.push_back(id);
  return CLit::from_code(id << 1);
}

Word Circuit::add_input_word(std::size_t width) {
  Word w(width);
  for (auto& bit : w) bit = add_input();
  return w;
}

std::pair<CLit, CLit> Circuit::fanins(std::uint32_t node) const {
  if (node >= nodes_.size() || node == 0 || is_input(node)) {
    throw InvalidArgument("Circuit::fanins: not an AND node");
  }
  return {nodes_[node].a, nodes_[node].b};
}

CLit Circuit::land(CLit a, CLit b) {
  // Constant folding and trivial cases.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == ~b) return kFalse;
  // Canonical operand order for structural hashing.
  if (a.code() > b.code()) std::swap(a, b);
  const AndKey key{a.code(), b.code()};
  if (const auto it = strash_.find(key); it != strash_.end()) {
    return CLit::from_code(it->second << 1);
  }
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back({a, b});
  input_ordinal_.push_back(-1);
  strash_.emplace(key, id);
  return CLit::from_code(id << 1);
}

CLit Circuit::lxor(CLit a, CLit b) {
  // a ^ b = (a | b) & ~(a & b)
  return land(lor(a, b), ~land(a, b));
}

CLit Circuit::mux(CLit sel, CLit t, CLit e) {
  if (t == e) return t;
  return lor(land(sel, t), land(~sel, e));
}

Word Circuit::word_const(i64 value, std::size_t width) {
  if (width < min_width(value)) {
    throw InvalidArgument("word_const: width too small for value");
  }
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    w[i] = CLit::constant((value >> std::min<std::size_t>(i, 63)) & 1);
  }
  return w;
}

std::size_t Circuit::min_width(i64 value) {
  // Smallest w with -(2^{w-1}) <= value <= 2^{w-1} - 1.
  std::size_t w = 1;
  while (true) {
    if (w >= 64) return 64;
    const i64 lo = -(i64{1} << (w - 1));
    const i64 hi = (i64{1} << (w - 1)) - 1;
    if (value >= lo && value <= hi) return w;
    ++w;
  }
}

Word Circuit::sext(const Word& a, std::size_t width) const {
  if (a.empty()) throw InvalidArgument("sext: empty word");
  Word w(a);
  if (width <= w.size()) {
    w.resize(width);
    return w;
  }
  const CLit sign = a.back();
  while (w.size() < width) w.push_back(sign);
  return w;
}

Word Circuit::add(const Word& a, const Word& b) {
  const std::size_t width = std::max(a.size(), b.size()) + 1;
  const Word x = sext(a, width);
  const Word y = sext(b, width);
  Word sum(width);
  CLit carry = kFalse;
  for (std::size_t i = 0; i < width; ++i) {
    const CLit axb = lxor(x[i], y[i]);
    sum[i] = lxor(axb, carry);
    carry = lor(land(x[i], y[i]), land(axb, carry));
  }
  return sum;
}

Word Circuit::sub(const Word& a, const Word& b) { return add(a, neg(b)); }

Word Circuit::neg(const Word& a) {
  // -a = ~a + 1, widened so the most negative value cannot overflow.
  const std::size_t width = a.size() + 1;
  const Word x = sext(a, width);
  Word inv(width);
  for (std::size_t i = 0; i < width; ++i) inv[i] = ~x[i];
  Word result(width);
  CLit carry = kTrue;
  for (std::size_t i = 0; i < width; ++i) {
    result[i] = lxor(inv[i], carry);
    carry = land(inv[i], carry);
  }
  return result;
}

Word Circuit::mul_const(const Word& a, i64 k) {
  if (k == 0) return word_const(0, 1);
  const bool negative = k < 0;
  // Guard: |k| fits in u64 even for INT64_MIN.
  const std::uint64_t mag =
      negative ? ~static_cast<std::uint64_t>(k) + 1 : static_cast<std::uint64_t>(k);
  // Shift-add over the set bits of |k|.
  const std::size_t out_width = a.size() + static_cast<std::size_t>(64 - __builtin_clzll(mag)) + 1;
  Word acc = word_const(0, 1);
  for (std::size_t bit = 0; bit < 64; ++bit) {
    if (!((mag >> bit) & 1)) continue;
    // a << bit
    Word shifted(bit, kFalse);
    shifted.insert(shifted.end(), a.begin(), a.end());
    acc = add(acc, shifted);
  }
  acc = sext(acc, std::max(acc.size(), out_width));
  if (negative) acc = neg(acc);
  return acc;
}

Word Circuit::relu(const Word& a) {
  const CLit is_negative = a.back();  // sign bit
  Word zero = word_const(0, a.size());
  return mux_word(is_negative, zero, a);
}

Word Circuit::mux_word(CLit sel, const Word& t, const Word& e) {
  const std::size_t width = std::max(t.size(), e.size());
  const Word x = sext(t, width);
  const Word y = sext(e, width);
  Word r(width);
  for (std::size_t i = 0; i < width; ++i) r[i] = mux(sel, x[i], y[i]);
  return r;
}

CLit Circuit::eq(const Word& a, const Word& b) {
  const std::size_t width = std::max(a.size(), b.size());
  const Word x = sext(a, width);
  const Word y = sext(b, width);
  CLit r = kTrue;
  for (std::size_t i = 0; i < width; ++i) r = land(r, iff(x[i], y[i]));
  return r;
}

CLit Circuit::less_signed(const Word& a, const Word& b) {
  const std::size_t width = std::max(a.size(), b.size());
  const Word x = sext(a, width);
  const Word y = sext(b, width);
  // Unsigned less-than over the low width-1 bits, then adjust for signs.
  CLit ult = kFalse;
  for (std::size_t i = 0; i + 1 < width; ++i) {
    ult = mux(iff(x[i], y[i]), ult, land(~x[i], y[i]));
  }
  const CLit sa = x.back();
  const CLit sb = y.back();
  // a<b iff (sa & !sb) | (sa==sb & ult)
  return lor(land(sa, ~sb), land(iff(sa, sb), ult));
}

bool Circuit::eval(CLit root, const std::vector<bool>& inputs) const {
  if (inputs.size() != input_nodes_.size()) {
    throw InvalidArgument("Circuit::eval: input count mismatch");
  }
  std::vector<char> value(nodes_.size(), 0);
  value[0] = 0;
  for (std::uint32_t n = 1; n < nodes_.size(); ++n) {
    if (is_input(n)) {
      value[n] = inputs[static_cast<std::size_t>(input_ordinal_[n])] ? 1 : 0;
    } else {
      const Node& node = nodes_[n];
      const auto litval = [&](CLit l) {
        return static_cast<bool>(value[l.node()]) != l.complemented();
      };
      value[n] = (litval(node.a) && litval(node.b)) ? 1 : 0;
    }
  }
  return static_cast<bool>(value[root.node()]) != root.complemented();
}

i64 Circuit::eval_word(const Word& w, const std::vector<bool>& inputs) const {
  std::vector<bool> bits(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) bits[i] = eval(w[i], inputs);
  return decode(w, bits);
}

i64 Circuit::decode(const Word& w, const std::vector<bool>& bits) {
  if (bits.size() != w.size()) {
    throw InvalidArgument("Circuit::decode: size mismatch");
  }
  if (w.empty()) return 0;
  if (w.size() > 64) throw InvalidArgument("Circuit::decode: word too wide");
  i64 v = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (bits[i]) v |= (i64{1} << i);
  }
  // Sign-extend from the top bit.
  if (bits.back() && w.size() < 64) {
    v -= (i64{1} << w.size());
  }
  return v;
}

}  // namespace fannet::circuit
