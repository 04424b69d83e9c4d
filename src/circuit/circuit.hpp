/// \file
/// \brief Word-level boolean circuit builder (AIG) — the bit-blasting layer.
///
/// The SMV compiler lowers bounded-integer models onto this netlist
/// representation: an And-Inverter Graph with structural hashing and constant
/// folding, plus two's-complement word operations (add, negate, multiply by
/// constant via shift-add, signed comparison, mux).  The netlist then exports
/// to CNF (Tseitin encoding, consumed by the CDCL solver of the SAT engine).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/checked.hpp"

namespace fannet::circuit {

/// Literal: AIG node index * 2 + (complemented ? 1 : 0).
/// Node 0 is the constant-false node, so lit 0 = false and lit 1 = true.
class CLit {
 public:
  constexpr CLit() noexcept = default;

  [[nodiscard]] static constexpr CLit from_code(std::uint32_t code) noexcept {
    CLit l;
    l.code_ = code;
    return l;
  }
  [[nodiscard]] static constexpr CLit constant(bool v) noexcept {
    return from_code(v ? 1 : 0);
  }

  [[nodiscard]] constexpr std::uint32_t code() const noexcept { return code_; }
  [[nodiscard]] constexpr std::uint32_t node() const noexcept {
    return code_ >> 1;
  }
  [[nodiscard]] constexpr bool complemented() const noexcept {
    return code_ & 1;
  }
  [[nodiscard]] constexpr CLit operator~() const noexcept {
    return from_code(code_ ^ 1);
  }
  [[nodiscard]] constexpr bool operator==(const CLit&) const noexcept = default;

 private:
  std::uint32_t code_ = 0;
};

inline constexpr CLit kFalse = CLit::constant(false);
inline constexpr CLit kTrue = CLit::constant(true);

/// Little-endian two's-complement bitvector of circuit literals.
using Word = std::vector<CLit>;

class Circuit {
 public:
  Circuit();

  /// Fresh primary input (boolean).
  [[nodiscard]] CLit add_input();
  /// Fresh primary input word of the given width.
  [[nodiscard]] Word add_input_word(std::size_t width);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_inputs() const noexcept {
    return input_nodes_.size();
  }
  [[nodiscard]] bool is_input(std::uint32_t node) const {
    return node < input_ordinal_.size() && input_ordinal_[node] >= 0;
  }
  /// Fanins of an AND node (precondition: not an input/constant).
  [[nodiscard]] std::pair<CLit, CLit> fanins(std::uint32_t node) const;

  // ---- gate constructors (fold constants, hash structurally) -------------
  [[nodiscard]] CLit land(CLit a, CLit b);
  [[nodiscard]] CLit lor(CLit a, CLit b) { return ~land(~a, ~b); }
  [[nodiscard]] CLit lxor(CLit a, CLit b);
  [[nodiscard]] CLit iff(CLit a, CLit b) { return ~lxor(a, b); }
  [[nodiscard]] CLit implies(CLit a, CLit b) { return lor(~a, b); }
  [[nodiscard]] CLit mux(CLit sel, CLit t, CLit e);

  // ---- word operations ----------------------------------------------------
  /// Constant word; width must hold `value` in two's complement.
  [[nodiscard]] static Word word_const(util::i64 value, std::size_t width);
  /// Minimal width that represents `value` in two's complement.
  [[nodiscard]] static std::size_t min_width(util::i64 value);

  /// Sign-extends (or truncates — caller must know it is safe) to `width`.
  [[nodiscard]] Word sext(const Word& a, std::size_t width) const;

  /// a + b, result width max(|a|,|b|)+1: overflow cannot occur.
  [[nodiscard]] Word add(const Word& a, const Word& b);
  /// a - b, result width max(|a|,|b|)+1.
  [[nodiscard]] Word sub(const Word& a, const Word& b);
  /// -a, width |a|+1.
  [[nodiscard]] Word neg(const Word& a);
  /// a * k (k compile-time constant) via shift-add; exact width.
  [[nodiscard]] Word mul_const(const Word& a, util::i64 k);
  /// max(0, a) — the ReLU word (sign bit selects zero).
  [[nodiscard]] Word relu(const Word& a);
  /// if sel then t else e, width max(|t|,|e|).
  [[nodiscard]] Word mux_word(CLit sel, const Word& t, const Word& e);

  // ---- predicates ----------------------------------------------------------
  [[nodiscard]] CLit eq(const Word& a, const Word& b);
  [[nodiscard]] CLit less_signed(const Word& a, const Word& b);   // a < b
  [[nodiscard]] CLit leq_signed(const Word& a, const Word& b) {
    return ~less_signed(b, a);
  }

  /// Evaluates a literal under a full input assignment (index = input node
  /// order of creation, i.e. inputs[0] is the first add_input()).
  [[nodiscard]] bool eval(CLit root, const std::vector<bool>& inputs) const;
  [[nodiscard]] util::i64 eval_word(const Word& w,
                                    const std::vector<bool>& inputs) const;

  /// Decodes a word under a bit assignment callback already evaluated.
  [[nodiscard]] static util::i64 decode(const Word& w,
                                        const std::vector<bool>& bits);

 private:
  struct Node {
    CLit a, b;  // fanins; inputs/constants have a == b == kFalse
  };
  struct AndKey {
    std::uint32_t a, b;
    bool operator==(const AndKey&) const = default;
  };
  struct AndKeyHash {
    std::size_t operator()(const AndKey& k) const noexcept {
      return (static_cast<std::uint64_t>(k.a) << 32 | k.b) * 0x9e3779b97f4a7c15ULL >> 16;
    }
  };

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> input_nodes_;   // node id per input ordinal
  std::vector<std::int32_t> input_ordinal_;  // per node; -1 = gate/constant
  std::unordered_map<AndKey, std::uint32_t, AndKeyHash> strash_;
};

}  // namespace fannet::circuit
