// Unit + property tests for the AIG/word circuit builder and the Tseitin
// CNF encoder.  Word operations are validated against native integer
// arithmetic on random operands.
#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/tseitin.hpp"
#include "sat/solver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fannet::circuit {
namespace {

using util::i64;

TEST(Circuit, ConstantsAndInputs) {
  Circuit c;
  EXPECT_EQ(c.land(kTrue, kTrue), kTrue);
  EXPECT_EQ(c.land(kTrue, kFalse), kFalse);
  const CLit a = c.add_input();
  EXPECT_EQ(c.land(a, kTrue), a);
  EXPECT_EQ(c.land(a, kFalse), kFalse);
  EXPECT_EQ(c.land(a, a), a);
  EXPECT_EQ(c.land(a, ~a), kFalse);
  EXPECT_EQ(c.num_inputs(), 1u);
}

TEST(Circuit, StructuralHashing) {
  Circuit c;
  const CLit a = c.add_input(), b = c.add_input();
  const CLit g1 = c.land(a, b);
  const CLit g2 = c.land(b, a);  // commuted: must hash to the same node
  EXPECT_EQ(g1, g2);
  const std::size_t nodes = c.num_nodes();
  (void)c.land(a, b);
  EXPECT_EQ(c.num_nodes(), nodes);
}

TEST(Circuit, GateEval) {
  Circuit c;
  const CLit a = c.add_input(), b = c.add_input();
  const CLit x = c.lxor(a, b);
  EXPECT_FALSE(c.eval(x, {false, false}));
  EXPECT_TRUE(c.eval(x, {true, false}));
  EXPECT_FALSE(c.eval(x, {true, true}));
  const CLit mx = c.mux(a, b, ~b);  // a ? b : !b == iff(a,b)... truth check
  EXPECT_TRUE(c.eval(mx, {true, true}));
  EXPECT_FALSE(c.eval(mx, {true, false}));
  EXPECT_TRUE(c.eval(mx, {false, false}));
}

TEST(Circuit, MinWidth) {
  EXPECT_EQ(Circuit::min_width(0), 1u);
  EXPECT_EQ(Circuit::min_width(-1), 1u);
  EXPECT_EQ(Circuit::min_width(1), 2u);
  EXPECT_EQ(Circuit::min_width(-2), 2u);
  EXPECT_EQ(Circuit::min_width(127), 8u);
  EXPECT_EQ(Circuit::min_width(-128), 8u);
  EXPECT_EQ(Circuit::min_width(128), 9u);
}

TEST(Circuit, WordConstDecode) {
  Circuit c;
  for (const i64 v : {0LL, 1LL, -1LL, 100LL, -100LL, 32767LL, -32768LL}) {
    const Word w = Circuit::word_const(v, Circuit::min_width(v));
    EXPECT_EQ(c.eval_word(w, {}), v) << v;
  }
  EXPECT_THROW(Circuit::word_const(100, 3), InvalidArgument);
}

TEST(Circuit, SextPreservesValue) {
  Circuit c;
  const Word w = Circuit::word_const(-5, 4);
  EXPECT_EQ(c.eval_word(c.sext(w, 12), {}), -5);
  const Word p = Circuit::word_const(5, 4);
  EXPECT_EQ(c.eval_word(c.sext(p, 12), {}), 5);
}

TEST(Circuit, ReluWord) {
  Circuit c;
  EXPECT_EQ(c.eval_word(c.relu(Circuit::word_const(-7, 5)), {}), 0);
  EXPECT_EQ(c.eval_word(c.relu(Circuit::word_const(9, 5)), {}), 9);
  EXPECT_EQ(c.eval_word(c.relu(Circuit::word_const(0, 5)), {}), 0);
}

// ---------------------------------------------------------------------------
// Property sweep: word ops vs native arithmetic on random operand pairs.
// ---------------------------------------------------------------------------
class WordOps : public testing::TestWithParam<std::uint64_t> {};

TEST_P(WordOps, MatchNativeArithmetic) {
  util::Rng rng(GetParam());
  Circuit c;
  // Two symbolic 12-bit inputs driven through eval with random values.
  const Word a = c.add_input_word(12);
  const Word b = c.add_input_word(12);
  const Word sum = c.add(a, b);
  const Word diff = c.sub(a, b);
  const Word na = c.neg(a);
  const CLit lt = c.less_signed(a, b);
  const CLit le = c.leq_signed(a, b);
  const CLit equal = c.eq(a, b);
  const Word rel = c.relu(a);
  const i64 k = rng.uniform_int(-300, 300);
  const Word mk = c.mul_const(a, k);

  for (int trial = 0; trial < 60; ++trial) {
    const i64 va = rng.uniform_int(-2048, 2047);
    const i64 vb = rng.uniform_int(-2048, 2047);
    std::vector<bool> in(24);
    for (int bit = 0; bit < 12; ++bit) {
      in[static_cast<std::size_t>(bit)] = (va >> bit) & 1;
      in[static_cast<std::size_t>(12 + bit)] = (vb >> bit) & 1;
    }
    EXPECT_EQ(c.eval_word(sum, in), va + vb);
    EXPECT_EQ(c.eval_word(diff, in), va - vb);
    EXPECT_EQ(c.eval_word(na, in), -va);
    EXPECT_EQ(c.eval(lt, in), va < vb);
    EXPECT_EQ(c.eval(le, in), va <= vb);
    EXPECT_EQ(c.eval(equal, in), va == vb);
    EXPECT_EQ(c.eval_word(rel, in), std::max<i64>(0, va));
    EXPECT_EQ(c.eval_word(mk, in), va * k) << "k=" << k << " va=" << va;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordOps, testing::Range<std::uint64_t>(1, 13));

TEST(Circuit, MuxWordSelects) {
  Circuit c;
  const CLit sel = c.add_input();
  const Word t = Circuit::word_const(42, 8);
  const Word e = Circuit::word_const(-17, 8);
  const Word m = c.mux_word(sel, t, e);
  EXPECT_EQ(c.eval_word(m, {true}), 42);
  EXPECT_EQ(c.eval_word(m, {false}), -17);
}

// ---------------------------------------------------------------------------
// Tseitin: the CNF encoding must be equisatisfiable and model-consistent.
// ---------------------------------------------------------------------------
TEST(Tseitin, SimpleConstraintSolvable) {
  Circuit c;
  const Word a = c.add_input_word(8);
  const CLit wants = c.eq(c.mul_const(a, 3), Circuit::word_const(51, 10));
  sat::Solver solver;
  TseitinEncoder enc(c, solver);
  // Pre-encode a's bits so the model can be decoded.
  (void)enc.lits(a);
  enc.assert_true(wants);
  ASSERT_EQ(solver.solve(), sat::SolveResult::kSat);
  EXPECT_EQ(enc.decode_word(a), 17);  // 3 * 17 = 51
}

TEST(Tseitin, UnsatisfiableConstraint) {
  Circuit c;
  const Word a = c.add_input_word(6);
  // a + a == 7 has no solution (even number).
  const CLit wants = c.eq(c.add(a, a), Circuit::word_const(7, 6));
  sat::Solver solver;
  TseitinEncoder enc(c, solver);
  enc.assert_true(wants);
  EXPECT_EQ(solver.solve(), sat::SolveResult::kUnsat);
}

TEST(Tseitin, RangeConstraintEnumerable) {
  Circuit c;
  const Word a = c.add_input_word(6);
  const CLit in_range =
      c.land(c.leq_signed(Circuit::word_const(-2, 3), a),
             c.leq_signed(a, Circuit::word_const(2, 3)));
  sat::Solver solver;
  TseitinEncoder enc(c, solver);
  (void)enc.lits(a);
  enc.assert_true(in_range);
  // Enumerate all models by blocking; must be exactly {-2,-1,0,1,2}.
  std::vector<i64> values;
  while (solver.solve() == sat::SolveResult::kSat) {
    const i64 v = enc.decode_word(a);
    values.push_back(v);
    sat::Clause block;
    for (const CLit bit : a) {
      const sat::Lit l = enc.lit_if_encoded(bit);
      block.push_back(solver.model_value(l) ? ~l : l);
    }
    solver.add_clause(std::move(block));
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<i64>{-2, -1, 0, 1, 2}));
}

}  // namespace
}  // namespace fannet::circuit
