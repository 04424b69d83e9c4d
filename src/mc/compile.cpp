#include "mc/compile.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fannet::mc {

using circuit::Circuit;
using circuit::CLit;
using circuit::Word;
using smv::Expr;
using smv::ExprId;
using smv::Op;
using smv::i64;

SmvCompiler::SmvCompiler(const smv::Module& module) : module_(module) {
  widths_.reserve(module.vars().size());
  for (std::size_t v = 0; v < module.vars().size(); ++v) {
    const std::size_t w = std::max(Circuit::min_width(module.domain_lo(v)),
                                   Circuit::min_width(module.domain_hi(v)));
    widths_.push_back(w);
  }
}

std::size_t SmvCompiler::var_width(std::size_t var) const {
  return widths_.at(var);
}

std::vector<Word> SmvCompiler::make_state_inputs(Circuit& c) const {
  std::vector<Word> state;
  state.reserve(widths_.size());
  for (const std::size_t w : widths_) state.push_back(c.add_input_word(w));
  return state;
}

CLit SmvCompiler::domain_constraint(Circuit& c, std::size_t var,
                                    const Word& w) const {
  const Word lo = Circuit::word_const(module_.domain_lo(var),
                                      Circuit::min_width(module_.domain_lo(var)));
  const Word hi = Circuit::word_const(module_.domain_hi(var),
                                      Circuit::min_width(module_.domain_hi(var)));
  return c.land(c.leq_signed(lo, w), c.leq_signed(w, hi));
}

i64 SmvCompiler::const_value(ExprId id) const {
  const Expr& e = module_.expr(id);
  switch (e.op) {
    case Op::kConst:
      return e.value;
    case Op::kNeg:
      return util::checked_sub(0, const_value(e.kids[0]));
    case Op::kAdd:
      return util::checked_add(const_value(e.kids[0]), const_value(e.kids[1]));
    case Op::kSub:
      return util::checked_sub(const_value(e.kids[0]), const_value(e.kids[1]));
    case Op::kMul:
      return util::checked_mul(const_value(e.kids[0]), const_value(e.kids[1]));
    default:
      throw InvalidArgument(
          "SmvCompiler: range bounds must be compile-time constants");
  }
}

SmvCompiler::Value SmvCompiler::compile(Ctx& ctx, ExprId id) const {
  const Expr& e = module_.expr(id);
  Circuit& c = ctx.c;
  const auto word_of = [&](ExprId k) { return as_word(ctx, compile(ctx, k)); };
  const auto bool_of = [&](ExprId k) { return as_bool(ctx, compile(ctx, k)); };
  const auto make_bool = [](CLit b) {
    Value v;
    v.is_bool = true;
    v.bit = b;
    return v;
  };
  const auto make_word = [](Word w) {
    Value v;
    v.word = std::move(w);
    return v;
  };

  switch (e.op) {
    case Op::kConst:
      return make_word(Circuit::word_const(e.value, Circuit::min_width(e.value)));
    case Op::kVarRef:
      return make_word(ctx.state.at(static_cast<std::size_t>(e.value)));
    case Op::kNextRef:
      if (ctx.next == nullptr) {
        throw InvalidArgument("SmvCompiler: next(...) outside TRANS context");
      }
      return make_word(ctx.next->at(static_cast<std::size_t>(e.value)));
    case Op::kDefRef: {
      const auto idx = static_cast<std::size_t>(e.value);
      if (ctx.define_cache.size() <= idx) ctx.define_cache.resize(idx + 1);
      if (!ctx.define_cache[idx].has_value()) {
        ctx.define_cache[idx] =
            compile(ctx, module_.defines()[idx].second);
      }
      return *ctx.define_cache[idx];
    }
    case Op::kNeg:
      return make_word(c.neg(word_of(e.kids[0])));
    case Op::kNot:
      return make_bool(~bool_of(e.kids[0]));
    case Op::kAdd:
      return make_word(c.add(word_of(e.kids[0]), word_of(e.kids[1])));
    case Op::kSub:
      return make_word(c.sub(word_of(e.kids[0]), word_of(e.kids[1])));
    case Op::kMul: {
      // One side must be constant (linear models only — the NN encoding
      // multiplies by weights, never variable*variable).
      const Expr& lhs = module_.expr(e.kids[0]);
      const Expr& rhs = module_.expr(e.kids[1]);
      if (lhs.op == Op::kConst) {
        return make_word(c.mul_const(word_of(e.kids[1]), lhs.value));
      }
      if (rhs.op == Op::kConst) {
        return make_word(c.mul_const(word_of(e.kids[0]), rhs.value));
      }
      throw InvalidArgument(
          "SmvCompiler: '*' requires one constant operand (linear encoding)");
    }
    case Op::kEq: case Op::kNe: {
      // Boolean = boolean comparison degenerates to iff.
      const Value a = compile(ctx, e.kids[0]);
      const Value b = compile(ctx, e.kids[1]);
      CLit eq;
      if (a.is_bool && b.is_bool) {
        eq = c.iff(a.bit, b.bit);
      } else {
        eq = c.eq(as_word(ctx, a), as_word(ctx, b));
      }
      return make_bool(e.op == Op::kEq ? eq : ~eq);
    }
    case Op::kLt:
      return make_bool(c.less_signed(word_of(e.kids[0]), word_of(e.kids[1])));
    case Op::kLe:
      return make_bool(c.leq_signed(word_of(e.kids[0]), word_of(e.kids[1])));
    case Op::kGt:
      return make_bool(c.less_signed(word_of(e.kids[1]), word_of(e.kids[0])));
    case Op::kGe:
      return make_bool(c.leq_signed(word_of(e.kids[1]), word_of(e.kids[0])));
    case Op::kAnd:
      return make_bool(c.land(bool_of(e.kids[0]), bool_of(e.kids[1])));
    case Op::kOr:
      return make_bool(c.lor(bool_of(e.kids[0]), bool_of(e.kids[1])));
    case Op::kXor:
      return make_bool(c.lxor(bool_of(e.kids[0]), bool_of(e.kids[1])));
    case Op::kImplies:
      return make_bool(c.implies(bool_of(e.kids[0]), bool_of(e.kids[1])));
    case Op::kIff:
      return make_bool(c.iff(bool_of(e.kids[0]), bool_of(e.kids[1])));
    case Op::kCase: {
      // Build the mux chain back-to-front; the final else is an arbitrary
      // zero with an unmatched-case obligation folded into conditions (we
      // require a TRUE default arm, as the evaluator does).
      Value result = make_word(Circuit::word_const(0, 1));
      bool first = true;
      for (std::size_t i = e.kids.size(); i >= 2; i -= 2) {
        const CLit cond = bool_of(e.kids[i - 2]);
        const Value arm = compile(ctx, e.kids[i - 1]);
        if (first) {
          result = arm;
          first = false;
          continue;
        }
        if (arm.is_bool && result.is_bool) {
          result = make_bool(c.mux(cond, arm.bit, result.bit));
        } else {
          result = make_word(
              c.mux_word(cond, as_word(ctx, arm), as_word(ctx, result)));
        }
      }
      return result;
    }
    case Op::kName:
      throw InvalidArgument("SmvCompiler: unresolved name '" + e.name + "'");
    case Op::kSet:
    case Op::kRange:
      throw InvalidArgument(
          "SmvCompiler: set/range only allowed in init()/next() right-hand "
          "sides");
  }
  throw InvalidArgument("SmvCompiler: corrupt expression node");
}

Word SmvCompiler::as_word(Ctx& ctx, const Value& v) const {
  if (!v.is_bool) return v.word;
  // false -> 0, true -> 1: two bits so the value stays non-negative.
  Word w(2, circuit::kFalse);
  w[0] = v.bit;
  (void)ctx;
  return w;
}

CLit SmvCompiler::as_bool(Ctx& ctx, const Value& v) const {
  if (v.is_bool) return v.bit;
  // Integer used as boolean: nonzero means true (matches the evaluator).
  return ~ctx.c.eq(v.word, Circuit::word_const(0, 1));
}

SmvCompiler::Choice SmvCompiler::compile_choice(Ctx& ctx, ExprId id) const {
  const Expr& e = module_.expr(id);
  Circuit& c = ctx.c;
  switch (e.op) {
    case Op::kSet: {
      const std::size_t n = e.kids.size();
      std::vector<Choice> alts;
      alts.reserve(n);
      for (const ExprId kid : e.kids) alts.push_back(compile_choice(ctx, kid));
      // Selector oracle: non-negative word with ceil(log2(n)) value bits.
      std::size_t sel_bits = 1;
      while ((std::size_t{1} << sel_bits) < n) ++sel_bits;
      Word sel = c.add_input_word(sel_bits + 1);  // +1 keeps it non-negative-capable
      CLit in_range = c.land(
          c.leq_signed(Circuit::word_const(0, 1), sel),
          c.less_signed(sel, Circuit::word_const(static_cast<i64>(n),
                                                 Circuit::min_width(static_cast<i64>(n)))));
      Choice out;
      out.value = alts.back().value;
      CLit chosen_constraint = alts.back().constraint;
      for (std::size_t i = n - 1; i-- > 0;) {
        const CLit is_i = c.eq(sel, Circuit::word_const(static_cast<i64>(i),
                                                        Circuit::min_width(static_cast<i64>(i))));
        out.value = c.mux_word(is_i, alts[i].value, out.value);
        chosen_constraint = c.mux(is_i, alts[i].constraint, chosen_constraint);
      }
      out.constraint = c.land(in_range, chosen_constraint);
      return out;
    }
    case Op::kRange: {
      const i64 lo = const_value(e.kids[0]);
      const i64 hi = const_value(e.kids[1]);
      if (lo > hi) throw InvalidArgument("SmvCompiler: empty range");
      const std::size_t w =
          std::max(Circuit::min_width(lo), Circuit::min_width(hi));
      Choice out;
      out.value = ctx.c.add_input_word(w);
      out.constraint =
          c.land(c.leq_signed(Circuit::word_const(lo, Circuit::min_width(lo)),
                              out.value),
                 c.leq_signed(out.value,
                              Circuit::word_const(hi, Circuit::min_width(hi))));
      return out;
    }
    case Op::kCase: {
      Choice result;
      result.value = Circuit::word_const(0, 1);
      result.constraint = circuit::kFalse;  // unmatched case: no transition
      bool first = true;
      for (std::size_t i = e.kids.size(); i >= 2; i -= 2) {
        const CLit cond = as_bool(ctx, compile(ctx, e.kids[i - 2]));
        Choice arm = compile_choice(ctx, e.kids[i - 1]);
        if (first) {
          // Last arm is the innermost else under its own condition.
          result.value = arm.value;
          result.constraint = c.land(cond, arm.constraint);
          first = false;
          continue;
        }
        result.value = c.mux_word(cond, arm.value, result.value);
        result.constraint =
            c.mux(cond, arm.constraint, result.constraint);
      }
      return result;
    }
    default: {
      Choice out;
      out.value = as_word(ctx, compile(ctx, id));
      return out;
    }
  }
}

CLit SmvCompiler::init_constraint(Circuit& c,
                                  const std::vector<Word>& state) const {
  Ctx ctx{c, state, nullptr, {}};
  CLit ok = circuit::kTrue;
  for (std::size_t v = 0; v < module_.vars().size(); ++v) {
    ok = c.land(ok, domain_constraint(c, v, state[v]));
    const ExprId init = module_.init_of(v);
    if (init == smv::kNoExpr) continue;
    const Choice ch = compile_choice(ctx, init);
    ok = c.land(ok, ch.constraint);
    ok = c.land(ok, c.eq(state[v], ch.value));
  }
  for (const ExprId e : module_.init_constraints()) {
    ok = c.land(ok, compile_bool(c, e, state));
  }
  for (const ExprId e : module_.invar_constraints()) {
    ok = c.land(ok, compile_bool(c, e, state));
  }
  return ok;
}

SmvCompiler::Step SmvCompiler::step(Circuit& c,
                                    const std::vector<Word>& state) const {
  Ctx ctx{c, state, nullptr, {}};
  Step out;
  out.valid = circuit::kTrue;
  out.next.reserve(module_.vars().size());
  for (std::size_t v = 0; v < module_.vars().size(); ++v) {
    const ExprId next = module_.next_of(v);
    Word value;
    if (next == smv::kNoExpr) {
      value = c.add_input_word(var_width(v));  // free oracle over the domain
    } else {
      Choice ch = compile_choice(ctx, next);
      out.valid = c.land(out.valid, ch.constraint);
      value = std::move(ch.value);
    }
    // Enforce the domain, then truncate to the variable's width (sound:
    // the constraint guarantees the wide value fits).
    out.valid = c.land(out.valid, domain_constraint(c, v, value));
    out.next.push_back(c.sext(value, var_width(v)));
  }
  for (const ExprId e : module_.trans_constraints()) {
    out.valid = c.land(out.valid, compile_bool(c, e, state, &out.next));
  }
  for (const ExprId e : module_.invar_constraints()) {
    out.valid = c.land(out.valid, compile_bool(c, e, out.next));
  }
  return out;
}

CLit SmvCompiler::compile_bool(Circuit& c, ExprId id,
                               const std::vector<Word>& state,
                               const std::vector<Word>* next) const {
  Ctx ctx{c, state, next, {}};
  return as_bool(ctx, compile(ctx, id));
}

}  // namespace fannet::mc
