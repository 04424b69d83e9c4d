// Unit tests for the explicit-state model checker: reachability (the
// Fig.-3 counters) and invariant checking on small SMV models, including a
// nondeterministic INVAR + TRANS mix with hand-derived verdicts.
#include <gtest/gtest.h>

#include "core/translate.hpp"
#include "mc/explicit.hpp"
#include "smv/parser.hpp"
#include "util/error.hpp"

namespace fannet::mc {
namespace {

using smv::Module;
using smv::parse_module;

/// Simple bounded counter: x counts 0..7 and wraps.
Module counter_module() {
  return parse_module(R"(
MODULE main
VAR x : 0..7;
ASSIGN
  init(x) := 0;
  next(x) := case x < 7 : x + 1; TRUE : 0; esac;
INVARSPEC x <= 7
INVARSPEC x < 5
)");
}

TEST(Explicit, CounterReachability) {
  const Module m = counter_module();
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 8u);
  EXPECT_EQ(stats.num_transitions, 8u);  // deterministic ring
  EXPECT_EQ(stats.num_initial, 1u);
}

TEST(Explicit, InvariantHoldsAndFails) {
  const Module m = counter_module();
  const ExplicitChecker checker(m);
  EXPECT_TRUE(checker.check_spec(m.specs()[0]).holds);
  const InvariantResult r = checker.check_spec(m.specs()[1]);
  EXPECT_FALSE(r.holds);
  // BFS produces the shortest counterexample: 0,1,2,3,4,5.
  ASSERT_EQ(r.counterexample.states.size(), 6u);
  EXPECT_EQ(r.counterexample.states.front()[0], 0);
  EXPECT_EQ(r.counterexample.states.back()[0], 5);
}

TEST(Explicit, NondeterministicChoices) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN
  init(x) := {0, 1};
  next(x) := {x, 0};
)");
  const ExplicitChecker checker(m);
  EXPECT_EQ(checker.initial_states().size(), 2u);
  const auto succ = checker.successors({3});
  EXPECT_EQ(succ.size(), 2u);  // {3, 0}
  const auto self = checker.successors({0});
  EXPECT_EQ(self.size(), 1u);  // {0} deduplicated
}

TEST(Explicit, TransConstraintFiltersEdges) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN init(x) := 0;
TRANS next(x) = x + 1
)");
  // No ASSIGN next: the domain is filtered by TRANS to a single successor.
  const ExplicitChecker checker(m);
  const auto succ = checker.successors({1});
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0][0], 2);
  // From 3, x+1 = 4 is outside the domain: no successors at all.
  EXPECT_TRUE(checker.successors({3}).empty());
}

TEST(Explicit, InvarConstraintPrunesStates) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..9;
ASSIGN init(x) := {0,1,2,3,4,5,6,7,8,9};
INVAR x < 4
)");
  const ExplicitChecker checker(m);
  EXPECT_EQ(checker.initial_states().size(), 4u);
}

TEST(Explicit, DomainViolationThrows) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN init(x) := 0; next(x) := x + 1;
)");
  const ExplicitChecker checker(m);
  EXPECT_THROW(checker.successors({3}), InvalidArgument);
}

TEST(Explicit, StateCapEnforced) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..1000;
ASSIGN init(x) := 0; next(x) := 0..1000;
)");
  ExplicitOptions options;
  options.max_states = 10;
  const ExplicitChecker checker(m, options);
  EXPECT_THROW((void)checker.explore(), ResourceLimit);
}

// ---------------------------------------------------------------------------
// Fig. 3: the paper's state/transition counts.
// ---------------------------------------------------------------------------
TEST(Fig3, LabelFsmHas3States6Transitions) {
  const Module m = core::make_fig3_label_fsm();
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 3u);
  EXPECT_EQ(stats.num_transitions, 6u);
}

TEST(Fig3, NoiseFsmMatchesPaperAt1Percent) {
  // 6 input nodes (5 genes + bias), noise range [0,1]%: 65 states, 4160
  // transitions — the exact numbers in Fig. 3(c).
  const Module m = core::make_fig3_noise_fsm(6, 1);
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 65u);
  EXPECT_EQ(stats.num_transitions, 4160u);
}

TEST(Fig3, NoiseFsmFollowsClosedForm) {
  for (const auto& [nodes, delta] :
       std::vector<std::pair<std::size_t, int>>{{2, 1}, {3, 1}, {2, 3}, {4, 2}}) {
    const Module m = core::make_fig3_noise_fsm(nodes, delta);
    const ExplicitChecker checker(m);
    const ReachabilityStats stats = checker.explore();
    std::uint64_t box = 1;
    for (std::size_t i = 0; i < nodes; ++i) {
      box *= static_cast<std::uint64_t>(delta + 1);
    }
    EXPECT_EQ(stats.num_states, 1 + box);
    EXPECT_EQ(stats.num_transitions, box + box * box);
  }
}

/// A nondeterministic model with an INVAR + TRANS mix.  Both specs hold:
/// x starts at 0 and steps by 0 or 2, and `INVAR x != 6` rules out every
/// state with x = 6, so x stays in {0, 2, 4} and never reaches 10.
TEST(CrossEngine, AgreeOnMixedModel) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..15; y : boolean;
ASSIGN
  init(x) := 0; init(y) := FALSE;
  next(x) := {x, x + 2};
INVAR x != 6
TRANS next(y) = (next(x) > x)
INVARSPEC !(x = 10 & y)
INVARSPEC x != 6
)");
  const ExplicitChecker expl(m);
  ASSERT_EQ(m.specs().size(), 2u);
  for (const auto& spec : m.specs()) {
    EXPECT_TRUE(expl.check_spec(spec).holds);
  }
}

}  // namespace
}  // namespace fannet::mc
