// The Engine facade: routing, cross-method agreement, probability and
// 0-1-law helpers, the per-engine circuit cache, and per-point search
// stats on grounded sweeps.

#include "api/engine.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "closedforms/closed_forms.h"
#include "io/json.h"

namespace swfomc::api {
namespace {

using numeric::BigInt;
using numeric::BigRational;

TEST(EngineTest, RoutesFO2ToLifted) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_EQ(engine.Route(f), Method::kLiftedFO2);
}

TEST(EngineTest, RoutesGammaAcyclicCQ) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f =
      engine.Parse("exists x exists y exists z (R(x,y) & S(y,z))");
  EXPECT_EQ(engine.Route(f), Method::kGammaAcyclic);
}

TEST(EngineTest, RoutesTypedCycleToGrounded) {
  Engine engine{logic::Vocabulary{}};
  // C3 is a CQ but cyclic, and uses 3 variables: grounded.
  logic::Formula f = engine.Parse(
      "exists x exists y exists z (R1(x,y) & R2(y,z) & R3(z,x))");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

TEST(EngineTest, RoutesHighArityToGrounded) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x forall y !T(x,y,x)");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

TEST(EngineTest, RoutesConstantsAwayFromLifted) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x R(x,0)");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

TEST(EngineTest, ExplainRouteNamesTheFirstLiftabilityObstacle) {
  // The reason text is part of the CLI's JSON; fo2::CanCompileLifted
  // must reject exactly the sentences whose route names an obstacle.
  struct Case {
    const char* sentence;
    const char* obstacle;
  };
  for (const Case& c : {
           Case{"exists y R(x,y)", "not a sentence (free variables)"},
           Case{"forall x forall y forall z (R(x,y) | R(y,z))",
                "uses more than 2 variables"},
           Case{"forall x forall y !T(x,y,x)",
                "vocabulary has a relation of arity > 2"},
           Case{"forall x R(x,0)", "contains constants"},
       }) {
    SCOPED_TRACE(c.sentence);
    Engine engine{logic::Vocabulary{}};
    logic::Formula f = engine.Parse(c.sentence);
    RouteDecision decision = engine.ExplainRoute(f);
    EXPECT_EQ(decision.method, Method::kGrounded);
    EXPECT_EQ(decision.reason,
              std::string("grounded fallback: not an existential "
                          "conjunctive query; ") +
                  c.obstacle);
    EXPECT_FALSE(fo2::CanCompileLifted(f, engine.vocabulary()));
  }
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_EQ(engine.ExplainRoute(f).reason,
            "FO² sentence over arity <= 2 without constants "
            "(Appendix C cell algorithm, PTIME data complexity)");
  EXPECT_TRUE(fo2::CanCompileLifted(f, engine.vocabulary()));
}

TEST(EngineTest, MethodsAgreeOnFO2CQ) {
  // ∃x∃y (R(x,y) & T(y)) is simultaneously FO², a γ-acyclic CQ, and
  // groundable: all three answers must coincide.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x exists y (R(x,y) & T(y))");
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("R"), BigRational(2), BigRational(1));
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("T"), BigRational(1), BigRational(3));
  for (std::uint64_t n = 1; n <= 3; ++n) {
    BigRational lifted = engine.WFOMC(f, n, Method::kLiftedFO2).value;
    BigRational gamma = engine.WFOMC(f, n, Method::kGammaAcyclic).value;
    BigRational grounded = engine.WFOMC(f, n, Method::kGrounded).value;
    EXPECT_EQ(lifted, gamma) << n;
    EXPECT_EQ(lifted, grounded) << n;
  }
}

TEST(EngineTest, FomcForcesUnitWeightsAndRestores) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("R"), BigRational(7), BigRational(5));
  EXPECT_EQ(engine.FOMC(f, 4), closedforms::ForallExistsFOMC(4));
  // Weights restored afterwards.
  EXPECT_EQ(engine.vocabulary().positive_weight(
                engine.vocabulary().Require("R")),
            BigRational(7));
}

TEST(EngineTest, ProbabilityMatchesClosedForm) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists y S(y)");
  // Weights (1,1): Pr = (2^n - 1) / 2^n.
  EXPECT_EQ(engine.Probability(f, 5), BigRational::Fraction(31, 32));
}

TEST(EngineTest, MuConvergesToZeroForExistsForall) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x forall y R(x,y)");
  BigRational mu8 = engine.Mu(f, 8);
  BigRational mu16 = engine.Mu(f, 16);
  EXPECT_LT(mu16, mu8);  // µ_n -> 0
  EXPECT_LT(mu16, BigRational::Fraction(1, 1000));
}

TEST(EngineTest, MuConvergesToOneForForallExists) {
  // (1 - 2^{-n})^n -> 1 by Fagin's 0-1 law (the paper's intro has a typo
  // claiming 0; EXPERIMENTS.md discusses it).
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_GT(engine.Mu(f, 16), BigRational::Fraction(999, 1000));
}

TEST(EngineTest, MuConvergesToOneForExtensionStyleAxiom) {
  // ∀x∃y R(x,y) fails a.a.s., but ∃x∃y R(x,y) holds a.a.s.: µ_n -> 1.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x exists y R(x,y)");
  BigRational mu6 = engine.Mu(f, 6);
  EXPECT_GT(mu6, BigRational::Fraction(999, 1000));
}

TEST(EngineTest, HasModelOfSize) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f =
      engine.Parse("exists x exists y (x != y & R(x,y))");
  EXPECT_FALSE(engine.HasModelOfSize(f, 1));
  EXPECT_TRUE(engine.HasModelOfSize(f, 2));
}

TEST(EngineTest, MethodNames) {
  EXPECT_STREQ(ToString(Method::kLiftedFO2), "lifted-fo2");
  EXPECT_STREQ(ToString(Method::kGammaAcyclic), "gamma-acyclic");
  EXPECT_STREQ(ToString(Method::kGrounded), "grounded");
}

TEST(EngineTest, AutoRoutingProducesSameValueAsExplicit) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x forall y (R(x) | S(x,y) | T(y))");
  for (std::uint64_t n = 1; n <= 5; ++n) {
    Engine::Result result = engine.WFOMC(f, n);
    EXPECT_EQ(result.method, Method::kLiftedFO2);
    EXPECT_EQ(result.value.ToInteger(), closedforms::Table1FOMC(n)) << n;
  }
}

TEST(EngineCircuitCacheTest, NewRelationChangesTheCachedCount) {
  // A relation the sentence does not mention still multiplies the count,
  // so a circuit cached before the vocabulary grew must not answer after.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y S(x,y)");
  EXPECT_EQ(engine.WFOMC(f, 3).value, BigRational(343));
  engine.Parse("exists x U(x)");
  engine.mutable_vocabulary()->SetWeights(engine.vocabulary().Require("U"),
                                          BigRational(2), BigRational(1));
  Engine fresh{engine.vocabulary()};
  BigRational expected = fresh.WFOMC(f, 3).value;
  EXPECT_EQ(expected, BigRational(9261));
  EXPECT_EQ(engine.WFOMC(f, 3).value, expected);
  EXPECT_EQ(engine.circuit_cache().levels().circuits, 2u);
}

TEST(EngineCircuitCacheTest, InterleavedCallsMatchFreshEngines) {
  // FOMC and Mu swap in unit weights around a cached circuit compiled
  // under other weights; every answer must equal a fresh engine's.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y (R(x,y) & T(y))");
  engine.mutable_vocabulary()->SetWeights(engine.vocabulary().Require("R"),
                                          BigRational::Fraction(3, 2),
                                          BigRational(2));
  engine.mutable_vocabulary()->SetWeights(engine.vocabulary().Require("T"),
                                          BigRational(5),
                                          BigRational::Fraction(1, 3));
  for (std::uint64_t n = 1; n <= 4; ++n) {
    SCOPED_TRACE(n);
    auto fresh = [&] { return Engine{engine.vocabulary()}; };
    EXPECT_EQ(engine.FOMC(f, n), fresh().FOMC(f, n));
    EXPECT_EQ(engine.WFOMC(f, n).value, fresh().WFOMC(f, n).value);
    EXPECT_EQ(engine.Mu(f, n), fresh().Mu(f, n));
    EXPECT_EQ(engine.Probability(f, n), fresh().Probability(f, n));
  }
  EXPECT_EQ(engine.circuit_cache().levels().circuits, 1u);
}

TEST(EngineCircuitCacheTest, DomainZeroNeverCompiles) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y S(x,y)");
  EXPECT_EQ(engine.WFOMC(f, 0).value, BigRational(1));
  EXPECT_EQ(engine.WFOMCSweep(f, 0, 0).points.at(0).value, BigRational(1));
  EXPECT_EQ(engine.circuit_cache().levels().circuits, 0u);
  EXPECT_EQ(engine.WFOMC(f, 1).value, BigRational(1));
  EXPECT_EQ(engine.circuit_cache().levels().circuits, 1u);
}

TEST(EngineCircuitCacheTest, OneQueryPerCallAndNoNestedCompileSpan) {
  obs::MetricsRegistry metrics;
  std::ostringstream out;
  obs::TraceLog trace(&out);
  Engine::Options options;
  options.metrics = &metrics;
  options.trace = &trace;
  Engine engine{logic::Vocabulary{}, options};
  logic::Formula f = engine.Parse("forall x exists y S(x,y)");
  obs::Counter* queries = metrics.GetCounter("swfomc_engine_queries_total");
  auto added = [&, last = queries->Value()]() mutable {
    std::uint64_t now = queries->Value();
    std::uint64_t delta = now - last;
    last = now;
    return delta;
  };
  engine.WFOMC(f, 3);  // miss: compiles
  EXPECT_EQ(added(), 1u);
  engine.WFOMC(f, 4);  // hit
  EXPECT_EQ(added(), 1u);
  engine.FOMC(f, 3);
  EXPECT_EQ(added(), 1u);
  engine.Probability(f, 3);
  EXPECT_EQ(added(), 1u);
  engine.Mu(f, 3);
  EXPECT_EQ(added(), 1u);
  engine.WFOMCSweep(f, 1, 3);
  EXPECT_EQ(added(), 1u);

  std::istringstream lines(out.str());
  std::vector<std::string> names;
  for (std::string line; std::getline(lines, line);) {
    names.push_back(io::ParseJson(line, "<trace>").At("name").string);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"wfomc", "wfomc", "wfomc",
                                             "wfomc", "wfomc",
                                             "wfomc_sweep"}));
}

TEST(EngineSweepStatsTest, PerPointDecisionsSumToTheRegistryDelta) {
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    obs::MetricsRegistry metrics;
    std::ostringstream out;
    obs::TraceLog trace(&out);
    Engine::Options options;
    options.num_threads = threads;
    options.metrics = &metrics;
    options.trace = &trace;
    Engine engine{logic::Vocabulary{}, options};
    logic::Formula triangle = engine.Parse(
        "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))");
    obs::Counter* decisions =
        metrics.GetCounter("swfomc_dpll_decisions_total");
    std::uint64_t before = decisions->Value();
    Engine::SweepResult sweep = engine.WFOMCSweep(triangle, 2, 3);
    std::uint64_t summed = 0;
    for (const Engine::SweepPoint& point : sweep.points) {
      ASSERT_TRUE(point.grounded_stats.has_value()) << point.domain_size;
      summed += point.grounded_stats->decisions;
    }
    EXPECT_GT(summed, 0u);
    EXPECT_EQ(summed, decisions->Value() - before);
    io::JsonValue span = io::ParseJson(out.str(), "<trace>");
    EXPECT_EQ(span.At("name").string, "wfomc_sweep");
    EXPECT_EQ(span.At("decisions").string, std::to_string(summed));
  }
}

}  // namespace
}  // namespace swfomc::api
