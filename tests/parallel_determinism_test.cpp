// Determinism under parallelism — the property the ISSUE's tentpole
// stakes its soundness on: independent components are exact subproblems
// whose counts multiply commutatively and whose cached values are fully
// determined by their keys, so the grounded WFOMC result must be
// bit-identical for every thread count and every schedule. Stats are
// *not* schedule-deterministic (shared-cache hits change which subtrees
// get explored), but they must always satisfy the accounting invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/engine.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prop/tseitin.h"
#include "runtime/thread_pool.h"
#include "wmc/dpll_counter.h"

namespace swfomc {
namespace {

using numeric::BigRational;
using wmc::DpllCounter;

// At least 2 so the parallel machinery is exercised even on single-core
// CI runners and build containers.
unsigned StressThreads() {
  return std::max(2u, std::thread::hardware_concurrency());
}

void CheckStatsInvariants(const DpllCounter::Stats& stats) {
  EXPECT_LE(stats.cache_hits, stats.cache_lookups);
  EXPECT_LE(stats.cache_hits + stats.cache_collisions, stats.cache_lookups);
  EXPECT_LE(stats.cache_evictions, stats.cache_insertions);
  EXPECT_LE(stats.cache_entries,
            stats.cache_insertions - stats.cache_evictions);
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreBitIdentical) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);

  DpllCounter::Stats sequential_stats;
  BigRational sequential = grounding::GroundedWFOMC(phi, vocab, 4, {},
                                                    &sequential_stats);
  CheckStatsInvariants(sequential_stats);

  DpllCounter::Options parallel;
  parallel.num_threads = StressThreads();
  // Force forking deep into the search so the schedule space is large.
  parallel.parallel_min_component_vars = 2;
  for (int run = 0; run < 6; ++run) {
    SCOPED_TRACE("run=" + std::to_string(run));
    DpllCounter::Stats stats;
    BigRational result = grounding::GroundedWFOMC(phi, vocab, 4, parallel,
                                                  &stats);
    EXPECT_EQ(result, sequential);
    EXPECT_GT(stats.parallel_forks, 0u);
    CheckStatsInvariants(stats);
    // The search tree may shrink under different cache-hit interleavings
    // but never grows past the sequential one's bound by more than the
    // forked re-discoveries; decisions must stay positive and sane.
    EXPECT_GT(stats.decisions, 0u);
  }
}

TEST(ParallelDeterminism, ThreadCountSweepAgreesOnWeightedInstance) {
  // Fractional + negative weights: exactness must survive parallelism.
  logic::Vocabulary vocab;
  vocab.AddRelation("S", 2, BigRational::Fraction(1, 2), BigRational(-1));
  vocab.AddRelation("U", 1, BigRational(3), BigRational(1));
  logic::Formula phi = logic::Parse(
      "forall x exists y (S(x,y) | U(x))", &vocab);

  BigRational reference;
  for (unsigned threads : {1u, 2u, 3u, StressThreads()}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DpllCounter::Options options;
    options.num_threads = threads;
    options.parallel_min_component_vars = 2;
    DpllCounter::Stats stats;
    BigRational result =
        grounding::GroundedWFOMC(phi, vocab, 4, options, &stats);
    if (threads == 1) {
      reference = result;
    } else {
      EXPECT_EQ(result, reference);
    }
    CheckStatsInvariants(stats);
  }
}

TEST(ParallelDeterminism, TinyCacheBoundStaysExactUnderThreads) {
  // Eviction churn across striped shards must never corrupt a count.
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  BigRational reference = grounding::GroundedWFOMC(phi, vocab, 3);
  DpllCounter::Options options;
  options.num_threads = StressThreads();
  options.parallel_min_component_vars = 2;
  options.max_cache_entries = 32;  // per-shard bound becomes 2
  DpllCounter::Stats stats;
  EXPECT_EQ(grounding::GroundedWFOMC(phi, vocab, 3, options, &stats),
            reference);
  CheckStatsInvariants(stats);
  EXPECT_LE(stats.cache_entries, 32u);
}

TEST(ParallelDeterminism, EngineSweepParallelMatchesSequential) {
  logic::Vocabulary vocab;
  api::Engine sequential_engine(vocab);
  logic::Formula phi = sequential_engine.Parse(
      "exists x exists y (S(x,y) & S(y,x) & T(x))");
  api::Engine::SweepResult expected =
      sequential_engine.WFOMCSweep(phi, 1, 4, api::Method::kGrounded);

  api::Engine parallel_engine(sequential_engine.vocabulary(),
                              api::Engine::Options{StressThreads()});
  api::Engine::SweepResult actual =
      parallel_engine.WFOMCSweep(phi, 1, 4, api::Method::kGrounded);
  ASSERT_EQ(actual.points.size(), expected.points.size());
  for (std::size_t i = 0; i < actual.points.size(); ++i) {
    EXPECT_EQ(actual.points[i].domain_size, expected.points[i].domain_size);
    EXPECT_EQ(actual.points[i].value, expected.points[i].value);
  }
}

// Every swfomc_dpll_* counter in `registry` must equal its Stats field:
// the registry is written from the finished Stats, never from the search.
void ExpectRegistryEquals(obs::MetricsRegistry* registry,
                          const DpllCounter::Stats& stats) {
  auto value = [&](const char* name) {
    return registry->GetCounter(name)->Value();
  };
  EXPECT_EQ(value("swfomc_dpll_decisions_total"), stats.decisions);
  EXPECT_EQ(value("swfomc_dpll_propagations_total"), stats.unit_propagations);
  EXPECT_EQ(value("swfomc_dpll_component_splits_total"),
            stats.component_splits);
  EXPECT_EQ(value("swfomc_dpll_parallel_forks_total"), stats.parallel_forks);
  EXPECT_EQ(value("swfomc_dpll_cache_lookups_total"), stats.cache_lookups);
  EXPECT_EQ(value("swfomc_dpll_cache_hits_total"), stats.cache_hits);
  EXPECT_EQ(value("swfomc_dpll_cache_insertions_total"),
            stats.cache_insertions);
  EXPECT_EQ(value("swfomc_dpll_cache_evictions_total"),
            stats.cache_evictions);
}

// The grounded triangle lineage at `domain_size`, Tseitin-encoded and
// weighted exactly as GroundedWFOMC does it.
struct TriangleCnf {
  prop::CnfFormula cnf;
  wmc::WeightMap weights;
};

TriangleCnf GroundTriangle(std::uint64_t domain_size) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  grounding::TupleIndex index(vocab, domain_size);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      grounding::GroundLineage(phi, index),
      static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights =
      grounding::SymmetricGroundWeights(index, tseitin.cnf.variable_count);
  return TriangleCnf{std::move(tseitin.cnf), std::move(weights)};
}

TEST(CounterMetrics, RegistryEqualsStatsAtEveryThreadCount) {
  // Forked children's Stats fold into their parent's; the registry must
  // count that work once, not once per fold.
  TriangleCnf triangle = GroundTriangle(4);
  BigRational reference;
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry registry;
    DpllCounter::Options options;
    options.num_threads = threads;
    options.parallel_min_component_vars = 2;
    options.metrics = &registry;
    DpllCounter counter(triangle.cnf, triangle.weights, options);
    BigRational value = counter.Count();
    if (threads == 1) reference = value;
    EXPECT_EQ(value, reference);
    if (threads > 1) {
      EXPECT_GT(counter.stats().parallel_forks, 0u);
    }
    ExpectRegistryEquals(&registry, counter.stats());
  }
}

TEST(CounterMetrics, TracedCompileRegistryEqualsStatsAndSpanCarriesSize) {
  obs::MetricsRegistry registry;
  std::ostringstream trace_out;
  obs::TraceLog trace(&trace_out);
  api::Engine::Options options;
  options.metrics = &registry;
  options.trace = &trace;
  logic::Vocabulary vocab;
  api::Engine engine(vocab, options);
  logic::Formula phi = engine.Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))");
  api::CompileOptions compile;
  compile.domain_size = 3;
  compile.method = api::Method::kGrounded;
  api::CompileResult result = engine.Compile(phi, compile);
  ASSERT_TRUE(result.compiled.has_value());
  const DpllCounter::Stats& stats = result.compiled->compile_stats();
  EXPECT_GT(stats.decisions, 0u);
  ExpectRegistryEquals(&registry, stats);
  // The compile span itself reports the search size.
  std::string records = trace_out.str();
  std::size_t span = records.find("\"name\":\"compile\"");
  ASSERT_NE(span, std::string::npos) << records;
  std::string span_line = records.substr(span, records.find('\n', span) - span);
  EXPECT_NE(span_line.find("\"decisions\":" +
                           std::to_string(stats.decisions)),
            std::string::npos)
      << span_line;
}

TEST(CounterMetrics, RepeatedCountsAccumulatePerInvocationStats) {
  // The component cache persists across Count() calls but Stats are per
  // invocation, so the registry holds the sum of the two Stats.
  TriangleCnf triangle = GroundTriangle(4);
  obs::MetricsRegistry registry;
  DpllCounter::Options options;
  options.metrics = &registry;
  DpllCounter counter(triangle.cnf, triangle.weights, options);
  BigRational first = counter.Count();
  DpllCounter::Stats sum = counter.stats();
  EXPECT_EQ(counter.Count(), first);
  const DpllCounter::Stats& second = counter.stats();
  EXPECT_GT(second.cache_hits, 0u);
  sum.decisions += second.decisions;
  sum.unit_propagations += second.unit_propagations;
  sum.component_splits += second.component_splits;
  sum.parallel_forks += second.parallel_forks;
  sum.cache_lookups += second.cache_lookups;
  sum.cache_hits += second.cache_hits;
  sum.cache_insertions += second.cache_insertions;
  sum.cache_evictions += second.cache_evictions;
  ExpectRegistryEquals(&registry, sum);
}

TEST(ThreadPool, NestedGroupsAndExceptionPropagation) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);

  // Fork-join fan-out with nested groups: 4 * 8 increments, all counted.
  std::atomic<int> counter{0};
  {
    runtime::TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      group.Submit([&pool, &counter] {
        runtime::TaskGroup nested(&pool);
        for (int j = 0; j < 8; ++j) {
          nested.Submit([&counter] { ++counter; });
        }
        nested.Wait();
      });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 32);

  // The first exception surfaces in Wait; the pool survives for reuse.
  runtime::TaskGroup failing(&pool);
  failing.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.Wait(), std::runtime_error);

  runtime::TaskGroup after(&pool);
  after.Submit([&counter] { ++counter; });
  after.Wait();
  EXPECT_EQ(counter.load(), 33);
}

TEST(ThreadPool, SingleThreadPoolRunsTasksInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int runs = 0;
  runtime::TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) group.Submit([&runs] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(3), 3u);
  EXPECT_GE(runtime::ThreadPool::ResolveThreadCount(0), 1u);
}

}  // namespace
}  // namespace swfomc
