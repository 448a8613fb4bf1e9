// Resource-governance overhead — the cost of being stoppable.
//
// A governed search pays one stop check per decision: an atomic flag
// load, a decision charge against the budget, and (every 64th check) a
// steady_clock deadline read. The rows below put an armed-but-idle
// budget (limits high enough never to fire) next to the ungoverned
// counter on the triangle blow-up workload, so BENCH_wmc.json records
// the per-decision overhead directly; the target is under 2% (the
// bench_check.py gate allows 25% before failing a PR). A third row
// measures the other end: how fast a tiny decision budget returns
// certified anytime bounds on an instance whose exact count takes far
// longer — the latency a `--budget-ms` caller actually experiences.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "runtime/budget.h"
#include "wmc/dpll_counter.h"

namespace {

using swfomc::runtime::Budget;
using swfomc::wmc::DpllCounter;

constexpr const char* kTriangle =
    "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))";

void BM_Budget_Ungoverned_Triangle(benchmark::State& state) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(kTriangle, &vocab);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMC(phi, vocab, n));
  }
}
BENCHMARK(BM_Budget_Ungoverned_Triangle)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// Identical search with a budget armed but never binding: every decision
// runs the full stop-check path (flag load, decision charge, periodic
// deadline read), and the count comes back kExact and bit-identical.
void BM_Budget_GovernedIdle_Triangle(benchmark::State& state) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(kTriangle, &vocab);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Budget budget;
    budget.SetWallClockMs(3'600'000);
    budget.SetMaxDecisions(std::uint64_t{1} << 40);
    DpllCounter::Options options;
    options.governance.budget = &budget;
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMCBounded(phi, vocab, n, options));
  }
}
BENCHMARK(BM_Budget_GovernedIdle_Triangle)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// Anytime latency: certified bounds from a search allowed only `range(1)`
// decisions on an instance whose exact count takes orders of magnitude
// longer (triangle n=6 runs ~45 s ungoverned on the CI baseline). This
// row is dominated by grounding + one bracketed descent, not by search.
void BM_Budget_AnytimeBounds_Triangle(benchmark::State& state) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(kTriangle, &vocab);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t cap = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    Budget budget;
    budget.SetMaxDecisions(cap);
    DpllCounter::Options options;
    options.governance.budget = &budget;
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMCBounded(phi, vocab, n, options));
  }
}
BENCHMARK(BM_Budget_AnytimeBounds_Triangle)
    ->Args({6, 64})
    ->Args({6, 1024})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
