// E10 — Section 1, "0-1 Laws": µ_n(Φ) computed exactly.
//
// µ_n(Φ) is the fraction of labeled structures over [n] satisfying Φ.
// Fagin's 0-1 law says µ_n(Φ) converges to 0 or 1 for every FO sentence;
// the paper's #P1-hardness result shows there is no *elementary* proof by
// closed-form counting (no closed formula for FOMC(Φ, n) is computable in
// general). Here we do what can be done: compute µ_n exactly with
// BigRational for a basket of sentences via the lifted FO² engine and
// watch the convergence direction.
//
// Note: the paper's intro misstates the limit for ∀x∃y R(x,y) as 0; the
// correct value of (2^n-1)^n / 2^(n^2) = (1 - 2^-n)^n is -> 1 (consistent
// with Fagin's law: the extension axiom side wins). EXPERIMENTS.md
// discusses the discrepancy; the code reports the computed truth.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "api/engine.h"
#include "closedforms/closed_forms.h"
#include "logic/parser.h"

namespace {

using swfomc::numeric::BigRational;

struct Sentence {
  const char* text;
  const char* expected_limit;
  std::uint64_t max_n;  // sized to the sentence's 1-type count
};

swfomc::logic::Vocabulary UnitVocabulary() {
  swfomc::logic::Vocabulary vocab;
  vocab.AddRelation("R", 2);
  vocab.AddRelation("U", 1);
  return vocab;
}

double ToDouble(const BigRational& value) { return value.ToDouble(); }

void PrintTable() {
  std::printf("== Section 1: 0-1 laws, mu_n(Phi) computed exactly ==\n\n");
  std::vector<Sentence> sentences = {
      {"forall x exists y R(x,y)", "1", 32},
      {"exists x forall y !R(x,y)", "0", 16},
      {"exists y U(y)", "1", 32},
      {"forall x U(x)", "0", 32},
      {"forall x R(x,x)", "0", 32},
      {"exists x exists y (x != y & R(x,y) & R(y,x))", "1", 8},
      {"forall x forall y (R(x,y) -> R(y,x))", "0", 32},
  };
  std::printf("%-46s %-10s %s\n", "sentence", "limit", "mu_n for n = "
              "1, 2, 4, 8, ... (doubling up to the per-sentence cap)");
  for (const Sentence& s : sentences) {
    swfomc::logic::Vocabulary vocab = UnitVocabulary();
    swfomc::logic::Formula phi = swfomc::logic::ParseStrict(s.text, vocab);
    swfomc::api::Engine engine(vocab);
    std::printf("%-46s %-10s", s.text, s.expected_limit);
    for (std::uint64_t n = 1; n <= s.max_n; n *= 2) {
      BigRational mu =
          engine.Probability(phi, n, swfomc::api::Method::kLiftedFO2);
      std::printf(" %.6f", ToDouble(mu));
    }
    std::printf("\n");
  }

  std::printf("\n-- The intro's worked example, exactly --\n");
  std::printf("%4s  %-24s %s\n", "n", "FOMC(forall x exists y R)",
              "mu_n = (2^n-1)^n / 2^(n^2)");
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 4ULL, 8ULL, 16ULL}) {
    swfomc::numeric::BigInt count =
        swfomc::closedforms::ForallExistsFOMC(n);
    BigRational mu(count, swfomc::closedforms::WorldCount(n * n));
    std::printf("%4llu  %-24s %.9f\n", static_cast<unsigned long long>(n),
                count.ToString().c_str(), ToDouble(mu));
  }
  std::printf("\nEvery mu_n above is an exact rational; the printed\n"
              "decimals are display-only. Timings: exact mu_n via the\n"
              "lifted engine as n grows.\n\n");
}

void BM_ZeroOne_LiftedMu(benchmark::State& state) {
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  swfomc::logic::Vocabulary vocab = UnitVocabulary();
  swfomc::logic::Formula phi =
      swfomc::logic::ParseStrict("forall x exists y R(x,y)", vocab);
  swfomc::api::Engine engine(vocab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Probability(phi, n, swfomc::api::Method::kLiftedFO2));
  }
}
BENCHMARK(BM_ZeroOne_LiftedMu)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ZeroOne_ClosedForm(benchmark::State& state) {
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(swfomc::closedforms::ForallExistsFOMC(n));
  }
}
BENCHMARK(BM_ZeroOne_ClosedForm)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
