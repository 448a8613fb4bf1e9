#ifndef SWFOMC_API_ENGINE_H_
#define SWFOMC_API_ENGINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fo2/lifted_compiler.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "nnf/circuit.h"
#include "nnf/lifted_circuit.h"
#include "numeric/bigint.h"
#include "numeric/rational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/budget.h"
#include "wmc/dpll_counter.h"
#include "wmc/weights.h"

namespace swfomc::api {

/// Which algorithm answered a query.
enum class Method {
  kAuto,          // request: let the engine route
  kLiftedFO2,     // Appendix C cell algorithm as a compiled lifted
                  // circuit (PTIME data complexity)
  kGammaAcyclic,  // Theorem 3.6 evaluator
  kGrounded,      // lineage + Tseitin + DPLL counter (exponential)
};

const char* ToString(Method method);

/// How a query ended under its governance (runtime/budget.h). Every
/// lifted-path query is kExact: the PTIME routes run ungoverned.
using runtime::Outcome;
using runtime::ToString;

/// Certified anytime bounds: lower <= exact <= upper, from the explored
/// part of a budget-stopped search (non-negative weights only).
struct BoundsResult {
  numeric::BigRational lower;
  numeric::BigRational upper;
};

/// The outcome of Auto routing, with the evidence behind it: `method` is
/// what Route() returns and `reason` a one-line human-readable
/// justification (why the chosen path applies, or — for the grounded
/// fallback — why each lifted path was rejected). Surfaced through the
/// CLI's JSON output so every run records which algorithm answered and
/// why.
struct RouteDecision {
  Method method = Method::kGrounded;
  std::string reason;
};

/// One relation's replacement weights for CompiledQuery evaluation.
struct RelationWeights {
  std::string relation;
  numeric::BigRational positive{1};
  numeric::BigRational negative{1};
};

/// A sentence compiled into a reusable arithmetic circuit
/// (Engine::Compile). Two kinds exist, distinguished by kind():
///
///   * kGrounded — a d-DNNF over ground tuples, compiled at a fixed
///     domain size: the exponential DPLL search over the grounded
///     lineage runs once and its trace is kept, so every subsequent
///     weight vector — a learning-loop step, a per-tenant reweighting —
///     is answered by one linear circuit pass instead of a fresh count.
///   * kLifted — a domain-parametric first-order circuit with counting
///     nodes (liftable FO² sentences only): one compile answers *every*
///     (domain size, weight vector) pair in time polynomial in n.
///
/// The compiled object is immutable and self-contained: it carries the
/// circuit, the compile-time vocabulary snapshot, and — for the grounded
/// kind — the ground-tuple → relation map that turns per-relation weights
/// into the circuit's per-variable weights.
class CompiledQuery {
 public:
  enum class Kind { kGrounded, kLifted };

  Kind kind() const { return kind_; }
  /// The grounded d-DNNF; empty (zero nodes… do not evaluate) for kLifted.
  const nnf::Circuit& circuit() const { return circuit_; }
  /// The domain-parametric circuit; empty for kGrounded.
  const nnf::LiftedCircuit& lifted_circuit() const { return lifted_circuit_; }
  /// The fixed compile-time domain size of a grounded circuit; 0 for
  /// kLifted (a lifted circuit has no fixed size — pass n to Evaluate).
  std::uint64_t domain_size() const { return domain_size_; }
  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  /// Ground tuple variables [0, tuple_count); higher variable ids are
  /// Tseitin auxiliaries and always weigh (1, 1).
  std::uint32_t tuple_count() const {
    return static_cast<std::uint32_t>(variable_relation_.size());
  }
  /// The count computed while compiling (under the compile-time weights);
  /// identical to WFOMC(Φ, n, Method::kGrounded). Grounded kind only — a
  /// lifted compile is domain-parametric and produces no single count.
  const numeric::BigRational& compile_count() const { return compile_count_; }
  /// The compiling search's counters (cache_* describe the trace memo).
  /// Grounded kind only.
  const wmc::DpllCounter::Stats& compile_stats() const {
    return compile_stats_;
  }
  /// The lifted compiler's counters. Lifted kind only.
  const fo2::LiftedCompileStats& lifted_compile_stats() const {
    return lifted_compile_stats_;
  }

  /// Approximate resident bytes: the circuit's arenas plus the ground
  /// tuple → relation map, the compile count's limb buffers, and the
  /// vocabulary snapshot's strings and weights. Lets CircuitCache bound
  /// its footprint.
  std::size_t MemoryBytes() const;

  /// WFOMC(Φ, n) with the listed relations' weights replaced (relations
  /// not listed keep their compile-time weights; zero and negative
  /// weights are fine — neither circuit kind depends on the weights). For
  /// the grounded kind `domain_size` must equal domain_size()
  /// (std::invalid_argument otherwise — a grounded circuit answers one
  /// n); the lifted kind accepts any n >= 1. `arena` is optional
  /// caller-owned scratch: one nnf::Circuit::EvalArena per evaluating
  /// thread, reused across calls, makes steady-state evaluation
  /// allocation-free (see circuit.h). Throws std::invalid_argument for an
  /// unknown relation name.
  numeric::BigRational Evaluate(std::uint64_t domain_size,
                                const std::vector<RelationWeights>& reweights,
                                nnf::Circuit::EvalArena* arena = nullptr) const;

  /// The per-variable weight map `reweights` induces over the grounded
  /// circuit (Tseitin auxiliaries weigh (1, 1)), for serialization (.nnf
  /// weight lines). Grounded kind only.
  wmc::WeightMap GroundWeights(
      const std::vector<RelationWeights>& reweights) const;

 private:
  friend class Engine;

  /// The per-relation weight vector `reweights` induces over the lifted
  /// circuit's (extended) relation table.
  nnf::LiftedCircuit::Weights LiftedWeights(
      const std::vector<RelationWeights>& reweights) const;

  /// Writes each replacement into `weights` (indexed by relation id),
  /// resolving names against the compile-time vocabulary; throws
  /// std::invalid_argument for an unknown relation.
  void OverlayReweights(const std::vector<RelationWeights>& reweights,
                        nnf::LiftedCircuit::Weights* weights) const;

  Kind kind_ = Kind::kGrounded;
  nnf::Circuit circuit_;
  nnf::LiftedCircuit lifted_circuit_;
  logic::Vocabulary vocabulary_;
  std::uint64_t domain_size_ = 0;
  std::vector<logic::RelationId> variable_relation_;
  numeric::BigRational compile_count_;
  wmc::DpllCounter::Stats compile_stats_;
  fo2::LiftedCompileStats lifted_compile_stats_;
};

const char* ToString(CompiledQuery::Kind kind);

/// What Engine::Compile should produce and under which resources.
struct CompileOptions {
  /// Required by the grounded compiler (it fixes n at compile time);
  /// ignored by the lifted compiler, whose circuit is domain-parametric.
  std::optional<std::uint64_t> domain_size;
  /// kAuto compiles liftable sentences into lifted circuits (unless
  /// `domain_size` is 0, see CanCompileLifted) and falls back to the
  /// grounded trace (at `domain_size`) otherwise. kLiftedFO2 and
  /// kGrounded force their compiler; kGammaAcyclic has no circuit form
  /// and is rejected.
  Method method = Method::kAuto;
  /// Governance for the grounded trace (the lifted compiler is
  /// polynomial and runs ungoverned).
  runtime::Governance governance{};
};

/// The outcome of Engine::Compile, shaped like Engine::Result: which
/// compiler ran, how it ended, and — exactly when `outcome` is kExact —
/// the compiled circuit. A grounded compilation the budget stops
/// mid-trace cannot be salvaged (the partial circuit would be wrong for
/// some weight vectors), so the trace is discarded and reported kAborted.
struct CompileResult {
  Outcome outcome = Outcome::kExact;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  Method method = Method::kGrounded;
  std::optional<CompiledQuery> compiled;
};

/// A bounded LRU of compiled circuits: each Engine keeps one for its
/// lifted points, and swfomc serve keeps one per server. Bounded by entry
/// count and resident bytes (CompiledQuery::MemoryBytes plus key and
/// bookkeeping overhead); a circuit bigger than the whole byte bound on
/// its own is served but not cached, mirroring ComponentCache's policy.
/// Thread-safe: lookups and inserts take one mutex, and compilation runs
/// outside it, so a slow compile never blocks lookups of other circuits.
class CircuitCache {
 public:
  static constexpr std::size_t kDefaultMaxCircuits = 64;
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  /// Where the cache counts its events and publishes its levels (not
  /// owned; a null instrument is skipped).
  struct Metrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* evicted_bytes = nullptr;  // bytes of the evicted entries
    obs::Gauge* circuits = nullptr;
    obs::Gauge* bytes = nullptr;
    obs::Gauge* bytes_peak = nullptr;
  };

  /// Resident entries and their bytes, and the bytes' high-water mark.
  struct Levels {
    std::size_t circuits = 0;
    std::size_t bytes = 0;
    std::size_t bytes_peak = 0;
  };

  CircuitCache();  // the default bounds, unpublished
  CircuitCache(std::size_t max_circuits, std::size_t max_bytes,
               Metrics metrics);

  CircuitCache(const CircuitCache&) = delete;
  CircuitCache& operator=(const CircuitCache&) = delete;

  struct Lookup {
    /// The circuit; null when a miss's compile did not end exact.
    std::shared_ptr<const CompiledQuery> query;
    /// Served from the cache, without compiling.
    bool cached = false;
    /// A miss's compile outcome (its circuit moved into `query`).
    CompileResult compile;
  };

  /// The circuit `method` (kLiftedFO2 or kGrounded) compiles for
  /// `sentence` over `vocabulary`: from the cache, or from `compile` on a
  /// miss, caching an exact result. The key is the canonical sentence,
  /// the vocabulary's relation signature (names and arities in id order —
  /// a relation the sentence does not mention still changes the count),
  /// and, for a grounded circuit only, `domain_size`; the weights are not
  /// part of it, since no circuit depends on them.
  Lookup GetOrCompile(const logic::Formula& sentence,
                      const logic::Vocabulary& vocabulary, Method method,
                      std::uint64_t domain_size,
                      const std::function<CompileResult()>& compile);

  Levels levels() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledQuery> query;
    std::size_t bytes = 0;
  };

  /// Inserts (or refreshes) a circuit and evicts past either bound.
  void Insert(const std::string& key,
              std::shared_ptr<const CompiledQuery> query);

  const std::size_t max_circuits_;
  const std::size_t max_bytes_;
  const Metrics metrics_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // most recently used at the front
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Levels levels_;
};

/// The library facade: one entry point for symmetric WFOMC over a weighted
/// vocabulary. `Auto` routing sends
///   * FO² sentences (arity <= 2, no constants) to the lifted cell
///     algorithm, run as a compiled lifted circuit (fo2::CompileLifted
///     plus nnf::LiftedCircuit::Evaluate — the same circuit Compile
///     returns),
///   * existentially-quantified conjunctions of distinct positive atoms
///     whose hypergraph is γ-acyclic to the Theorem 3.6 evaluator,
///   * everything else to the grounded DPLL engine.
/// Routing never changes the answer, only the complexity — and neither
/// does threading: every parallel configuration returns counts
/// bit-identical to the sequential ones. Each engine compiles a lifted
/// sentence once: its CircuitCache keeps the circuit for every later
/// WFOMC, FOMC, Probability, Mu or WFOMCSweep call on the same sentence
/// and relation signature, evaluated under the engine's weights at the
/// time of the call.
class Engine {
 public:
  struct Options {
    /// Worker threads for the grounded path (independent-component
    /// solving inside the DPLL counter) and for WFOMCSweep's concurrent
    /// sweep points. 1 = fully sequential; 0 = one per hardware thread.
    unsigned num_threads = 1;
    /// Live observability (not owned; null = disabled). The registry
    /// receives per-method route counters and is forwarded into the
    /// DPLL counter and its pool; the trace log gets one span per
    /// WFOMC/WFOMCSweep/Compile call (with a fresh query id), and a
    /// grounded WFOMC or Compile span carries the search's decisions,
    /// propagations and splits. Neither changes any result bit.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceLog* trace = nullptr;
  };

  explicit Engine(logic::Vocabulary vocabulary);
  Engine(logic::Vocabulary vocabulary, Options options);

  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  logic::Vocabulary* mutable_vocabulary() { return &vocabulary_; }

  /// Parses a sentence against (and possibly extending) the vocabulary.
  logic::Formula Parse(const std::string& text);

  /// One answered domain size: WFOMC(Φ, n) and how its count ended.
  struct SweepPoint {
    std::uint64_t domain_size = 0;
    /// The exact count when `outcome` is kExact; the certified lower
    /// bound (== bounds->lower) for kBounds; zero for kAborted.
    numeric::BigRational value;
    Outcome outcome = Outcome::kExact;
    /// Set exactly when `outcome` is kBounds.
    std::optional<BoundsResult> bounds;
    /// Why a governed query stopped (kNone when it ran to completion).
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
    /// The DPLL counter's search/cache counters when the point was
    /// counted grounded (the lifted paths never run the counter).
    std::optional<wmc::DpllCounter::Stats> grounded_stats;
  };

  /// A single-point answer: the point plus which algorithm answered it.
  struct Result : SweepPoint {
    Method method = Method::kGrounded;
  };

  /// Symmetric WFOMC(Φ, n, w, w̄): the one-point WFOMCSweep. A grounded
  /// search stopped by `governance` reports Outcome::kBounds (or
  /// kAborted) instead of spinning.
  Result WFOMC(const logic::Formula& sentence, std::uint64_t domain_size,
               Method method = Method::kAuto,
               const runtime::Governance& governance = {});

  struct SweepResult {
    Method method = Method::kGrounded;
    /// kExact when every point is exact; else the worst point outcome
    /// (kAborted dominates kBounds). A shared budget keeps draining
    /// across points, so later points typically degrade first… to
    /// brackets computed in O(component) time.
    Outcome outcome = Outcome::kExact;
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
    std::vector<SweepPoint> points;  // one per n, ascending
  };

  /// Batched WFOMC(Φ, n, w, w̄) for every n in [n_lo, n_hi] — the
  /// domain-size sweep the paper's experiments run. Routes once and
  /// reuses the shared structure a point-by-point loop rebuilds:
  ///   * lifted FO²: the engine's one lifted circuit for the sentence
  ///     and one binomial table serve every point's evaluation;
  ///   * γ-acyclic: the conjunctive query and its weight map are
  ///     extracted once;
  ///   * grounded: sweep points are independent and run concurrently on
  ///     the thread pool when Options::num_threads != 1; each point
  ///     carries its own grounded_stats.
  /// Results are bit-identical to calling WFOMC per point, in every
  /// threading configuration. `governance` covers the whole sweep (one
  /// budget drains across every point). Throws std::invalid_argument
  /// when n_lo > n_hi.
  SweepResult WFOMCSweep(const logic::Formula& sentence, std::uint64_t n_lo,
                         std::uint64_t n_hi, Method method = Method::kAuto,
                         const runtime::Governance& governance = {});

  /// Compiles a sentence into a reusable circuit. Routing (under kAuto):
  ///   * liftable FO² sentences (CanCompileLifted) compile once into a
  ///     domain-parametric lifted circuit — no domain size needed, every
  ///     n >= 1 answered by CompiledQuery::Evaluate(n, reweights);
  ///   * everything else runs the grounded path (lineage + Tseitin —
  ///     every sentence the grounded method accepts is compilable): the
  ///     DPLL counter searches once in tracing mode at the required
  ///     options.domain_size, and the trace is the circuit.
  /// Grounded compilation cost is one sequential grounded count with
  /// zero-weight pruning off; each Evaluate afterwards is linear in the
  /// circuit. Throws std::invalid_argument when the grounded path is
  /// taken without a domain size, and for Method::kGammaAcyclic (the
  /// Theorem 3.6 evaluator has no circuit form). A grounded trace that
  /// options.governance stops is discarded and reported kAborted.
  CompileResult Compile(const logic::Formula& sentence,
                        const CompileOptions& options = {});

  /// True when Compile would produce a lifted circuit for this sentence
  /// under Method::kAuto: the sentence is in FO² (arity <= 2, no
  /// constants) and `domain_size`, when given, is at least 1 — a lifted
  /// circuit is valid for n >= 1 only, so n = 0 is answered grounded.
  bool CanCompileLifted(
      const logic::Formula& sentence,
      std::optional<std::uint64_t> domain_size = std::nullopt) const;

  /// FOMC(Φ, n): WFOMC with all weights forced to (1, 1).
  numeric::BigInt FOMC(const logic::Formula& sentence,
                       std::uint64_t domain_size,
                       Method method = Method::kAuto);

  /// Pr(Φ) under the symmetric tuple-independent distribution, i.e.
  /// WFOMC(Φ) / WFOMC(true). Requires w + w̄ != 0 for every relation.
  numeric::BigRational Probability(const logic::Formula& sentence,
                                   std::uint64_t domain_size,
                                   Method method = Method::kAuto);

  /// The asymptotic fraction µ_n(Φ) of labeled structures satisfying Φ
  /// (Section 1, "0-1 Laws"): Probability with weights (1, 1).
  numeric::BigRational Mu(const logic::Formula& sentence,
                          std::uint64_t domain_size);

  /// Spectrum membership: does Φ have a model of size n?
  bool HasModelOfSize(const logic::Formula& sentence,
                      std::uint64_t domain_size);

  /// The engine's lifted circuits (for inspection/testing).
  const CircuitCache& circuit_cache() const { return circuits_; }

  /// The routing decision Auto would take (for inspection/testing).
  Method Route(const logic::Formula& sentence) const;

  /// Route() plus the reason for the decision — the introspection the
  /// CLI's reports are built on. Route(s) == ExplainRoute(s).method.
  RouteDecision ExplainRoute(const logic::Formula& sentence) const;

 private:
  /// The one route switch behind WFOMC and WFOMCSweep: fills every
  /// point's answer (its domain_size preset) by `method` (not kAuto).
  /// `who` prefixes error messages.
  void CountPoints(const logic::Formula& sentence, Method method,
                   const runtime::Governance& governance, const char* who,
                   std::span<SweepPoint> points);

  /// Compile's lifted leg, without its query scope.
  CompileResult CompileLifted(const logic::Formula& sentence) const;

  logic::Vocabulary vocabulary_;
  Options options_;
  CircuitCache circuits_;  // lifted circuits only
};

}  // namespace swfomc::api

#endif  // SWFOMC_API_ENGINE_H_
