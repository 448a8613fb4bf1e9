#include "api/engine.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "cq/acyclicity.h"
#include "cq/gamma_evaluator.h"
#include "fo2/cell_algorithm.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "logic/parser.h"
#include "nnf/circuit_builder.h"
#include "numeric/combinatorics.h"
#include "prop/tseitin.h"
#include "reductions/spectrum.h"
#include "runtime/thread_pool.h"

namespace swfomc::api {

namespace {

using logic::Formula;
using logic::FormulaKind;
using numeric::BigRational;

// Recognizes ∃x⃗ (R_1(..) & .. & R_k(..)) with distinct positive atoms over
// variables only; returns the CQ or nullopt.
std::optional<cq::ConjunctiveQuery> AsConjunctiveQuery(
    const Formula& sentence, const logic::Vocabulary& vocabulary) {
  Formula body = sentence;
  while (body->kind() == FormulaKind::kExists) body = body->child();
  std::vector<Formula> atoms;
  if (body->kind() == FormulaKind::kAtom) {
    atoms.push_back(body);
  } else if (body->kind() == FormulaKind::kAnd) {
    for (const Formula& child : body->children()) {
      if (child->kind() != FormulaKind::kAtom) return std::nullopt;
      atoms.push_back(child);
    }
  } else {
    return std::nullopt;
  }
  cq::ConjunctiveQuery query;
  for (const Formula& atom : atoms) {
    std::vector<std::string> variables;
    for (const logic::Term& term : atom->arguments()) {
      if (!term.IsVariable()) return std::nullopt;
      variables.push_back(term.name);
    }
    try {
      query.AddAtom(vocabulary.name(atom->relation()), std::move(variables));
    } catch (const std::invalid_argument&) {
      return std::nullopt;  // self-join
    }
  }
  // All quantified variables must appear in atoms (and the sentence must
  // be closed).
  if (!logic::IsSentence(sentence)) return std::nullopt;
  return query;
}

// Forces every relation's weights to (1, 1) for the lifetime of the
// guard; the original vocabulary is restored on scope exit, including
// when the guarded computation throws.
class ScopedUnitWeights {
 public:
  explicit ScopedUnitWeights(logic::Vocabulary* vocabulary)
      : vocabulary_(vocabulary), saved_(*vocabulary) {
    for (logic::RelationId id = 0; id < vocabulary_->size(); ++id) {
      vocabulary_->SetWeights(id, 1, 1);
    }
  }
  ~ScopedUnitWeights() { *vocabulary_ = std::move(saved_); }

  ScopedUnitWeights(const ScopedUnitWeights&) = delete;
  ScopedUnitWeights& operator=(const ScopedUnitWeights&) = delete;

 private:
  logic::Vocabulary* vocabulary_;
  logic::Vocabulary saved_;
};

// The counter options of one grounded search issued by the engine: its
// thread count, the call's governance, and the engine's metrics registry.
wmc::DpllCounter::Options CounterOptions(
    const Engine::Options& engine, unsigned num_threads,
    const runtime::Governance& governance) {
  wmc::DpllCounter::Options options;
  options.num_threads = num_threads;
  options.governance = governance;
  options.metrics = engine.metrics;
  return options;
}

// Method names as metric-name fragments ('-' is not a valid metric
// character, so these diverge from ToString).
const char* MethodMetricSuffix(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kLiftedFO2: return "lifted_fo2";
    case Method::kGammaAcyclic: return "gamma_acyclic";
    case Method::kGrounded: return "grounded";
  }
  return "unknown";
}

// One engine-level query boundary: counts the route decision, claims a
// query id, and opens a sampled span. Every entry point (WFOMC, sweep,
// compile) funnels through this so metric names cannot drift apart.
struct QueryScope {
  obs::TraceLog::Span span;

  QueryScope(const Engine::Options& options, const char* op, Method method) {
    if (options.metrics != nullptr) {
      options.metrics
          ->GetCounter("swfomc_engine_queries_total",
                       "Engine-level query entries (wfomc, sweep, compile)")
          ->Add();
      options.metrics
          ->GetCounter(std::string("swfomc_engine_route_") +
                           MethodMetricSuffix(method) + "_total",
                       "Queries routed to this method")
          ->Add();
    }
    if (options.trace != nullptr) {
      std::uint64_t query_id = options.trace->NextQueryId();
      if (options.trace->SampledQuery(query_id)) {
        span = options.trace->BeginSpan(op);
        span.Num("query", query_id).Str("method", ToString(method));
      }
    }
  }
};

// Adds a grounded search's size to its query span.
void AddSearchFields(const wmc::DpllCounter::Stats& stats,
                     obs::TraceLog::Span* span) {
  span->Num("decisions", stats.decisions)
      .Num("propagations", stats.unit_propagations)
      .Num("splits", stats.component_splits);
}

// Resident bytes of a vocabulary snapshot: the relation records, both
// copies of every name (the record and the by-name index key), the weight
// limb buffers, and an approximation of the index's per-entry node
// overhead. Counted so a circuit cache cannot be undercounted by many
// small circuits carrying long relation names.
std::size_t VocabularyBytes(const logic::Vocabulary& vocabulary) {
  std::size_t bytes = 0;
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    bytes += sizeof(logic::Vocabulary::Relation) +
             2 * vocabulary.name(id).capacity() +
             vocabulary.positive_weight(id).HeapBytes() +
             vocabulary.negative_weight(id).HeapBytes() +
             4 * sizeof(void*);  // by-name hash node
  }
  return bytes;
}

}  // namespace

const char* ToString(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kLiftedFO2: return "lifted-fo2";
    case Method::kGammaAcyclic: return "gamma-acyclic";
    case Method::kGrounded: return "grounded";
  }
  return "?";
}

const char* ToString(CompiledQuery::Kind kind) {
  switch (kind) {
    case CompiledQuery::Kind::kGrounded: return "grounded";
    case CompiledQuery::Kind::kLifted: return "lifted";
  }
  return "?";
}

Engine::Engine(logic::Vocabulary vocabulary)
    : Engine(std::move(vocabulary), Options{}) {}

Engine::Engine(logic::Vocabulary vocabulary, Options options)
    : vocabulary_(std::move(vocabulary)), options_(options) {}

logic::Formula Engine::Parse(const std::string& text) {
  return logic::Parse(text, &vocabulary_);
}

Method Engine::Route(const logic::Formula& sentence) const {
  return ExplainRoute(sentence).method;
}

RouteDecision Engine::ExplainRoute(const logic::Formula& sentence) const {
  // Rejection evidence for the grounded fallback's reason line.
  std::string cq_obstacle;

  // γ-acyclic CQ path: needs probability conversion, so w + w̄ != 0.
  if (auto query = AsConjunctiveQuery(sentence, vocabulary_)) {
    std::string zero_total_relation;
    for (const auto& atom : query->atoms()) {
      logic::RelationId id = vocabulary_.Require(atom.relation);
      if ((vocabulary_.positive_weight(id) + vocabulary_.negative_weight(id))
              .IsZero()) {
        zero_total_relation = atom.relation;
        break;
      }
    }
    if (!zero_total_relation.empty()) {
      cq_obstacle = "conjunctive query but relation " + zero_total_relation +
                    " has w + w̄ = 0";
    } else if (cq::IsGammaAcyclic(cq::BuildHypergraph(*query))) {
      return RouteDecision{
          Method::kGammaAcyclic,
          "existential conjunctive query with a gamma-acyclic hypergraph "
          "(Theorem 3.6 evaluator, PTIME)"};
    } else {
      cq_obstacle = "conjunctive query but its hypergraph is not "
                    "gamma-acyclic";
    }
  } else {
    cq_obstacle = "not an existential conjunctive query";
  }

  const char* fo2_obstacle = fo2::LiftabilityObstacle(sentence, vocabulary_);
  if (fo2_obstacle == nullptr) {
    return RouteDecision{
        Method::kLiftedFO2,
        "FO² sentence over arity <= 2 without constants "
        "(Appendix C cell algorithm, PTIME data complexity)"};
  }

  return RouteDecision{Method::kGrounded,
                       "grounded fallback: " + cq_obstacle + "; " +
                           fo2_obstacle};
}

Engine::Result Engine::WFOMC(const logic::Formula& sentence,
                             std::uint64_t domain_size, Method method,
                             const runtime::Governance& governance) {
  if (method == Method::kAuto) method = Route(sentence);
  QueryScope scope(options_, "wfomc", method);
  scope.span.Num("n", domain_size);
  Result result;
  result.method = method;
  result.domain_size = domain_size;
  SweepPoint& point = result;
  CountPoints(sentence, method, governance, "Engine::WFOMC", {&point, 1});
  if (result.grounded_stats.has_value()) {
    AddSearchFields(*result.grounded_stats, &scope.span);
  }
  scope.span.Str("outcome", ToString(result.outcome));
  return result;
}

Engine::SweepResult Engine::WFOMCSweep(
    const logic::Formula& sentence, std::uint64_t n_lo, std::uint64_t n_hi,
    Method method, const runtime::Governance& governance) {
  if (n_lo > n_hi) {
    throw std::invalid_argument("Engine::WFOMCSweep: n_lo > n_hi");
  }
  // One point per size; [0, 2^64-1] would wrap the count to zero.
  if (n_hi - n_lo == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument("Engine::WFOMCSweep: range too large");
  }
  if (method == Method::kAuto) method = Route(sentence);
  QueryScope scope(options_, "wfomc_sweep", method);
  scope.span.Num("n_lo", n_lo).Num("n_hi", n_hi);
  SweepResult sweep;
  sweep.method = method;
  sweep.points.resize(static_cast<std::size_t>(n_hi - n_lo + 1));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    sweep.points[i].domain_size = n_lo + i;
  }
  CountPoints(sentence, method, governance, "Engine::WFOMCSweep",
              sweep.points);
  wmc::DpllCounter::Stats searched;  // the three span fields, summed
  for (const SweepPoint& point : sweep.points) {
    if (point.grounded_stats.has_value()) {
      searched.decisions += point.grounded_stats->decisions;
      searched.unit_propagations += point.grounded_stats->unit_propagations;
      searched.component_splits += point.grounded_stats->component_splits;
    }
    if (point.outcome == Outcome::kAborted ||
        (point.outcome == Outcome::kBounds &&
         sweep.outcome == Outcome::kExact)) {
      sweep.outcome = point.outcome;
    }
    if (sweep.stop_reason == runtime::StopReason::kNone) {
      sweep.stop_reason = point.stop_reason;
    }
  }
  if (method == Method::kGrounded) AddSearchFields(searched, &scope.span);
  return sweep;
}

void Engine::CountPoints(const logic::Formula& sentence, Method method,
                         const runtime::Governance& governance,
                         const char* who, std::span<SweepPoint> points) {
  switch (method) {
    case Method::kLiftedFO2: {
      // The engine's cached lifted circuit under the current weights, with
      // one Pascal-row table and value column per call, evaluated at every
      // n >= 1. At n = 0 the normal form behind the circuit is invalid, so
      // that point enumerates the 0-ary worlds directly; the lookup waits
      // for the first n >= 1 point so an n = 0 call never compiles.
      std::shared_ptr<const CompiledQuery> compiled;
      nnf::LiftedCircuit::Weights weights;
      numeric::BinomialTable binomials;
      std::vector<BigRational> values;
      for (SweepPoint& point : points) {
        if (point.domain_size == 0) {
          point.value = fo2::LiftedWFOMC(sentence, vocabulary_, 0);
          continue;
        }
        if (compiled == nullptr) {
          compiled = circuits_
                         .GetOrCompile(sentence, vocabulary_,
                                       Method::kLiftedFO2, 0,
                                       [&] { return CompileLifted(sentence); })
                         .query;
          // The circuit's relation table extends the vocabulary in id
          // order; the appended Def/Sk predicates keep their fixed weights.
          weights = compiled->lifted_circuit().DefaultWeights();
          for (logic::RelationId id = 0; id < vocabulary_.size(); ++id) {
            weights[id] = {vocabulary_.positive_weight(id),
                           vocabulary_.negative_weight(id)};
          }
        }
        point.value = compiled->lifted_circuit().Evaluate(
            point.domain_size, weights, &binomials, &values);
      }
      return;
    }
    case Method::kGammaAcyclic: {
      auto query = AsConjunctiveQuery(sentence, vocabulary_);
      if (!query.has_value()) {
        throw std::invalid_argument(std::string(who) +
                                    ": sentence is not a conjunctive query");
      }
      std::map<std::string, std::pair<BigRational, BigRational>> weights;
      for (const auto& atom : query->atoms()) {
        logic::RelationId id = vocabulary_.Require(atom.relation);
        weights[atom.relation] = {vocabulary_.positive_weight(id),
                                  vocabulary_.negative_weight(id)};
      }
      for (SweepPoint& point : points) {
        point.value = cq::GammaAcyclicWFOMC(*query, point.domain_size, weights);
      }
      return;
    }
    case Method::kGrounded: {
      // Sweep points are independent grounded counts, so they run
      // concurrently on the pool (each point's counter stays sequential —
      // cross-point parallelism already saturates the workers, and one
      // pool level keeps the schedule simple). Exact counts are
      // bit-identical to the sequential loop; a shared budget is charged
      // by all points together, so which points degrade to bounds can
      // vary with the schedule (the bracket guarantee holds per point
      // regardless).
      auto count_point = [&](SweepPoint* point, unsigned point_threads) {
        wmc::DpllCounter::CountResult counted =
            grounding::GroundedWFOMCBounded(
                sentence, vocabulary_, point->domain_size,
                CounterOptions(options_, point_threads, governance),
                &point->grounded_stats.emplace());
        // The value when exact, the certified bounds (value = lower)
        // when bounded, neither when aborted.
        point->outcome = counted.outcome;
        point->stop_reason = counted.stop_reason;
        if (counted.outcome == Outcome::kBounds) {
          point->bounds = BoundsResult{counted.value, std::move(counted.upper)};
        }
        if (counted.outcome != Outcome::kAborted) {
          point->value = std::move(counted.value);
        }
      };
      unsigned threads =
          runtime::ThreadPool::ResolveThreadCount(options_.num_threads);
      if (threads <= 1 || points.size() == 1) {
        // Sequential across points — but forward num_threads so a
        // single-point sweep still parallelizes *inside* the counter,
        // exactly like the equivalent WFOMC call.
        for (SweepPoint& point : points) {
          count_point(&point, options_.num_threads);
        }
      } else {
        runtime::ThreadPool pool(
            threads, runtime::ThreadPool::Metrics::FromRegistry(
                         options_.metrics));
        runtime::TaskGroup group(&pool);
        for (SweepPoint& point : points) {
          group.Submit(
              [&count_point, &point] { count_point(&point, 1); });
        }
        group.Wait();
      }
      return;
    }
    case Method::kAuto:
      break;
  }
  throw std::logic_error(std::string(who) + ": unreachable");
}

std::size_t CompiledQuery::MemoryBytes() const {
  return circuit_.MemoryBytes() + lifted_circuit_.MemoryBytes() +
         variable_relation_.capacity() * sizeof(logic::RelationId) +
         compile_count_.HeapBytes() + VocabularyBytes(vocabulary_);
}

numeric::BigRational CompiledQuery::Evaluate(
    std::uint64_t domain_size, const std::vector<RelationWeights>& reweights,
    nnf::Circuit::EvalArena* arena) const {
  if (kind_ == Kind::kGrounded) {
    if (domain_size != domain_size_) {
      throw std::invalid_argument(
          "CompiledQuery::Evaluate: this grounded circuit was compiled at "
          "domain size " +
          std::to_string(domain_size_) + " and cannot evaluate at " +
          std::to_string(domain_size) +
          "; recompile at that size or compile a lifted circuit");
    }
    // The grounded evaluator requires scratch; make a one-shot arena
    // when the caller brought none.
    if (arena == nullptr) return circuit_.Evaluate(GroundWeights(reweights));
    return circuit_.Evaluate(GroundWeights(reweights), arena);
  }
  return lifted_circuit_.Evaluate(
      domain_size, LiftedWeights(reweights), nullptr,
      arena != nullptr ? &arena->rational_values : nullptr);
}

nnf::LiftedCircuit::Weights CompiledQuery::LiftedWeights(
    const std::vector<RelationWeights>& reweights) const {
  // The circuit's relation table is the extended (Scott/Skolem)
  // vocabulary, whose prefix is the original vocabulary in id order — so
  // replacements resolved against the snapshot apply by id, and the
  // appended Def/Sk predicates keep their fixed (1,1)/(1,-1) weights.
  nnf::LiftedCircuit::Weights weights = lifted_circuit_.DefaultWeights();
  OverlayReweights(reweights, &weights);
  return weights;
}

wmc::WeightMap CompiledQuery::GroundWeights(
    const std::vector<RelationWeights>& reweights) const {
  if (kind_ != Kind::kGrounded) {
    throw std::invalid_argument(
        "CompiledQuery::GroundWeights: this circuit is lifted "
        "(domain-parametric) and has no per-variable weights");
  }
  // Start from the compile-time per-relation weights, overlay the
  // replacements, then expand per ground tuple. Tseitin auxiliaries
  // (ids >= tuple_count()) keep the WeightMap default (1, 1).
  nnf::LiftedCircuit::Weights by_relation;
  by_relation.reserve(vocabulary_.size());
  for (logic::RelationId id = 0; id < vocabulary_.size(); ++id) {
    by_relation.emplace_back(vocabulary_.positive_weight(id),
                             vocabulary_.negative_weight(id));
  }
  OverlayReweights(reweights, &by_relation);
  wmc::WeightMap weights(circuit_.variable_count());
  for (prop::VarId v = 0; v < variable_relation_.size(); ++v) {
    const auto& [positive, negative] = by_relation[variable_relation_[v]];
    weights.Set(v, positive, negative);
  }
  return weights;
}

void CompiledQuery::OverlayReweights(
    const std::vector<RelationWeights>& reweights,
    nnf::LiftedCircuit::Weights* weights) const {
  for (const RelationWeights& reweight : reweights) {
    auto id = vocabulary_.Find(reweight.relation);
    if (!id.has_value()) {
      throw std::invalid_argument(
          "CompiledQuery::Evaluate: unknown relation '" + reweight.relation +
          "'");
    }
    (*weights)[*id] = {reweight.positive, reweight.negative};
  }
}

bool Engine::CanCompileLifted(
    const logic::Formula& sentence,
    std::optional<std::uint64_t> domain_size) const {
  // A lifted circuit is valid for n >= 1 only; n = 0 compiles grounded.
  if (domain_size.has_value() && *domain_size == 0) return false;
  return fo2::CanCompileLifted(sentence, vocabulary_);
}

CompileResult Engine::Compile(const logic::Formula& sentence,
                              const CompileOptions& options) {
  Method method = options.method;
  if (method == Method::kAuto) {
    method = CanCompileLifted(sentence, options.domain_size)
                 ? Method::kLiftedFO2
                 : Method::kGrounded;
  }
  QueryScope scope(options_, "compile", method);
  if (options.domain_size.has_value()) {
    scope.span.Num("n", *options.domain_size);
  }
  CompileResult result;
  result.method = method;
  switch (method) {
    case Method::kLiftedFO2:
      return CompileLifted(sentence);
    case Method::kGammaAcyclic:
      throw std::invalid_argument(
          "Engine::Compile: the gamma-acyclic evaluator has no circuit "
          "form; compile with method grounded or lifted-fo2");
    case Method::kGrounded:
      break;
    case Method::kAuto:
      throw std::logic_error("Engine::Compile: unreachable");
  }
  if (!options.domain_size.has_value()) {
    throw std::invalid_argument(
        "Engine::Compile: the grounded compiler fixes the domain size at "
        "compile time; set CompileOptions::domain_size (only liftable FO² "
        "sentences compile without one)");
  }
  std::uint64_t domain_size = *options.domain_size;

  // The same grounding pipeline as Method::kGrounded, with the counter in
  // tracing mode: the count falls out of the compile for free, and the
  // circuit's variable layout matches TupleIndex exactly.
  grounding::TupleIndex index(vocabulary_, domain_size);
  prop::PropFormula lineage = grounding::GroundLineage(sentence, index);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      lineage, static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights =
      grounding::SymmetricGroundWeights(index, tseitin.cnf.variable_count);

  nnf::CircuitBuilder builder(tseitin.cnf.variable_count);
  wmc::DpllCounter::Options counter_options =
      CounterOptions(options_, /*num_threads=*/1, options.governance);
  counter_options.trace_sink = &builder;
  wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights),
                           counter_options);

  wmc::DpllCounter::CountResult counted = counter.CountBounded();
  AddSearchFields(counter.stats(), &scope.span);
  result.stop_reason = counted.stop_reason;
  if (counted.outcome != Outcome::kExact) {
    // A stopped trace contains placeholder FALSE nodes for the abandoned
    // subtrees — wrong for some weight vector — so the whole circuit is
    // discarded. (Unlike counting, compilation has no usable partial
    // result; the caller retries with a larger budget or falls back to
    // per-query counting.)
    result.outcome = Outcome::kAborted;
    scope.span.Str("outcome", ToString(result.outcome));
    return result;
  }
  CompiledQuery compiled;
  compiled.compile_count_ = std::move(counted.value);
  compiled.compile_stats_ = counter.stats();
  compiled.circuit_ = builder.Finish();
  compiled.vocabulary_ = vocabulary_;
  compiled.domain_size_ = domain_size;
  compiled.variable_relation_.reserve(
      static_cast<std::size_t>(index.TupleCount()));
  for (prop::VarId v = 0; v < index.TupleCount(); ++v) {
    compiled.variable_relation_.push_back(index.AtomOf(v).relation);
  }
  result.outcome = Outcome::kExact;
  result.compiled = std::move(compiled);
  scope.span.Str("outcome", ToString(result.outcome));
  return result;
}

CompileResult Engine::CompileLifted(const logic::Formula& sentence) const {
  // Polynomial in the sentence; runs ungoverned like every lifted path,
  // and the circuit answers every n >= 1.
  CompiledQuery compiled;
  compiled.kind_ = CompiledQuery::Kind::kLifted;
  compiled.lifted_circuit_ = fo2::CompileLifted(
      sentence, vocabulary_, &compiled.lifted_compile_stats_);
  compiled.vocabulary_ = vocabulary_;
  CompileResult result;
  result.method = Method::kLiftedFO2;
  result.compiled = std::move(compiled);
  return result;
}

numeric::BigInt Engine::FOMC(const logic::Formula& sentence,
                             std::uint64_t domain_size, Method method) {
  ScopedUnitWeights unit_weights(&vocabulary_);
  return WFOMC(sentence, domain_size, method).value.ToInteger();
}

numeric::BigRational Engine::Probability(const logic::Formula& sentence,
                                         std::uint64_t domain_size,
                                         Method method) {
  BigRational normalizer =
      grounding::ProbabilityNormalizer(vocabulary_, domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("Engine::Probability: zero normalizer");
  }
  return WFOMC(sentence, domain_size, method).value / normalizer;
}

numeric::BigRational Engine::Mu(const logic::Formula& sentence,
                                std::uint64_t domain_size) {
  ScopedUnitWeights unit_weights(&vocabulary_);
  return Probability(sentence, domain_size);
}

bool Engine::HasModelOfSize(const logic::Formula& sentence,
                            std::uint64_t domain_size) {
  return reductions::HasModelOfSize(sentence, vocabulary_, domain_size);
}

}  // namespace swfomc::api
