#include "layers.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "api/engine.h"
#include "cq/conjunctive_query.h"
#include "cq/gamma_evaluator.h"
#include "families.h"
#include "fo2/cell_algorithm.h"
#include "fo2/fo2_normal_form.h"
#include "fo2/lifted_compiler.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "io/json.h"
#include "logic/parser.h"
#include "numeric/combinatorics.h"
#include "obs/metrics.h"
#include "prop/cnf.h"
#include "prop/compact_cnf.h"
#include "prop/tseitin.h"
#include "serve/server.h"
#include "wmc/dpll_counter.h"

namespace perfbench {
namespace {

using swfomc::api::Engine;
using swfomc::api::Method;
using swfomc::logic::Formula;
using swfomc::logic::Vocabulary;

/// Spans kept in memory for the whole run and written out at exit.
/// `side` marks calls made only to time a layer the op reaches inside
/// the program (their result is not the op's answer).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::size_t parent = kNone;  // index into spans_, kNone for op roots
    std::uint64_t op = 0;
    double start_us = 0;
    double end_us = 0;
    bool side = false;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, bool side = false)
        : tracer_(tracer), index_(tracer->Open(std::move(name), side)) {}
    ~Scope() { tracer_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Rename(std::string name) { tracer_->spans_[index_].name = name; }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  std::uint64_t NextOp() { return ++op_; }

  /// A per-op counter sample.
  void Count(const std::string& name, double value) {
    counts_[name].push_back(value);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<double>* Counts(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? nullptr : &it->second;
  }

 private:
  std::size_t Open(std::string name, bool side) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? kNone : stack_.back();
    span.op = op_;
    span.side = side || (!stack_.empty() && spans_[stack_.back()].side);
    span.start_us = Micros();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].end_us = Micros();
    stack_.pop_back();
  }
  double Micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t op_ = 0;
  std::map<std::string, std::vector<double>> counts_;
};

/// Per-op bookkeeping for the overhead and replay checks.
struct ReplayTotals {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  double untraced_s = 0;  // end-to-end calls, tracing off
};

double Bits(const BigRational& value) {
  return static_cast<double>(value.numerator().BitLength() +
                             value.denominator().BitLength());
}

std::string ToStringSpan(Tracer* tracer, const BigRational& value,
                         bool side = false) {
  tracer->Count("numeric.answer_bits", Bits(value));
  Tracer::Scope span(tracer, "numeric.to_string", side);
  return value.ToString();
}

// grounded_count: Engine::WFOMC against lineage -> Tseitin -> DPLL
// search, the pipeline Engine::WFOMC runs for grounded sentences. The
// fork and steal counters are recorded only at `threads` > 1.
void ReplayGrounded(const std::vector<PreparedOp>& ops, unsigned threads,
                    const std::map<std::string, CountTable>& tables,
                    Tracer* tracer, ReplayTotals* totals) {
  swfomc::obs::MetricsRegistry registry;
  swfomc::obs::Counter* stolen =
      registry.GetCounter("swfomc_pool_tasks_stolen_total");
  for (const PreparedOp& prepared : ops) {
    const Family& family = *prepared.op->family;
    std::uint64_t n = family.sizes[0];
    ++totals->ops;
    Clock::time_point begin = Clock::now();
    Engine::Result end_to_end =
        prepared.engine->WFOMC(prepared.formula, n, Method::kAuto);
    totals->untraced_s += SecondsBetween(begin, Clock::now());

    tracer->NextOp();
    std::optional<Tracer::Scope> op;
    op.emplace(tracer, "op.grounded");
    Vocabulary vocabulary;
    Formula formula;
    {
      Tracer::Scope span(tracer, "logic.parse");
      formula = swfomc::logic::Parse(family.sentence, &vocabulary);
    }
    for (const RelationWeight& weight : prepared.op->weights) {
      vocabulary.SetWeights(vocabulary.Require(weight.relation),
                            weight.positive, weight.negative);
    }
    Engine router(vocabulary);
    {
      Tracer::Scope span(tracer, "api.route");
      router.ExplainRoute(formula);
    }
    std::optional<swfomc::grounding::TupleIndex> index;
    swfomc::prop::PropFormula lineage;
    {
      Tracer::Scope span(tracer, "grounding.lineage");
      index.emplace(vocabulary, n);
      lineage = swfomc::grounding::GroundLineage(formula, *index);
    }
    swfomc::prop::TseitinResult tseitin;
    {
      Tracer::Scope span(tracer, "prop.tseitin");
      tseitin = swfomc::prop::TseitinTransform(
          lineage, static_cast<std::uint32_t>(index->TupleCount()));
    }
    swfomc::wmc::WeightMap weights;
    {
      Tracer::Scope span(tracer, "grounding.weights");
      weights = swfomc::grounding::SymmetricGroundWeights(
          *index, tseitin.cnf.variable_count);
    }
    {
      // The counter flattens its CNF internally; this side call times
      // the same two steps on a copy.
      Tracer::Scope span(tracer, "prop.compact_cnf", /*side=*/true);
      swfomc::prop::CnfFormula copy = tseitin.cnf;
      swfomc::prop::NormalizeCnf(&copy);
      swfomc::prop::CompactCnf::Build(copy);
    }
    swfomc::wmc::DpllCounter::CountResult counted;
    swfomc::wmc::DpllCounter::Stats stats;
    std::uint64_t stolen_before = stolen->Value();
    {
      Tracer::Scope span(tracer, "wmc.search");
      swfomc::wmc::DpllCounter::Options options;
      options.num_threads = threads;
      options.metrics = &registry;
      swfomc::wmc::DpllCounter counter(std::move(tseitin.cnf),
                                       std::move(weights), options);
      counted = counter.CountBounded();
      stats = counter.stats();
    }
    tracer->Count("wmc.decisions", static_cast<double>(stats.decisions));
    tracer->Count("wmc.cache_hits", static_cast<double>(stats.cache_hits));
    tracer->Count("wmc.cache_lookups",
                  static_cast<double>(stats.cache_lookups));
    tracer->Count("wmc.cache_mb", static_cast<double>(stats.cache_bytes) / 1e6);
    tracer->Count("wmc.component_splits",
                  static_cast<double>(stats.component_splits));
    if (threads > 1) {
      tracer->Count("wmc.parallel_forks",
                    static_cast<double>(stats.parallel_forks));
      tracer->Count("runtime.tasks_stolen",
                    static_cast<double>(stolen->Value() - stolen_before));
    }
    ToStringSpan(tracer, counted.value);
    op.reset();

    bool replay_ok = counted.value == end_to_end.value;
    bool correct = end_to_end.value ==
                   ReferenceValue(family, n, prepared.op->weights, tables);
    if (!replay_ok || !correct) {
      std::cerr << "replay mismatch: " << family.name << "\n";
      ++totals->failed;
      ++totals->mismatches;
    }
  }
}

/// The conjunctive query of ∃x⃗ (R_1(..) & .. & R_k(..)), built from the
/// parsed sentence the way the γ-acyclic route reads it.
swfomc::cq::ConjunctiveQuery QueryOf(const Formula& sentence,
                                     const Vocabulary& vocabulary) {
  Formula body = sentence;
  while (body->kind() == swfomc::logic::FormulaKind::kExists) {
    body = body->child();
  }
  std::vector<Formula> atoms = {body};
  if (body->kind() == swfomc::logic::FormulaKind::kAnd) {
    atoms = body->children();
  }
  swfomc::cq::ConjunctiveQuery query;
  for (const Formula& atom : atoms) {
    std::vector<std::string> variables;
    for (const swfomc::logic::Term& term : atom->arguments()) {
      variables.push_back(term.name);
    }
    query.AddAtom(vocabulary.name(atom->relation()), std::move(variables));
  }
  return query;
}

// ptime_sweep: Engine::WFOMCSweep against normal form + cell algorithm per
// point (FO²) or the Theorem 3.6 evaluator per point (γ-acyclic CQs).
// Side calls time the lifted compiler and lifted-circuit evaluation on the
// same window.
void ReplaySweep(const std::vector<PreparedOp>& ops, Tracer* tracer,
                 ReplayTotals* totals) {
  for (const PreparedOp& prepared : ops) {
    const Family& family = *prepared.op->family;
    std::uint64_t lo = family.sizes[0];
    std::uint64_t hi = family.sizes[1];
    ++totals->ops;
    Clock::time_point begin = Clock::now();
    Engine::SweepResult end_to_end =
        prepared.engine->WFOMCSweep(prepared.formula, lo, hi, Method::kAuto);
    totals->untraced_s += SecondsBetween(begin, Clock::now());

    tracer->NextOp();
    std::optional<Tracer::Scope> op;
    op.emplace(tracer, "op.sweep");
    Vocabulary vocabulary;
    Formula formula;
    {
      Tracer::Scope span(tracer, "logic.parse");
      formula = swfomc::logic::Parse(family.sentence, &vocabulary);
    }
    for (const RelationWeight& weight : prepared.op->weights) {
      vocabulary.SetWeights(vocabulary.Require(weight.relation),
                            weight.positive, weight.negative);
    }
    Engine router(vocabulary);
    Method method;
    {
      Tracer::Scope span(tracer, "api.route");
      method = router.ExplainRoute(formula).method;
    }
    std::vector<BigRational> values;
    if (method == Method::kLiftedFO2) {
      std::optional<swfomc::fo2::UniversalForm> form;
      {
        Tracer::Scope span(tracer, "fo2.normal_form");
        form = swfomc::fo2::ToUniversalForm(formula, vocabulary);
      }
      swfomc::numeric::BinomialTable binomials;
      for (std::uint64_t n = lo; n <= hi; ++n) {
        Tracer::Scope span(tracer, "fo2.cell_eval");
        values.push_back(
            swfomc::fo2::CellAlgorithmWFOMC(*form, n, &binomials));
      }
      std::optional<swfomc::nnf::LiftedCircuit> circuit;
      {
        Tracer::Scope span(tracer, "fo2.compile_lifted", /*side=*/true);
        circuit = swfomc::fo2::CompileLifted(formula, vocabulary);
      }
      tracer->Count("nnf.lifted_nodes", circuit->node_count());
      swfomc::nnf::LiftedCircuit::Weights defaults =
          circuit->DefaultWeights();
      swfomc::numeric::BinomialTable circuit_binomials;
      for (std::uint64_t n = lo; n <= hi; ++n) {
        Tracer::Scope span(tracer, "nnf.lifted_eval", /*side=*/true);
        circuit->Evaluate(n, defaults, &circuit_binomials);
      }
    } else if (method == Method::kGammaAcyclic) {
      std::optional<swfomc::cq::ConjunctiveQuery> query;
      std::map<std::string, std::pair<BigRational, BigRational>> weights;
      {
        Tracer::Scope span(tracer, "cq.query");
        query = QueryOf(formula, vocabulary);
        for (const RelationWeight& weight : prepared.op->weights) {
          weights[weight.relation] = {weight.positive, weight.negative};
        }
      }
      for (std::uint64_t n = lo; n <= hi; ++n) {
        Tracer::Scope span(tracer, "cq.gamma_eval");
        values.push_back(swfomc::cq::GammaAcyclicWFOMC(*query, n, weights));
      }
    } else {
      throw std::runtime_error(std::string("unexpected route for ") +
                               family.name);
    }
    for (const BigRational& value : values) ToStringSpan(tracer, value);
    op.reset();

    std::vector<BigRational> expected;
    for (const Engine::SweepPoint& point : end_to_end.points) {
      expected.push_back(point.value);
    }
    if (values != expected ||
        expected != ReferenceSweep(family, lo, hi, prepared.op->weights)) {
      std::cerr << "replay mismatch: " << family.name << "\n";
      ++totals->failed;
      ++totals->mismatches;
    }
  }
}

// serve_replay: each script line goes to two servers fed identically — one
// end to end (HandleLine + serialization, tracing off), one decomposed into
// JSON decode, HandleRequest and encode. Side calls re-derive each query's
// answers from parse, route, Engine::Compile and CompiledQuery::Evaluate.
// Returns the traced server's statistics.
swfomc::serve::ServerStats ReplayServe(
    const ServeScript& script, const std::map<std::string, CountTable>& tables,
    Tracer* tracer, ReplayTotals* totals) {
  swfomc::serve::ServerOptions options;
  options.max_circuits = script.max_circuits;
  swfomc::serve::Server untraced(options);
  swfomc::serve::Server traced(options);
  for (const ServeLine& line : script.prime) {
    untraced.HandleLine(line.text);
    traced.HandleLine(line.text);
  }
  std::map<std::string, std::shared_ptr<const swfomc::api::CompiledQuery>>
      compiled;
  swfomc::nnf::Circuit::EvalArena arena;
  std::map<std::string, std::string> expected;
  for (const ServeLine& line : script.lines) {
    ++totals->ops;
    Clock::time_point begin = Clock::now();
    swfomc::serve::Server::Reply reply = untraced.HandleLine(line.text);
    reply.json.Dump(-1);
    totals->untraced_s += SecondsBetween(begin, Clock::now());

    tracer->NextOp();
    std::optional<Tracer::Scope> op;
    op.emplace(tracer, "op.serve");
    swfomc::io::JsonValue request;
    {
      Tracer::Scope span(tracer, "io.json_decode");
      request = swfomc::io::ParseJson(line.text);
    }
    swfomc::io::JsonValue response;
    {
      Tracer::Scope span(tracer, "serve.handle");
      response = traced.HandleRequest(request);
      const swfomc::io::JsonValue* cached = Member(response, "cached");
      span.Rename(line.scrape ? "obs.scrape"
                  : cached != nullptr && cached->boolean
                      ? "serve.handle_warm"
                      : "serve.handle_cold");
    }
    {
      Tracer::Scope span(tracer, "io.json_encode");
      response.Dump(-1);
    }
    if (line.scrape) continue;

    std::optional<std::vector<std::string>> want = ReplyAnswers(reply.json);
    bool replay_ok = want.has_value() && ReplyAnswers(response) == want;
    Vocabulary vocabulary;
    Formula formula;
    {
      Tracer::Scope span(tracer, "logic.parse", /*side=*/true);
      formula = swfomc::logic::Parse(line.family->sentence, &vocabulary);
    }
    Engine engine(vocabulary);
    bool lifted = false;
    {
      Tracer::Scope span(tracer, "api.route", /*side=*/true);
      engine.ExplainRoute(formula);
      lifted = engine.CanCompileLifted(formula);
    }
    std::string key = std::string(line.family->sentence) +
                      (lifted ? "" : "@" + std::to_string(line.n));
    auto it = compiled.find(key);
    if (it == compiled.end()) {
      swfomc::api::CompileOptions compile_options;
      compile_options.domain_size = line.n;
      compile_options.method = lifted ? Method::kLiftedFO2 : Method::kGrounded;
      std::shared_ptr<const swfomc::api::CompiledQuery> query;
      {
        Tracer::Scope span(tracer, "api.compile", /*side=*/true);
        swfomc::api::CompileResult result =
            engine.Compile(formula, compile_options);
        if (!result.compiled.has_value()) {
          throw std::runtime_error(std::string("compile failed for ") +
                                   line.family->name);
        }
        query = std::make_shared<const swfomc::api::CompiledQuery>(
            std::move(*result.compiled));
      }
      if (lifted) {
        Tracer::Scope span(tracer, "fo2.compile_lifted", /*side=*/true);
        tracer->Count("nnf.lifted_nodes",
                      swfomc::fo2::CompileLifted(formula, vocabulary)
                          .node_count());
      }
      it = compiled.emplace(key, std::move(query)).first;
    }
    std::vector<std::string> texts;
    for (std::size_t v = 0; v < line.batch.size(); ++v) {
      std::vector<swfomc::api::RelationWeights> reweights;
      for (const RelationWeight& weight : line.batch[v]) {
        reweights.push_back(
            {weight.relation, weight.positive, weight.negative});
      }
      BigRational value;
      {
        Tracer::Scope span(tracer,
                           lifted ? "nnf.lifted_eval" : "nnf.circuit_eval",
                           /*side=*/true);
        value = it->second->Evaluate(line.n, reweights, &arena);
      }
      texts.push_back(ToStringSpan(tracer, value, /*side=*/true));
    }
    op.reset();
    replay_ok = replay_ok && texts == *want;
    for (std::size_t v = 0; replay_ok && v < line.batch.size(); ++v) {
      std::string weights_key = key + " " + std::to_string(line.n);
      for (const RelationWeight& weight : line.batch[v]) {
        weights_key += " " + weight.positive.ToString() + " " +
                       weight.negative.ToString();
      }
      auto [ref, inserted] = expected.emplace(weights_key, "");
      if (inserted) {
        ref->second =
            ReferenceValue(*line.family, line.n, line.batch[v], tables)
                .ToString();
      }
      replay_ok = ref->second == texts[v];
    }
    if (!replay_ok) {
      std::cerr << "replay mismatch: " << line.family->name << "\n";
      ++totals->failed;
      ++totals->mismatches;
    }
  }
  return traced.Stats();
}

/// How a per-layer metric is computed from spans or counter samples.
enum class Aggregate {
  kMedianSelf,
  kMedianCount,
  kMeanCount,
  kMaxCount,
  kRatio,
};

/// The workloads whose traced replay reaches a layer.
enum Reach : unsigned {
  kGrounded = 1,
  kSweep = 2,
  kServe = 4,
  kAll = kGrounded | kSweep | kServe,
};

struct LayerMetric {
  const char* name;
  const char* source;       // span name, or counter name
  const char* denominator;  // kRatio only
  Aggregate aggregate;
  double scale;  // from microseconds (spans) or raw counts
  const char* unit;
  unsigned reach;
};

// Per-layer metrics and the end-to-end metric each should move are listed
// in perfbench/README.md. Times are medians of per-call self time.
const LayerMetric kLayerMetrics[] = {
    {"logic.parse_us", "logic.parse", nullptr, Aggregate::kMedianSelf, 1, "us",
     kAll},
    {"api.route_us", "api.route", nullptr, Aggregate::kMedianSelf, 1, "us",
     kAll},
    {"grounding.lineage_ms", "grounding.lineage", nullptr,
     Aggregate::kMedianSelf, 1e-3, "ms", kGrounded},
    {"prop.tseitin_ms", "prop.tseitin", nullptr, Aggregate::kMedianSelf, 1e-3,
     "ms", kGrounded},
    {"prop.compact_cnf_ms", "prop.compact_cnf", nullptr,
     Aggregate::kMedianSelf, 1e-3, "ms", kGrounded},
    {"wmc.search_ms", "wmc.search", nullptr, Aggregate::kMedianSelf, 1e-3,
     "ms", kGrounded},
    {"wmc.decisions", "wmc.decisions", nullptr, Aggregate::kMedianCount, 1,
     "count", kGrounded},
    {"wmc.cache_hit_ratio", "wmc.cache_hits", "wmc.cache_lookups",
     Aggregate::kRatio, 1, "ratio", kGrounded},
    {"wmc.cache_mb_peak", "wmc.cache_mb", nullptr, Aggregate::kMaxCount, 1,
     "MB", kGrounded},
    {"wmc.component_splits", "wmc.component_splits", nullptr,
     Aggregate::kMedianCount, 1, "count", kGrounded},
    {"wmc.parallel_forks", "wmc.parallel_forks", nullptr,
     Aggregate::kMeanCount, 1, "count", kGrounded},
    {"runtime.tasks_stolen", "runtime.tasks_stolen", nullptr,
     Aggregate::kMeanCount, 1, "count", kGrounded},
    {"fo2.normal_form_ms", "fo2.normal_form", nullptr, Aggregate::kMedianSelf,
     1e-3, "ms", kSweep},
    {"fo2.cell_eval_ms", "fo2.cell_eval", nullptr, Aggregate::kMedianSelf,
     1e-3, "ms", kSweep},
    {"cq.gamma_eval_ms", "cq.gamma_eval", nullptr, Aggregate::kMedianSelf,
     1e-3, "ms", kSweep},
    {"fo2.compile_lifted_ms", "fo2.compile_lifted", nullptr,
     Aggregate::kMedianSelf, 1e-3, "ms", kSweep | kServe},
    {"nnf.lifted_eval_ms", "nnf.lifted_eval", nullptr, Aggregate::kMedianSelf,
     1e-3, "ms", kSweep | kServe},
    {"nnf.lifted_nodes", "nnf.lifted_nodes", nullptr, Aggregate::kMedianCount,
     1, "count", kSweep | kServe},
    {"api.compile_ms", "api.compile", nullptr, Aggregate::kMedianSelf, 1e-3,
     "ms", kServe},
    {"nnf.circuit_eval_us", "nnf.circuit_eval", nullptr,
     Aggregate::kMedianSelf, 1, "us", kServe},
    {"io.json_decode_us", "io.json_decode", nullptr, Aggregate::kMedianSelf, 1,
     "us", kServe},
    {"io.json_encode_us", "io.json_encode", nullptr, Aggregate::kMedianSelf, 1,
     "us", kServe},
    {"serve.handle_warm_us", "serve.handle_warm", nullptr,
     Aggregate::kMedianSelf, 1, "us", kServe},
    {"serve.handle_cold_us", "serve.handle_cold", nullptr,
     Aggregate::kMedianSelf, 1, "us", kServe},
    {"obs.scrape_us", "obs.scrape", nullptr, Aggregate::kMedianSelf, 1, "us",
     kServe},
    {"numeric.answer_bits", "numeric.answer_bits", nullptr,
     Aggregate::kMedianCount, 1, "bits", kAll},
    {"numeric.to_string_us", "numeric.to_string", nullptr,
     Aggregate::kMedianSelf, 1, "us", kAll},
    {"serve.cache_hit_ratio", "serve.cache_hits", "serve.cache_lookups",
     Aggregate::kRatio, 1, "ratio", kServe},
    {"serve.evictions", "serve.evictions", nullptr, Aggregate::kMedianCount, 1,
     "count", kServe},
    {"serve.circuit_mb_peak", "serve.circuit_mb_peak", nullptr,
     Aggregate::kMaxCount, 1, "MB", kServe},
};

std::vector<double> SelfTimes(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Tracer::kNone) {
      self[spans[i].parent] -= spans[i].end_us - spans[i].start_us;
    }
  }
  return self;
}

/// The metric over every span or counter sample of `spec.source`; zero
/// with no samples when there is none.
Metric Aggregated(const LayerMetric& spec, const Tracer& tracer,
                  const std::vector<double>& self) {
  Metric metric{spec.name, 0, spec.unit, 0, 0};
  std::vector<double> values;
  if (spec.aggregate == Aggregate::kMedianSelf) {
    const std::vector<Tracer::Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == spec.source) values.push_back(self[i]);
    }
  } else if (const std::vector<double>* counts = tracer.Counts(spec.source)) {
    values = *counts;
  }
  if (values.empty()) return metric;
  metric.samples = values.size();
  switch (spec.aggregate) {
    case Aggregate::kMedianSelf:
    case Aggregate::kMedianCount:
      metric.value = Percentile(values, 0.5) * spec.scale;
      break;
    case Aggregate::kMeanCount: {
      double sum = 0;
      for (double value : values) sum += value;
      metric.value = sum / static_cast<double>(values.size());
      break;
    }
    case Aggregate::kMaxCount:
      metric.value = *std::max_element(values.begin(), values.end());
      break;
    case Aggregate::kRatio: {
      double hits = 0;
      double lookups = 0;
      for (double value : values) hits += value;
      for (double value : *tracer.Counts(spec.denominator)) lookups += value;
      metric.value = lookups > 0 ? hits / lookups : 0;
      break;
    }
  }
  return metric;
}

void WriteTrace(const std::string& path, const Tracer& tracer,
                const std::vector<double>& self,
                const std::map<std::string, std::pair<std::uint64_t, double>>&
                    layer_self) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    out << "{\"name\":\"" << span.name << "\",\"id\":" << i << ",\"parent\":";
    if (span.parent == Tracer::kNone) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << ",\"op\":" << span.op << ",\"start_us\":" << span.start_us
        << ",\"end_us\":" << span.end_us << ",\"self_us\":" << self[i]
        << ",\"side\":" << (span.side ? "true" : "false") << "}\n";
  }
  for (const auto& [name, calls_self] : layer_self) {
    out << "{\"summary\":\"self_time\",\"layer\":\"" << name
        << "\",\"calls\":" << calls_self.first
        << ",\"self_us\":" << calls_self.second << "}\n";
  }
}

}  // namespace

RunResult RunTraced(const std::string& workload, std::uint64_t seed,
                    double seconds, const std::string& data_dir,
                    const std::string& trace_path) {
  std::map<std::string, CountTable> tables =
      LoadCountTables(data_dir + "/grounded_counts.txt");
  Reach reach = workload == "grounded_count" ? kGrounded
                : workload == "ptime_sweep"  ? kSweep
                : workload == "serve_replay" ? kServe
                                             : Reach{};
  if (reach == Reach{}) {
    throw std::invalid_argument("unknown workload " + workload);
  }

  std::vector<Op> pass = MakePass(
      reach == kGrounded ? GroundedFamilies() : SweepFamilies(), seed);
  std::vector<PreparedOp> ops = PrepareOps(pass, 1);
  ServeScript script = MakeServeScript(seed);
  Tracer tracer;
  ReplayTotals totals;
  Clock::time_point start = Clock::now();
  do {
    if (reach == kGrounded) {
      ReplayGrounded(ops, 1, tables, &tracer, &totals);
    } else if (reach == kSweep) {
      ReplaySweep(ops, &tracer, &totals);
    } else {
      swfomc::serve::ServerStats stats =
          ReplayServe(script, tables, &tracer, &totals);
      tracer.Count("serve.cache_hits", static_cast<double>(stats.cache_hits));
      tracer.Count("serve.cache_lookups",
                   static_cast<double>(stats.cache_hits + stats.cache_misses));
      tracer.Count("serve.evictions", static_cast<double>(stats.evictions));
      tracer.Count("serve.circuit_mb_peak",
                   static_cast<double>(stats.circuit_bytes_peak) / 1e6);
    }
  } while (SecondsBetween(start, Clock::now()) < seconds);

  ReplayTotals parallel_totals;
  if (reach == kGrounded) {
    // The fork and steal counters need more than one thread: six ops with
    // n <= 4 replayed at two threads, on a tracer of their own so their
    // spans do not mix with the one-thread layer times.
    std::vector<Op> small;
    for (const Op& op : pass) {
      if (op.family->sizes[0] <= 4 && small.size() < 6) small.push_back(op);
    }
    Tracer parallel;
    ReplayGrounded(PrepareOps(small, 2), 2, tables, &parallel,
                   &parallel_totals);
    for (const char* name : {"wmc.parallel_forks", "runtime.tasks_stolen"}) {
      for (double value : *parallel.Counts(name)) tracer.Count(name, value);
    }
  }

  std::vector<double> self = SelfTimes(tracer.spans());
  RunResult result;
  result.attempted = totals.ops + parallel_totals.ops;
  result.failed = totals.failed + parallel_totals.failed;
  result.mismatches = totals.mismatches + parallel_totals.mismatches;
  // The result format lists every per-layer metric; one this workload
  // never reaches prints as 0 with no samples, marked as not reached. A
  // layer it does reach that recorded nothing fails the run.
  for (const LayerMetric& spec : kLayerMetrics) {
    Metric metric = Aggregated(spec, tracer, self);
    metric.reached = (spec.reach & reach) != 0;
    if (metric.reached && metric.samples == 0) {
      std::cerr << "layer metric " << spec.name << " has no samples\n";
      ++result.failed;
    }
    result.metrics.push_back(metric);
  }

  // Op time no layer span accounts for, and the traced op time (side
  // calls excluded) against the same calls untraced.
  double op_total = 0;
  double op_self = 0;
  double side_total = 0;
  std::map<std::string, std::pair<std::uint64_t, double>> layer_self;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    double duration = spans[i].end_us - spans[i].start_us;
    auto& [calls, total] = layer_self[spans[i].name];
    ++calls;
    total += self[i];
    if (spans[i].parent == Tracer::kNone) {
      op_total += duration;
      op_self += self[i];
    } else if (spans[i].side && !spans[spans[i].parent].side) {
      side_total += duration;
    }
  }
  result.metrics.push_back(
      {"trace.overhead_pct",
       ((op_total - side_total) / 1e6 / totals.untraced_s - 1) * 100, "%",
       totals.ops, 0});
  result.metrics.push_back({"trace.unaccounted_pct", op_self / op_total * 100,
                            "%", totals.ops, 0});
  result.metrics.push_back({"trace.replay_mismatches",
                            static_cast<double>(result.mismatches), "count",
                            result.attempted, 0});

  for (const auto& [name, calls_self] : layer_self) {
    std::cout << workload << "  self " << name << ": " << calls_self.first
              << " calls, " << calls_self.second / 1e3 << " ms ("
              << calls_self.second / op_total * 100 << "% of op time)\n";
  }
  WriteTrace(trace_path, tracer, self, layer_self);
  return result;
}

}  // namespace perfbench
