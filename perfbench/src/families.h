// Seeded inputs of the benchmark workloads and the independent references
// every answer is checked against.
//
// A seed changes the weights of every op and the order of ops in a pass,
// never the sentences, domain sizes or per-pass op counts: the cost of a
// pass must not depend on the seed, so run-to-run spread measures the
// program and not the generator.
#ifndef PERFBENCH_FAMILIES_H_
#define PERFBENCH_FAMILIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/engine.h"
#include "io/json.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "numeric/rational.h"

namespace perfbench {

using swfomc::numeric::BigRational;

/// Deterministic on every platform: mt19937_64's output sequence is fixed
/// by the standard, and no std:: distribution (whose algorithms are
/// implementation-defined) is used on top of it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  std::uint64_t Next() { return engine_(); }
  std::size_t Below(std::size_t bound) { return Next() % bound; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

struct RelationWeight {
  std::string relation;
  BigRational positive;
  BigRational negative;
};
using WeightVector = std::vector<RelationWeight>;

/// How an answer's expected value is obtained. None of these is the route
/// the workloads time.
enum class Reference {
  kCountTable,     // exhaustive per-size model counts in data/
  kForallExists,   // closedforms::ForallExistsWFOMC
  kTable1,         // closedforms::Table1WFOMC
  kSymmetric,      // (w+w̄)^n (w²+w̄²)^C(n,2)
  kCqTable1,       // complement of Table 1 with flipped polarities
  kCqStar,         // per-centre independence
  kCqChain3,       // double sum over the chain's two inner sets
  kLiftedCircuit,  // fo2::CompileLifted + LiftedCircuit::Evaluate
  kCellAlgorithm,  // fo2::LiftedWFOMC
};

/// One sentence shape of a workload.
struct Family {
  const char* name;
  const char* sentence;
  /// Grounded families: the domain size. Sweep families: the window
  /// [n_lo, n_hi]. Serve families: the domain sizes requests cycle over.
  std::vector<std::uint64_t> sizes;
  /// Ops (or hot/cold requests) of this family per pass.
  int copies;
  Reference reference;
  /// Relations whose w̄ is negative (Skolem-style negative weights).
  std::vector<std::string> negative;
};

const std::vector<Family>& GroundedFamilies();
const std::vector<Family>& SweepFamilies();
const std::vector<Family>& ServeHotFamilies();
const std::vector<Family>& ServeColdFamilies();

/// Relation names of `sentence` in vocabulary (first-use) order.
std::vector<std::string> RelationsOf(const std::string& sentence);

/// Seeded weights for every relation of `family`'s sentence.
WeightVector MakeWeights(const Family& family, Rng* rng);

/// A fresh vocabulary for `sentence` carrying `weights`; `formula` (if
/// non-null) receives the parsed sentence.
swfomc::logic::Vocabulary WeightedVocabulary(
    const std::string& sentence, const WeightVector& weights,
    swfomc::logic::Formula* formula = nullptr);

/// Per-size model counts of a grounded sentence, produced by exhaustive
/// enumeration (MakeCountTables) and stored in data/grounded_counts.txt:
/// counts[k_1 * (m_2+1) * .. + k_2 * .. + k_r] is the number of models
/// with k_i true tuples of relations[i], which has m_i ground tuples.
struct CountTable {
  std::vector<std::string> relations;
  std::vector<std::uint64_t> tuples;
  std::vector<std::uint64_t> counts;
};

/// Loads every table of `path`, keyed by "<n>\t<sentence>". Throws
/// std::runtime_error when the file is missing or malformed.
std::map<std::string, CountTable> LoadCountTables(const std::string& path);
std::string CountKey(const std::string& sentence, std::uint64_t n);

/// Enumerates every world of every grounded sentence the workloads use
/// and writes the tables to `path`. Offline: n = 5 sentences enumerate
/// 2^25 worlds each.
void MakeCountTables(const std::string& path);

/// The expected WFOMC of `family`'s sentence at domain size n under
/// `weights`. `tables` serves kCountTable families.
BigRational ReferenceValue(const Family& family, std::uint64_t n,
                           const WeightVector& weights,
                           const std::map<std::string, CountTable>& tables);

/// Reference values for a whole sweep window [lo, hi] (the lifted-circuit
/// reference compiles once for the window).
std::vector<BigRational> ReferenceSweep(
    const Family& family, std::uint64_t lo, std::uint64_t hi,
    const WeightVector& weights);

/// One op of grounded_count / grounded_parallel (one WFOMC call) or of
/// ptime_sweep (one WFOMCSweep over the family's window).
struct Op {
  const Family* family = nullptr;
  WeightVector weights;
};

/// One pass: every family's copies with fresh seeded weights, in seeded
/// order. The workloads replay the same pass until time is up.
std::vector<Op> MakePass(const std::vector<Family>& families,
                         std::uint64_t seed);

/// One JSONL line of the serve script.
struct ServeLine {
  std::string text;
  bool scrape = false;  // a {"cmd":"metrics"} request
  const Family* family = nullptr;
  std::uint64_t n = 0;
  std::vector<WeightVector> batch;
};

/// The serve_replay script: `prime` warms the LRU with every hot key and
/// `lines` is replayed in a loop. Each round requests every hot key once
/// (batches of 1-32 weight vectors) plus one cold key; a metrics scrape
/// follows every tenth round. `max_circuits` is the LRU bound: the hot
/// set plus three, fewer than the keys requested within one cycle of the
/// cold keys, so each cold request misses and each hot one hits.
struct ServeScript {
  std::vector<ServeLine> prime;
  std::vector<ServeLine> lines;
  std::size_t max_circuits = 0;
};
ServeScript MakeServeScript(std::uint64_t seed);

/// An op ready to run: its own engine carrying the op's weights.
struct PreparedOp {
  const Op* op;
  std::unique_ptr<swfomc::api::Engine> engine;
  swfomc::logic::Formula formula;
};
std::vector<PreparedOp> PrepareOps(const std::vector<Op>& pass,
                                   unsigned threads);

/// The answer strings of a serve query reply, or nullopt for an error
/// reply.
std::optional<std::vector<std::string>> ReplyAnswers(
    const swfomc::io::JsonValue& reply);
/// An object member, or null.
const swfomc::io::JsonValue* Member(const swfomc::io::JsonValue& object,
                                    const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_FAMILIES_H_
