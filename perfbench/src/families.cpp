#include "families.h"

#include <bit>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "closedforms/closed_forms.h"
#include "fo2/cell_algorithm.h"
#include "fo2/lifted_compiler.h"
#include "grounding/grounded_wfomc.h"
#include "io/json.h"
#include "logic/parser.h"
#include "numeric/combinatorics.h"

namespace perfbench {

namespace {

using swfomc::numeric::BigInt;
using swfomc::logic::Formula;
using swfomc::logic::FormulaKind;
using swfomc::logic::Vocabulary;

BigRational Pow(const BigRational& base, std::uint64_t exponent) {
  return BigRational::Pow(base, static_cast<std::int64_t>(exponent));
}

const RelationWeight& WeightOf(const WeightVector& weights,
                               const std::string& relation) {
  for (const RelationWeight& weight : weights) {
    if (weight.relation == relation) return weight;
  }
  throw std::logic_error("no weight for relation " + relation);
}

}  // namespace

// Per-op costs below are single-thread figures on a 4-CPU x86-64
// container (RelWithDebInfo build). A grounded pass is 20 ops: 6 cheap
// ones (1-9 ms), 8 small ones (10-40 ms), 5 medium ones (75-140 ms,
// component caches of 4-12 MB) and one heavy one (triangle at n = 5,
// ~0.7 s, a ~42 MB cache), about 1.5 s in all, so a run takes about
// twenty passes and the heavy op is under half of a pass. Sorted by cost,
// latency p50 (rank 0.5) falls between the 10th and 11th op, four ops from
// either edge of the small band, and p90 between the 18th and 19th, the
// three dearest medium ops (125-140 ms); the heavy op alone lies above
// rank 0.95. Every sentence has at most 26 ground tuples so its reference
// comes from exhaustive enumeration; the triangle with a unary conjunct
// at n = 5 (30 tuples, 11 s, 700 MB) is left out.
const std::vector<Family>& GroundedFamilies() {
  static const std::vector<Family> families = {
      // cheap
      {"chord_n3", "exists x exists y exists z (E(x,y) & E(y,z) & !E(x,z))",
       {3}, 1, Reference::kCountTable, {}},
      {"trans_two_rel_n3",
       "forall x forall y forall z (R(x,y) & S(y,z) => R(x,z))", {3}, 1,
       Reference::kCountTable, {"S"}},
      {"trans_exists_u_n4",
       "forall x forall y forall z (E(x,y) & E(y,z) => E(x,z)) & exists x U(x)",
       {4}, 1, Reference::kCountTable, {}},
      {"triangle_u_n3",
       "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x) & U(x))", {3}, 1,
       Reference::kCountTable, {}},
      {"antitrans_n5",
       "forall x forall y forall z (E(x,y) & E(y,z) => !E(x,z))", {5}, 1,
       Reference::kCountTable, {}},
      {"triangle_free_n5",
       "forall x forall y forall z !(E(x,y) & E(y,z) & E(z,x))", {5}, 1,
       Reference::kCountTable, {"E"}},
      // small
      {"triangle_n4", "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))",
       {4}, 1, Reference::kCountTable, {}},
      {"trans_n5", "forall x forall y forall z (E(x,y) & E(y,z) => E(x,z))",
       {5}, 1, Reference::kCountTable, {"E"}},
      {"cycle_two_rel_n3",
       "exists x exists y exists z (R(x,y) & S(y,z) & R(z,x))", {3}, 1,
       Reference::kCountTable, {"R"}},
      {"all_triangle_n4",
       "forall x exists y exists z (E(x,y) & E(y,z) & E(z,x))", {4}, 1,
       Reference::kCountTable, {}},
      {"all_chord_n4",
       "forall x exists y exists z (E(x,y) & E(y,z) & !E(x,z))", {4}, 1,
       Reference::kCountTable, {"E"}},
      {"chord_n4", "exists x exists y exists z (E(x,y) & E(y,z) & !E(x,z))",
       {4}, 1, Reference::kCountTable, {}},
      {"dominating_n4",
       "forall x exists y forall z (E(x,y) & (E(y,z) => E(x,z)))", {4}, 1,
       Reference::kCountTable, {}},
      {"cycle_two_rel_u_n3",
       "exists x exists y exists z (R(x,y) & S(y,z) & R(z,x) & U(x))", {3}, 1,
       Reference::kCountTable, {"S"}},
      // medium
      {"trans_triangle_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & E(x,z))", {4}, 1,
       Reference::kCountTable, {}},
      {"chord_u_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & !E(x,z) & U(z))", {4}, 1,
       Reference::kCountTable, {"U"}},
      {"triangle_u_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x) & U(x))", {4}, 1,
       Reference::kCountTable, {}},
      {"exists_all_exists_n4",
       "exists x forall y exists z (E(x,y) | (E(y,z) & E(z,x)))", {4}, 1,
       Reference::kCountTable, {"E"}},
      {"all_triangle_u_n4",
       "forall x exists y exists z (E(x,y) & E(y,z) & E(z,x) & U(y))", {4}, 1,
       Reference::kCountTable, {"U"}},
      // heavy
      {"triangle_n5", "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))",
       {5}, 1, Reference::kCountTable, {}},
  };
  return families;
}

// Each op is one WFOMCSweep over the window. Liftable FO² sentences: the
// ∀∃ sentence, the Table-1 clause, Skolemised sentences with a negative
// w̄, and sentences with two and three unary predicates (the cell count
// doubles per unary predicate). γ-acyclic CQs: the Table-1 CQ, a 2-chain,
// a 3-chain and a 3-arm star. Windows are sized so that each op takes
// 45-150 ms; the ∀∃, symmetric and CQ answers have 1,500-15,000 bits.
const std::vector<Family>& SweepFamilies() {
  static const std::vector<Family> families = {
      {"forall_exists", "forall x exists y S(x,y)", {9, 12}, 2,
       Reference::kForallExists, {}},
      {"symmetric", "forall x forall y (S(x,y) => S(y,x))", {13, 16}, 2,
       Reference::kSymmetric, {}},
      {"table1_clause", "forall x forall y (R(x) | S(x,y) | T(y))", {4, 6}, 2,
       Reference::kTable1, {}},
      {"skolem_unary", "forall x exists y (S(x,y) & U(y))", {4, 6}, 1,
       Reference::kLiftedCircuit, {"S"}},
      {"skolem_asym", "forall x exists y (S(x,y) & !S(y,x))", {6, 8}, 1,
       Reference::kLiftedCircuit, {"S"}},
      {"two_unary", "forall x forall y (U(x) & S(x,y) => V(y))", {4, 6}, 1,
       Reference::kLiftedCircuit, {"V"}},
      {"three_unary",
       "forall x forall y (U(x) & S(x,y) => V(y)) & forall x (V(x) | W(x))",
       {3, 4}, 1, Reference::kLiftedCircuit, {"W"}},
      {"cq_table1", "exists x exists y (U(x) & S(x,y) & V(y))", {12, 16}, 2,
       Reference::kCqTable1, {}},
      {"cq_chain2", "exists x exists y exists z (R(x,y) & S(y,z))", {20, 24}, 2,
       Reference::kCqStar, {}},
      {"cq_chain3",
       "exists x exists y exists z exists w (R(x,y) & S(y,z) & T(z,w))",
       {8, 11}, 1, Reference::kCqChain3, {}},
      {"cq_star",
       "exists x exists y exists z exists w (U(x) & R(x,y) & S(x,z) & T(x,w))",
       {16, 20}, 1, Reference::kCqStar, {"U"}},
  };
  return families;
}

// Hot keys stay resident in the server's LRU and are requested once per
// round, each with every batch size of the round in turn; grounded ones
// are FO³ d-DNNFs at n = 3-5 (0.1-0.5 ms per weight vector), lifted ones
// FO² circuits requested at the listed domain sizes in turn (one lifted
// circuit serves every n; 0.1-0.7 ms per vector).
const std::vector<Family>& ServeHotFamilies() {
  static const std::vector<Family> families = {
      {"hot_triangle_u_n3",
       "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x) & U(x))", {3}, 1,
       Reference::kCountTable, {"U"}},
      {"hot_trans_two_rel_n3",
       "forall x forall y forall z (R(x,y) & S(y,z) => R(x,z))", {3}, 1,
       Reference::kCountTable, {}},
      {"hot_antitrans_n5",
       "forall x forall y forall z (E(x,y) & E(y,z) => !E(x,z))", {5}, 1,
       Reference::kCountTable, {}},
      {"hot_triangle_free_n5",
       "forall x forall y forall z !(E(x,y) & E(y,z) & E(z,x))", {5}, 1,
       Reference::kCountTable, {"E"}},
      {"hot_euclid_n5",
       "forall x forall y forall z (E(x,y) & E(y,z) => E(z,x))", {5}, 1,
       Reference::kCountTable, {}},
      {"hot_trans_n5", "forall x forall y forall z (E(x,y) & E(y,z) => E(x,z))",
       {5}, 1, Reference::kCountTable, {}},
      {"hot_forall_exists", "forall x exists y S(x,y)", {3, 4}, 1,
       Reference::kForallExists, {}},
      {"hot_symmetric", "forall x forall y (S(x,y) => S(y,x))", {4, 6}, 1,
       Reference::kSymmetric, {}},
      {"hot_table1_clause", "forall x forall y (R(x) | S(x,y) | T(y))", {2}, 1,
       Reference::kTable1, {}},
      {"hot_skolem_unary", "forall x exists y (S(x,y) & U(y))", {2}, 1,
       Reference::kCellAlgorithm, {"S"}},
  };
  return families;
}

// Cold keys are requested once per round in turn; there are more of them
// than the LRU has room for beside the hot set, so every request misses.
// Two cheap lifted compiles (0.5-3 ms), five grounded ones of 13-26 ms and
// two of 50-75 ms: with nine keys the cold median is the middle key's own
// median (20 ms), not a point between two cost classes.
const std::vector<Family>& ServeColdFamilies() {
  static const std::vector<Family> families = {
      {"cold_skolem_asym", "forall x exists y (S(x,y) & !S(y,x))", {3, 4}, 1,
       Reference::kCellAlgorithm, {"S"}},
      {"cold_two_unary", "forall x forall y (U(x) & S(x,y) => V(y))", {2}, 1,
       Reference::kCellAlgorithm, {}},
      {"cold_triangle_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))", {4}, 1,
       Reference::kCountTable, {}},
      {"cold_cycle_two_rel_n3",
       "exists x exists y exists z (R(x,y) & S(y,z) & R(z,x))", {3}, 1,
       Reference::kCountTable, {}},
      {"cold_all_chord_n4",
       "forall x exists y exists z (E(x,y) & E(y,z) & !E(x,z))", {4}, 1,
       Reference::kCountTable, {}},
      {"cold_all_triangle_n4",
       "forall x exists y exists z (E(x,y) & E(y,z) & E(z,x))", {4}, 1,
       Reference::kCountTable, {"E"}},
      {"cold_chord_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & !E(x,z))", {4}, 1,
       Reference::kCountTable, {}},
      {"cold_dominating_n4",
       "forall x exists y forall z (E(x,y) & (E(y,z) => E(x,z)))", {4}, 1,
       Reference::kCountTable, {}},
      {"cold_chord_u_n4",
       "exists x exists y exists z (E(x,y) & E(y,z) & !E(x,z) & U(z))", {4}, 1,
       Reference::kCountTable, {}},
  };
  return families;
}

std::vector<std::string> RelationsOf(const std::string& sentence) {
  Vocabulary vocabulary;
  swfomc::logic::Parse(sentence, &vocabulary);
  std::vector<std::string> names;
  for (swfomc::logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    names.push_back(vocabulary.name(id));
  }
  return names;
}

// Denominators are fixed and numerators come in near-equal pairs (29/31,
// 23/25), so every seed yields numbers of the same bit length: the cost
// of exact arithmetic does not move with the seed.
WeightVector MakeWeights(const Family& family, Rng* rng) {
  static const std::int64_t kPositiveNum[] = {29, 31};
  static const std::int64_t kNegativeNum[] = {23, 25};
  WeightVector weights;
  for (const std::string& relation : RelationsOf(family.sentence)) {
    bool negative = false;
    for (const std::string& name : family.negative) {
      negative = negative || name == relation;
    }
    std::int64_t wbar_num = kNegativeNum[rng->Below(2)];
    weights.push_back(RelationWeight{
        relation, BigRational::Fraction(kPositiveNum[rng->Below(2)], 13),
        BigRational::Fraction(negative ? -wbar_num : wbar_num, 7)});
  }
  return weights;
}

Vocabulary WeightedVocabulary(const std::string& sentence,
                              const WeightVector& weights, Formula* formula) {
  Vocabulary vocabulary;
  Formula parsed = swfomc::logic::Parse(sentence, &vocabulary);
  for (const RelationWeight& weight : weights) {
    vocabulary.SetWeights(vocabulary.Require(weight.relation), weight.positive,
                          weight.negative);
  }
  if (formula != nullptr) *formula = parsed;
  return vocabulary;
}

std::string CountKey(const std::string& sentence, std::uint64_t n) {
  return std::to_string(n) + "\t" + sentence;
}

// File format, one table per line, tab-separated:
//   n  sentence  rel:tuples[,rel:tuples..]  count count ..
std::map<std::string, CountTable> LoadCountTables(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open count tables " + path);
  std::map<std::string, CountTable> tables;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::stringstream split(line);
    for (std::string field; std::getline(split, field, '\t');) {
      fields.push_back(field);
    }
    if (fields.size() != 4) {
      throw std::runtime_error("malformed count table line in " + path);
    }
    CountTable table;
    std::stringstream relations(fields[2]);
    std::size_t cells = 1;
    for (std::string entry; std::getline(relations, entry, ',');) {
      std::size_t colon = entry.find(':');
      table.relations.push_back(entry.substr(0, colon));
      table.tuples.push_back(std::stoull(entry.substr(colon + 1)));
      cells *= table.tuples.back() + 1;
    }
    std::stringstream counts(fields[3]);
    for (std::uint64_t count; counts >> count;) table.counts.push_back(count);
    if (table.counts.size() != cells) {
      throw std::runtime_error("count table of wrong size in " + path);
    }
    tables[CountKey(fields[1], std::stoull(fields[0]))] = std::move(table);
  }
  return tables;
}

namespace {

// A sentence compiled for fast evaluation over bitmask worlds: the
// benchmark's own model checker, independent of the library's grounded
// route and of logic::Evaluate (too slow for 2^25 worlds).
struct WorldNode {
  FormulaKind kind = FormulaKind::kTrue;
  std::uint32_t offset = 0;         // kAtom: first tuple bit of the relation
  std::vector<int> slots;           // kAtom/kEquality: variable slots
  int slot = -1;                    // quantifiers: bound variable slot
  std::vector<WorldNode> children;
};

WorldNode CompileWorld(const Formula& formula, const Vocabulary& vocabulary,
                       const std::vector<std::uint32_t>& offsets,
                       std::map<std::string, int>* slots,
                       std::size_t* next_slot) {
  WorldNode node;
  node.kind = formula->kind();
  switch (formula->kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquality:
      if (formula->kind() == FormulaKind::kAtom) {
        node.offset = offsets[formula->relation()];
      }
      for (const swfomc::logic::Term& term : formula->arguments()) {
        if (!term.IsVariable()) throw std::invalid_argument("constant");
        node.slots.push_back(slots->at(term.name));
      }
      return node;
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      // A fresh slot per binding, so `∀x .. & ∃x ..` scopes correctly.
      node.slot = static_cast<int>((*next_slot)++);
      auto previous = slots->find(formula->variable());
      std::optional<int> shadowed;
      if (previous != slots->end()) shadowed = previous->second;
      (*slots)[formula->variable()] = node.slot;
      node.children.push_back(CompileWorld(formula->child(), vocabulary,
                                           offsets, slots, next_slot));
      if (shadowed.has_value()) {
        (*slots)[formula->variable()] = *shadowed;
      } else {
        slots->erase(formula->variable());
      }
      return node;
    }
    default:
      break;
  }
  for (const Formula& child : formula->children()) {
    node.children.push_back(
        CompileWorld(child, vocabulary, offsets, slots, next_slot));
  }
  return node;
}

bool EvalWorld(const WorldNode& node, std::uint64_t world, std::uint64_t n,
               std::uint64_t* env) {
  switch (node.kind) {
    case FormulaKind::kTrue: return true;
    case FormulaKind::kFalse: return false;
    case FormulaKind::kAtom: {
      std::uint64_t index = 0;
      for (int slot : node.slots) index = index * n + env[slot];
      return ((world >> (node.offset + index)) & 1u) != 0;
    }
    case FormulaKind::kEquality:
      return env[node.slots[0]] == env[node.slots[1]];
    case FormulaKind::kNot:
      return !EvalWorld(node.children[0], world, n, env);
    case FormulaKind::kAnd:
      for (const WorldNode& child : node.children) {
        if (!EvalWorld(child, world, n, env)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const WorldNode& child : node.children) {
        if (EvalWorld(child, world, n, env)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalWorld(node.children[0], world, n, env) ||
             EvalWorld(node.children[1], world, n, env);
    case FormulaKind::kIff:
      return EvalWorld(node.children[0], world, n, env) ==
             EvalWorld(node.children[1], world, n, env);
    case FormulaKind::kForall:
      for (env[node.slot] = 0; env[node.slot] < n; ++env[node.slot]) {
        if (!EvalWorld(node.children[0], world, n, env)) return false;
      }
      return true;
    case FormulaKind::kExists:
      for (env[node.slot] = 0; env[node.slot] < n; ++env[node.slot]) {
        if (EvalWorld(node.children[0], world, n, env)) return true;
      }
      return false;
  }
  return false;
}

CountTable EnumerateCounts(const std::string& sentence, std::uint64_t n) {
  Vocabulary vocabulary;
  Formula formula = swfomc::logic::Parse(sentence, &vocabulary);
  CountTable table;
  std::vector<std::uint32_t> offsets;
  std::uint32_t total = 0;
  for (swfomc::logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    std::uint64_t tuples = 1;
    for (std::size_t i = 0; i < vocabulary.arity(id); ++i) tuples *= n;
    table.relations.push_back(vocabulary.name(id));
    table.tuples.push_back(tuples);
    offsets.push_back(total);
    total += static_cast<std::uint32_t>(tuples);
  }
  if (total > 26) {
    throw std::invalid_argument("refusing to enumerate 2^" +
                                std::to_string(total) + " worlds");
  }
  std::map<std::string, int> slots;
  std::size_t next_slot = 0;
  WorldNode root =
      CompileWorld(formula, vocabulary, offsets, &slots, &next_slot);
  if (next_slot > 8) throw std::invalid_argument("too many quantifiers");
  std::size_t cells = 1;
  for (std::uint64_t tuples : table.tuples) cells *= tuples + 1;
  table.counts.assign(cells, 0);
  std::uint64_t env[8] = {};
  for (std::uint64_t world = 0; world < (std::uint64_t{1} << total);
       ++world) {
    if (!EvalWorld(root, world, n, env)) continue;
    std::size_t cell = 0;
    for (std::size_t r = 0; r < offsets.size(); ++r) {
      std::uint64_t mask = (std::uint64_t{1} << table.tuples[r]) - 1;
      cell = cell * (table.tuples[r] + 1) +
             std::popcount((world >> offsets[r]) & mask);
    }
    ++table.counts[cell];
  }
  return table;
}

BigRational CountTableValue(const CountTable& table,
                            const WeightVector& weights) {
  // powers[r][k] = w_r^k w̄_r^(m_r - k)
  std::vector<std::vector<BigRational>> powers;
  for (std::size_t r = 0; r < table.relations.size(); ++r) {
    const RelationWeight& weight = WeightOf(weights, table.relations[r]);
    std::vector<BigRational> row;
    for (std::uint64_t k = 0; k <= table.tuples[r]; ++k) {
      row.push_back(Pow(weight.positive, k) *
                    Pow(weight.negative, table.tuples[r] - k));
    }
    powers.push_back(std::move(row));
  }
  BigRational total;
  for (std::size_t cell = 0; cell < table.counts.size(); ++cell) {
    if (table.counts[cell] == 0) continue;
    BigRational term{BigInt(static_cast<std::int64_t>(table.counts[cell]))};
    std::size_t rest = cell;
    for (std::size_t r = table.relations.size(); r-- > 0;) {
      term *= powers[r][rest % (table.tuples[r] + 1)];
      rest /= table.tuples[r] + 1;
    }
    total += term;
  }
  return total;
}

}  // namespace

void MakeCountTables(const std::string& path) {
  std::set<std::pair<std::uint64_t, std::string>> wanted;
  for (const auto* families :
       {&GroundedFamilies(), &ServeHotFamilies(), &ServeColdFamilies()}) {
    for (const Family& family : *families) {
      if (family.reference != Reference::kCountTable) continue;
      for (std::uint64_t n : family.sizes) wanted.emplace(n, family.sentence);
    }
  }
  std::ofstream out(path);
  out << "# Per-size model counts by exhaustive world enumeration "
         "(perfbench --make-counts).\n"
         "# n<TAB>sentence<TAB>relation:tuples,..<TAB>counts in row-major "
         "order of true-tuple counts\n";
  for (const auto& [n, sentence] : wanted) {
    CountTable table = EnumerateCounts(sentence, n);
    // Cross-check the enumerator against the library's model checker
    // where that is cheap.
    std::uint64_t total_tuples = 0;
    for (std::uint64_t tuples : table.tuples) total_tuples += tuples;
    if (total_tuples <= 12) {
      WeightVector weights;
      for (const std::string& relation : table.relations) {
        weights.push_back({relation, BigRational::Fraction(3, 2),
                           BigRational::Fraction(-5, 7)});
      }
      Formula formula;
      Vocabulary vocabulary = WeightedVocabulary(sentence, weights, &formula);
      if (swfomc::grounding::ExhaustiveWFOMC(formula, vocabulary, n) !=
          CountTableValue(table, weights)) {
        throw std::logic_error("enumerator disagrees with ExhaustiveWFOMC on " +
                               sentence);
      }
    }
    out << n << '\t' << sentence << '\t';
    for (std::size_t r = 0; r < table.relations.size(); ++r) {
      out << (r > 0 ? "," : "") << table.relations[r] << ':'
          << table.tuples[r];
    }
    out << '\t';
    for (std::size_t i = 0; i < table.counts.size(); ++i) {
      out << (i > 0 ? " " : "") << table.counts[i];
    }
    out << '\n';
    std::cerr << "counted n=" << n << " " << sentence << "\n";
  }
}

namespace {

// p = w / (w + w̄), the probability of a tuple under the symmetric
// tuple-independent distribution; q = 1 - p.
BigRational Probability(const RelationWeight& weight) {
  return weight.positive / (weight.positive + weight.negative);
}

BigRational Total(const RelationWeight& weight, std::uint64_t tuples) {
  return Pow(weight.positive + weight.negative, tuples);
}

}  // namespace

BigRational ReferenceValue(const Family& family, std::uint64_t n,
                           const WeightVector& weights,
                           const std::map<std::string, CountTable>& tables) {
  auto w = [&](const char* relation) -> const RelationWeight& {
    return WeightOf(weights, relation);
  };
  const BigRational one(1);
  switch (family.reference) {
    case Reference::kCountTable: {
      auto it = tables.find(CountKey(family.sentence, n));
      if (it == tables.end()) {
        throw std::runtime_error(std::string("no count table for ") +
                                 family.name);
      }
      return CountTableValue(it->second, weights);
    }
    case Reference::kForallExists:
      return swfomc::closedforms::ForallExistsWFOMC(n, w("S").positive,
                                                    w("S").negative);
    case Reference::kTable1:
      return swfomc::closedforms::Table1WFOMC(
          n, w("R").positive, w("R").negative, w("S").positive,
          w("S").negative, w("T").positive, w("T").negative);
    case Reference::kSymmetric: {
      const RelationWeight& s = w("S");
      return Pow(s.positive + s.negative, n) *
             Pow(s.positive * s.positive + s.negative * s.negative,
                 n * (n - 1) / 2);
    }
    case Reference::kCqTable1: {
      // ¬Q = ∀x∀y (¬U(x) ∨ ¬S(x,y) ∨ ¬V(y)): Table 1 over the negated
      // relations, whose weights are the flipped pairs.
      const RelationWeight& u = w("U");
      const RelationWeight& s = w("S");
      const RelationWeight& v = w("V");
      BigRational all = Total(u, n) * Total(s, n * n) * Total(v, n);
      return all - swfomc::closedforms::Table1WFOMC(
                       n, u.negative, u.positive, s.negative, s.positive,
                       v.negative, v.positive);
    }
    case Reference::kCqStar: {
      // A star's witnesses for different centres use disjoint tuples:
      // Pr(Q) = 1 - (1 - p_centre Π_arms (1 - q_arm^n))^n. The 2-chain
      // R(x,y) & S(y,z) is a star centred at y.
      std::vector<std::string> relations = RelationsOf(family.sentence);
      BigRational centre = one;
      BigRational all = one;
      for (const std::string& name : relations) {
        const RelationWeight& weight = WeightOf(weights, name);
        bool unary = name == "U";
        all *= Total(weight, unary ? n : n * n);
        centre *= unary ? Probability(weight)
                        : one - Pow(one - Probability(weight), n);
      }
      return all * (one - Pow(one - centre, n));
    }
    case Reference::kCqChain3: {
      // R(x,y) & S(y,z) & T(z,w): y has an R-predecessor with probability
      // a = 1 - q_R^n and z a T-successor with probability t = 1 - q_T^n,
      // independently; given b such y and c such z, the query fails iff
      // none of the b*c tuples S(y,z) holds.
      const RelationWeight& r = w("R");
      const RelationWeight& s = w("S");
      const RelationWeight& t = w("T");
      BigRational a = one - Pow(one - Probability(r), n);
      BigRational c = one - Pow(one - Probability(t), n);
      BigRational q_s = one - Probability(s);
      swfomc::numeric::BinomialTable binomials;
      BigRational fail;
      for (std::uint64_t b = 0; b <= n; ++b) {
        BigRational pb = BigRational(binomials.Get(n, b)) * Pow(a, b) *
                         Pow(one - a, n - b);
        for (std::uint64_t k = 0; k <= n; ++k) {
          fail += pb * BigRational(binomials.Get(n, k)) * Pow(c, k) *
                  Pow(one - c, n - k) * Pow(q_s, b * k);
        }
      }
      return Total(r, n * n) * Total(s, n * n) * Total(t, n * n) *
             (one - fail);
    }
    case Reference::kLiftedCircuit:
      return ReferenceSweep(family, n, n, weights)[0];
    case Reference::kCellAlgorithm: {
      Formula formula;
      Vocabulary vocabulary =
          WeightedVocabulary(family.sentence, weights, &formula);
      return swfomc::fo2::LiftedWFOMC(formula, vocabulary, n);
    }
  }
  throw std::logic_error("unknown reference");
}

std::vector<BigRational> ReferenceSweep(const Family& family, std::uint64_t lo,
                                        std::uint64_t hi,
                                        const WeightVector& weights) {
  std::vector<BigRational> values;
  if (family.reference == Reference::kLiftedCircuit) {
    Formula formula;
    Vocabulary vocabulary =
        WeightedVocabulary(family.sentence, weights, &formula);
    swfomc::nnf::LiftedCircuit circuit =
        swfomc::fo2::CompileLifted(formula, vocabulary);
    swfomc::numeric::BinomialTable binomials;
    swfomc::nnf::LiftedCircuit::Weights defaults = circuit.DefaultWeights();
    for (std::uint64_t n = lo; n <= hi; ++n) {
      values.push_back(circuit.Evaluate(n, defaults, &binomials));
    }
    return values;
  }
  static const std::map<std::string, CountTable> kNoTables;
  for (std::uint64_t n = lo; n <= hi; ++n) {
    values.push_back(ReferenceValue(family, n, weights, kNoTables));
  }
  return values;
}

std::vector<Op> MakePass(const std::vector<Family>& families,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> pass;
  for (const Family& family : families) {
    for (int copy = 0; copy < family.copies; ++copy) {
      pass.push_back(Op{&family, MakeWeights(family, &rng)});
    }
  }
  rng.Shuffle(&pass);
  return pass;
}

namespace {

// A multiple of the batch-size count (10) and of two cycles of the cold
// keys (2 x 9), so one script holds every (hot key, batch) and (cold key,
// batch) pair equally often.
constexpr std::size_t kServeRounds = 90;
constexpr std::size_t kRoundsPerScrape = 10;
// Batch sizes of one round's hot requests, dealt out in seeded order.
constexpr std::uint64_t kHotBatches[] = {1, 1, 1, 2, 2, 4, 4, 8, 16, 32};

// Weight vectors of one key are drawn from a pool of this many seeded
// vectors, as a client re-asking the same questions would; answers are
// checked once per distinct vector.
constexpr std::size_t kPoolSize = 24;

using WeightPools = std::map<const Family*, std::vector<WeightVector>>;

ServeLine QueryLine(std::size_t id, const Family& family, std::uint64_t n,
                    std::size_t batch, Rng* rng, WeightPools* pools) {
  std::vector<WeightVector>& pool = (*pools)[&family];
  if (pool.empty()) {
    Rng pool_rng(rng->Next());
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(MakeWeights(family, &pool_rng));
    }
  }
  ServeLine line;
  line.family = &family;
  line.n = n;
  std::string text = "{\"id\":" + std::to_string(id) + ",\"sentence\":\"" +
                     swfomc::io::EscapeJson(family.sentence) +
                     "\",\"domain\":" + std::to_string(n) + ",\"weights\":[";
  for (std::size_t v = 0; v < batch; ++v) {
    line.batch.push_back(pool[rng->Below(pool.size())]);
    text += v > 0 ? ",{" : "{";
    bool first = true;
    for (const RelationWeight& weight : line.batch.back()) {
      text += (first ? "\"" : ",\"") + weight.relation + "\":[\"" +
              weight.positive.ToString() + "\",\"" +
              weight.negative.ToString() + "\"]";
      first = false;
    }
    text += "}";
  }
  line.text = text + "]}";
  return line;
}

}  // namespace

ServeScript MakeServeScript(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Family>& hot = ServeHotFamilies();
  const std::vector<Family>& cold = ServeColdFamilies();
  constexpr std::size_t kBatchKinds = std::size(kHotBatches);
  ServeScript script;
  script.max_circuits = hot.size() + 3;
  WeightPools pools;
  std::size_t id = 0;
  for (const Family& family : hot) {
    script.prime.push_back(
        QueryLine(id++, family, family.sizes[0], 1, &rng, &pools));
  }
  // The cold keys come in their declared order: which of them are
  // resident together, and so the server's peak memory, does not depend
  // on the seed. Which (key, n, batch) triples a script holds does not
  // either; only the order of each round's lines and the weights do.
  std::vector<const Family*> cold_order;
  for (const Family& family : cold) cold_order.push_back(&family);
  for (std::size_t round = 0; round < kServeRounds; ++round) {
    std::vector<ServeLine> lines;
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const Family& family = hot[i];
      lines.push_back(QueryLine(id++, family,
                                family.sizes[round % family.sizes.size()],
                                kHotBatches[(i + round) % kBatchKinds], &rng,
                                &pools));
    }
    rng.Shuffle(&lines);
    std::size_t cycle = round / cold_order.size();
    const Family& family = *cold_order[round % cold_order.size()];
    lines.insert(lines.begin() + rng.Below(lines.size() + 1),
                 QueryLine(id++, family,
                           family.sizes[cycle % family.sizes.size()],
                           1 + cycle % 2, &rng, &pools));
    for (ServeLine& line : lines) script.lines.push_back(std::move(line));
    if ((round + 1) % kRoundsPerScrape == 0) {
      ServeLine scrape;
      scrape.scrape = true;
      scrape.text =
          "{\"id\":" + std::to_string(id++) + ",\"cmd\":\"metrics\"}";
      script.lines.push_back(std::move(scrape));
    }
  }
  return script;
}

std::vector<PreparedOp> PrepareOps(const std::vector<Op>& pass,
                                   unsigned threads) {
  std::vector<PreparedOp> prepared;
  for (const Op& op : pass) {
    PreparedOp entry{&op, nullptr, {}};
    swfomc::api::Engine::Options options;
    options.num_threads = threads;
    entry.engine = std::make_unique<swfomc::api::Engine>(
        WeightedVocabulary(op.family->sentence, op.weights, &entry.formula),
        options);
    prepared.push_back(std::move(entry));
  }
  return prepared;
}

const swfomc::io::JsonValue* Member(const swfomc::io::JsonValue& object,
                                    const std::string& key) {
  for (const auto& [name, value] : object.object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<std::vector<std::string>> ReplyAnswers(
    const swfomc::io::JsonValue& reply) {
  const swfomc::io::JsonValue* status = Member(reply, "status");
  const swfomc::io::JsonValue* results = Member(reply, "results");
  if (status == nullptr || status->string != "ok" || results == nullptr) {
    return std::nullopt;
  }
  std::vector<std::string> answers;
  for (const swfomc::io::JsonValue& entry : results->array) {
    const swfomc::io::JsonValue* value = Member(entry, "wfomc");
    if (value == nullptr) return std::nullopt;
    answers.push_back(value->string);
  }
  return answers;
}

}  // namespace perfbench
