#ifndef SWFOMC_FO2_CELL_ALGORITHM_H_
#define SWFOMC_FO2_CELL_ALGORITHM_H_

#include <cstdint>

#include "fo2/fo2_normal_form.h"
#include "numeric/combinatorics.h"
#include "numeric/rational.h"

/// The direct (numeric) Appendix C recursion: the reference
/// implementation the compiled lifted circuit (fo2/lifted_compiler.h) is
/// tested against. The engine does not call it for n >= 1 — its lifted
/// leg evaluates the compiled circuit — and uses LiftedWFOMC only at
/// n = 0, where the normal form is invalid and the 0-ary worlds are
/// enumerated directly. It serves the differential suites (lifted_test,
/// fo2_test, cross_engine_test) and perfbench's per-layer decomposition
/// of the cell algorithm (normal form, cell evaluation).

namespace swfomc::fo2 {

/// Instrumentation for the cell algorithm (reported by the benches).
struct CellStats {
  std::size_t unary_predicates = 0;
  std::size_t binary_predicates = 0;
  std::size_t zeroary_predicates = 0;
  std::size_t cells = 0;        // 1-types enumerated, summed over
                                // zero-ary Shannon branches
  std::size_t valid_cells = 0;  // cells whose diagonal satisfies ψ(x,x),
                                // summed over Shannon branches
  std::uint64_t composition_terms = 0;
};

/// The Appendix C lifted algorithm on a prepared universal form:
///
///   WFOMC(∀x∀y ψ, n) = Σ_{n_1+..+n_C = n} (n choose n_1..n_C)
///       Π_l (u_l)^{n_l} · Π_l (r_ll)^{C(n_l,2)} · Π_{k<l} (r_kl)^{n_k n_l}
///
/// where cells (1-types) l range over truth assignments to {U(x)} ∪
/// {R(x,x)}, u_l is the weight of one element realizing cell l (unary +
/// diagonal tuples; zero unless ψ(x,x) holds), and r_kl is the weighted
/// sum over the off-diagonal atoms {R(a,b), R(b,a)} of assignments
/// satisfying ψ(a,b) ∧ ψ(b,a). Zero-ary predicates are Shannon-expanded
/// first (Appendix C). Runtime is polynomial in n for a fixed sentence:
/// O(n^{C-1}) terms with C a sentence-only constant.
///
/// `binomials` is optional caller-owned scratch: a sweep over domain
/// sizes passes one table so each Pascal row is built once, not once per
/// point.
numeric::BigRational CellAlgorithmWFOMC(
    const UniversalForm& form, std::uint64_t domain_size,
    numeric::BinomialTable* binomials = nullptr, CellStats* stats = nullptr);

/// End-to-end symmetric WFOMC for an FO² sentence: normal form + cell
/// algorithm. Throws std::invalid_argument for sentences outside the
/// supported fragment (see ToUniversalForm).
numeric::BigRational LiftedWFOMC(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 std::uint64_t domain_size,
                                 CellStats* stats = nullptr);

/// FOMC(Φ, n) via the lifted algorithm (weights forced to (1,1)).
numeric::BigInt LiftedFOMC(const logic::Formula& sentence,
                           const logic::Vocabulary& vocabulary,
                           std::uint64_t domain_size);

}  // namespace swfomc::fo2

#endif  // SWFOMC_FO2_CELL_ALGORITHM_H_
