// catalyst/contract -- repo-wide precondition / postcondition / invariant
// checking.
//
// The analysis pipeline is only trustworthy if every stage preserves its
// numerical assumptions (finite measurement vectors, consistent shapes,
// QR pivot consistency, ...).  These macros give every subsystem one way to
// state those assumptions:
//
//   CATALYST_REQUIRE(cond, msg)        -- precondition on inputs
//   CATALYST_ENSURE(cond, msg)         -- postcondition on results
//   CATALYST_INVARIANT(cond, msg)      -- internal consistency mid-algorithm
//   CATALYST_ASSUME_FINITE(value, msg) -- no NaN/Inf in a scalar or range
//
// A failed check throws.  Each macro has an `_AS(cond, ExcType, msg)`
// variant that throws a caller chosen exception type, so migrated legacy
// checks keep their documented exception types (linalg::DimensionError,
// std::invalid_argument, cachesim::ConfigError, ...); the un-suffixed
// macros throw ContractViolation.  The `msg` expression is evaluated only on
// violation, so string building costs nothing on the success path.  Every
// build compiles every check in, Release included.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace catalyst::contract {

/// Default exception type thrown by the un-suffixed macros.
class ContractViolation : public std::runtime_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::runtime_error(what) {}
};

// ----- Numeric helpers shared by contract call sites -------------------------

/// True when every element of the range is neither NaN nor +/-Inf.
inline bool all_finite(std::span<const double> values) noexcept {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

inline bool all_finite(const std::vector<double>& values) noexcept {
  return all_finite(std::span<const double>(values));
}

inline bool all_finite(double value) noexcept { return std::isfinite(value); }

/// Scaled singularity tolerance for an n x n triangular solve: a diagonal
/// entry d is treated as singular when |d| <= singular_tolerance(n, dmax)
/// with dmax = max_i |R(i,i)|.  The classic n*eps*dmax bound: anything that
/// small is indistinguishable from rounding noise of the factorization, and
/// dividing by it turns noise into the answer.
inline double singular_tolerance(std::ptrdiff_t n, double max_abs_diag) noexcept {
  return static_cast<double>(n > 0 ? n : 1) *
         std::numeric_limits<double>::epsilon() * max_abs_diag;
}

namespace detail {

/// Builds the "<kind> violated at file:line: `expr` -- msg" message.
std::string format_violation(const char* kind, const char* expr,
                             const char* file, int line,
                             const std::string& msg);

}  // namespace detail
}  // namespace catalyst::contract

// ----- The macros ------------------------------------------------------------

#define CATALYST_CONTRACT_CHECK_AS(kind, cond, ExcType, msg)              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      throw ExcType(::catalyst::contract::detail::format_violation(       \
          kind, #cond, __FILE__, __LINE__, (msg)));                       \
    }                                                                     \
  } while (0)

/// Precondition: validates caller-supplied inputs.
#define CATALYST_REQUIRE_AS(cond, ExcType, msg) \
  CATALYST_CONTRACT_CHECK_AS("precondition", cond, ExcType, msg)
#define CATALYST_REQUIRE(cond, msg) \
  CATALYST_REQUIRE_AS(cond, ::catalyst::contract::ContractViolation, msg)

/// Postcondition: validates results before returning them.
#define CATALYST_ENSURE_AS(cond, ExcType, msg) \
  CATALYST_CONTRACT_CHECK_AS("postcondition", cond, ExcType, msg)
#define CATALYST_ENSURE(cond, msg) \
  CATALYST_ENSURE_AS(cond, ::catalyst::contract::ContractViolation, msg)

/// Invariant: internal consistency that must hold mid-algorithm.
#define CATALYST_INVARIANT_AS(cond, ExcType, msg) \
  CATALYST_CONTRACT_CHECK_AS("invariant", cond, ExcType, msg)
#define CATALYST_INVARIANT(cond, msg) \
  CATALYST_INVARIANT_AS(cond, ::catalyst::contract::ContractViolation, msg)

/// Finite-value assumption over a double, std::vector<double> or
/// std::span<const double>: rejects NaN and +/-Inf.
#define CATALYST_ASSUME_FINITE_AS(value, ExcType, msg)       \
  CATALYST_CONTRACT_CHECK_AS("finite-assumption",            \
                             ::catalyst::contract::all_finite(value), \
                             ExcType, msg)
#define CATALYST_ASSUME_FINITE(value, msg) \
  CATALYST_ASSUME_FINITE_AS(value, ::catalyst::contract::ContractViolation, msg)
