/// \file check.hpp
/// \brief Error-handling primitives: invariant assertions, argument
///        validation, and checked narrowing conversions.
///
/// Style follows the C++ Core Guidelines: exceptions signal precondition
/// violations on the public API surface (`NBCLOS_REQUIRE`), while internal
/// invariants use `NBCLOS_ASSERT`, which is active in all build types --
/// this library computes combinatorial certificates, so silent corruption
/// is worse than a small runtime cost.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace nbclos {

/// Exception thrown when a public-API precondition is violated.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when an internal invariant fails (a library bug).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void fail_require(const char* expr, const std::string& msg,
                                      const std::source_location loc) {
  throw precondition_error(std::string("precondition failed: ") + expr +
                           (msg.empty() ? "" : (": " + msg)) + " at " +
                           loc.file_name() + ":" + std::to_string(loc.line()));
}

[[noreturn]] inline void fail_assert(const char* expr,
                                     const std::source_location loc) {
  throw invariant_error(std::string("invariant failed: ") + expr + " at " +
                        loc.file_name() + ":" + std::to_string(loc.line()));
}

}  // namespace detail

/// Validate a public-API precondition; throws nbclos::precondition_error.
#define NBCLOS_REQUIRE(expr, msg)                                 \
  do {                                                            \
    if (!(expr)) {                                                \
      ::nbclos::detail::fail_require(#expr, (msg),                \
                                     std::source_location::current()); \
    }                                                             \
  } while (false)

/// Check an internal invariant; throws nbclos::invariant_error.
/// Active in every build type.
#define NBCLOS_ASSERT(expr)                                       \
  do {                                                            \
    if (!(expr)) {                                                \
      ::nbclos::detail::fail_assert(#expr,                        \
                                    std::source_location::current()); \
    }                                                             \
  } while (false)

// --- debug-only bounds checks for per-pair / per-flit accessors ---------
//
// NBCLOS_REQUIRE stays on the construction/API boundary, where a check
// runs once per object.  Index arithmetic that runs once per routed pair
// or per simulated flit (FoldedClos link accessors, RouteCache::links,
// Network::channel_src) instead uses NBCLOS_DEBUG_CHECK: identical to
// NBCLOS_REQUIRE in Debug builds, compiled out entirely when NDEBUG is
// defined (Release / RelWithDebInfo).  The ids these accessors consume
// are produced by the library's own counted loops and caches, so the
// checks are redundant in correct code — Debug + sanitizer CI keeps them
// honest while the hot paths stay branch-free at -O3.
//
// Override with -DNBCLOS_DEBUG_CHECKS=0/1 to force either behaviour.
#if !defined(NBCLOS_DEBUG_CHECKS)
#if defined(NDEBUG)
#define NBCLOS_DEBUG_CHECKS 0
#else
#define NBCLOS_DEBUG_CHECKS 1
#endif
#endif

#if NBCLOS_DEBUG_CHECKS
#define NBCLOS_DEBUG_CHECK(expr, msg) NBCLOS_REQUIRE(expr, msg)
#else
#define NBCLOS_DEBUG_CHECK(expr, msg) \
  do {                                \
  } while (false)
#endif

/// Whether NBCLOS_DEBUG_CHECK is active in this translation unit — lets
/// tests skip throw-expectations that a Release build compiles out.
inline constexpr bool kDebugChecksEnabled = NBCLOS_DEBUG_CHECKS != 0;

/// Checked narrowing conversion (gsl::narrow style). Throws if the value
/// does not round-trip or if the sign changes.
template <typename To, typename From>
[[nodiscard]] constexpr To narrow(From value) {
  static_assert(std::is_arithmetic_v<To> && std::is_arithmetic_v<From>);
  const To converted = static_cast<To>(value);
  if (static_cast<From>(converted) != value ||
      ((converted < To{}) != (value < From{}))) {
    throw precondition_error("narrowing conversion lost information");
  }
  return converted;
}

}  // namespace nbclos
