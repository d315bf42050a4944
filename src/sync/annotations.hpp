// catalyst/sync -- Clang thread-safety-analysis attribute macros.
//
// These wrap the Clang `-Wthread-safety` capability attributes so lock
// discipline is checked at COMPILE TIME: a field tagged CATALYST_GUARDED_BY
// can only be touched while its mutex is held, a function tagged
// CATALYST_REQUIRES can only be called with the lock already taken, and a
// forgotten unlock is a build error under `scripts/check.sh thread_safety`
// (clang + -Wthread-safety -Wthread-safety-beta, warnings as errors).
//
// On compilers without the attributes (gcc, msvc) every macro expands to
// nothing, so annotated code is plain C++ everywhere and analyzed C++ under
// clang.
//
// Naming follows the Clang documentation's mutex.h reference sheet; only
// the spellings this codebase uses are provided.  The annotated wrapper
// types live in sync/mutex.hpp; catalyst-lint's raw-sync-primitive rule
// keeps raw std::mutex & friends from bypassing them.
#pragma once

#if defined(__clang__)
#define CATALYST_TSA(x) __attribute__((x))
#else
#define CATALYST_TSA(x)  // not clang: plain C++
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex", ...).
#define CATALYST_CAPABILITY(x) CATALYST_TSA(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define CATALYST_SCOPED_CAPABILITY CATALYST_TSA(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define CATALYST_GUARDED_BY(x) CATALYST_TSA(guarded_by(x))

/// Pointer field: the pointee may only be touched while holding `x`.
#define CATALYST_PT_GUARDED_BY(x) CATALYST_TSA(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and exit).
#define CATALYST_REQUIRES(...) CATALYST_TSA(requires_capability(__VA_ARGS__))
#define CATALYST_REQUIRES_SHARED(...) \
  CATALYST_TSA(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define CATALYST_ACQUIRE(...) CATALYST_TSA(acquire_capability(__VA_ARGS__))
#define CATALYST_ACQUIRE_SHARED(...) \
  CATALYST_TSA(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, released on return).
#define CATALYST_RELEASE(...) CATALYST_TSA(release_capability(__VA_ARGS__))
#define CATALYST_RELEASE_SHARED(...) \
  CATALYST_TSA(release_shared_capability(__VA_ARGS__))
/// Releases a capability acquired either exclusively or shared (scoped
/// guards whose destructor must match both modes).
#define CATALYST_RELEASE_GENERIC(...) \
  CATALYST_TSA(release_generic_capability(__VA_ARGS__))

/// Function acquires the capability only when returning `b`.
#define CATALYST_TRY_ACQUIRE(b, ...) \
  CATALYST_TSA(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// non-reentrant locks).
#define CATALYST_EXCLUDES(...) CATALYST_TSA(locks_excluded(__VA_ARGS__))

/// Declares a static acquisition order between two capability members.
#define CATALYST_ACQUIRED_BEFORE(...) \
  CATALYST_TSA(acquired_before(__VA_ARGS__))
#define CATALYST_ACQUIRED_AFTER(...) CATALYST_TSA(acquired_after(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define CATALYST_RETURN_CAPABILITY(x) CATALYST_TSA(lock_returned(x))

/// Asserts (runtime-trusted) that the capability is held at this point.
#define CATALYST_ASSERT_CAPABILITY(x) CATALYST_TSA(assert_capability(x))

/// Escape hatch: body is not analyzed.  Used sparingly -- death-test
/// helpers that deliberately abort mid-hold, and nothing else.
#define CATALYST_NO_THREAD_SAFETY_ANALYSIS \
  CATALYST_TSA(no_thread_safety_analysis)
