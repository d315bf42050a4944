// catalyst/sync -- runtime lock-order validator.
//
// The Clang annotations (sync/annotations.hpp) prove WHO must hold a lock;
// they cannot prove locks are always taken in a consistent ORDER across
// call chains, which is the deadlock class a long-running `catalystd`
// worker pool actually dies of.  This validator checks that dynamically:
//
//   * each thread keeps a stack of the locks it currently holds;
//   * every acquisition records directed edges  held-lock -> new-lock  in a
//     process-wide acquisition-order graph, keyed by the mutex's NAME (the
//     site label passed at construction), together with a snapshot of the
//     held stack that first established the edge;
//   * if acquiring L while a path L ~> H exists for some held lock H, the
//     program has taken the two locks in both orders -- a latent deadlock
//     -- and the validator aborts, printing BOTH held-lock stacks: the one
//     recorded when the opposite order was first seen, and the current one.
//
// Cost model (same shape as catalyst::obs): the validator is always
// compiled in and gated at run time.
//   * disabled (default): one relaxed atomic load per lock;
//   * enabled (CATALYST_LOCK_ORDER=1 or set_enabled(true)): a thread-local
//     stack push plus a global-graph update under an internal mutex --
//     debug-build tooling, not a production hot path.
//
// Keying by name means two instances sharing a construction site are one
// graph node: an inconsistent order between two *instances* of the same
// class is reported too.  Self-edges (nested acquisition of two same-named
// locks) are skipped rather than reported, so recursive structures do not
// false-positive; give such locks distinct names if their order matters.
#pragma once

#include <cstddef>

namespace catalyst::sync::order {

/// Runtime switch.  Initialized from the CATALYST_LOCK_ORDER environment
/// variable ("1"/"on"/"true"); tests flip it explicitly.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Called by sync::Mutex/SharedMutex before blocking on an acquisition:
/// records order edges, checks for an inversion (abort on detection), and
/// pushes the lock onto this thread's held stack.
void on_acquire(const void* mtx, const char* name) noexcept;

/// Called after a successful try_lock: pushes the hold WITHOUT recording
/// order edges or checking for inversions -- a try-lock cannot deadlock, so
/// opportunistic acquisition patterns stay legal.
void on_try_acquire(const void* mtx, const char* name) noexcept;

/// Called on release: drops the lock from this thread's held stack (no-op
/// if it was never pushed, e.g. acquired while the validator was disabled).
void on_release(const void* mtx) noexcept;

/// Number of locks the calling thread currently holds (validator's view).
std::size_t this_thread_held() noexcept;

/// Forgets the acquisition-order graph and the calling thread's held stack
/// (tests only; other threads' stacks are thread-local and unreachable).
void reset() noexcept;

}  // namespace catalyst::sync::order
