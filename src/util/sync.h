// Annotated synchronization primitives: the only place in the tree allowed
// to touch std::mutex / std::condition_variable / std::shared_mutex
// directly (tools/lint_concurrency.py enforces this).
//
// Every wrapper carries Clang Thread Safety Analysis capability attributes,
// so a Clang build with -Wthread-safety -Wthread-safety-beta (the `tsa`
// CMake preset; promoted to errors under MECSC_WERROR) proves at compile
// time that every field marked MECSC_GUARDED_BY is only touched while its
// mutex is held — on every path, not just the interleavings a TSan run
// happens to hit. On non-Clang compilers the macros expand to nothing and
// the wrappers cost exactly what the raw primitives cost.
//
// Idiom:
//
//   class Counter {
//    public:
//     void bump() {
//       const util::MutexLock lock(mutex_);
//       ++value_;
//     }
//    private:
//     mutable util::Mutex mutex_;
//     int value_ MECSC_GUARDED_BY(mutex_) = 0;
//   };
//
// Condition waits are written as explicit while-loops so the guarded reads
// in the predicate sit in the calling function's scope, where the analysis
// can see the lock is held (a predicate lambda would be analyzed as a
// separate, lock-free function):
//
//   util::MutexLock lock(mutex_);
//   while (!closed_ && items_.empty()) cv_.wait(mutex_);
//
// Lock hierarchy (documented in DESIGN.md "Concurrency invariants" and
// linted by tools/lint_concurrency.py): result cache -> request queue ->
// stats counters. Every other mutex in the tree is a leaf — never held
// while calling into another locking component.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Capability attribute macros (no-ops outside Clang). Names and semantics
// follow clang.llvm.org/docs/ThreadSafetyAnalysis.html.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define MECSC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MECSC_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

/// Marks a class as a capability (lockable) type.
#define MECSC_CAPABILITY(x) MECSC_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires in its constructor and releases in its
/// destructor.
#define MECSC_SCOPED_CAPABILITY MECSC_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while `x` is held.
#define MECSC_GUARDED_BY(x) MECSC_THREAD_ANNOTATION(guarded_by(x))

/// Pointee may only be dereferenced while `x` is held.
#define MECSC_PT_GUARDED_BY(x) MECSC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the listed capabilities (exclusively / shared).
#define MECSC_REQUIRES(...) \
  MECSC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MECSC_REQUIRES_SHARED(...) \
  MECSC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (and did not hold it on entry).
#define MECSC_ACQUIRE(...) \
  MECSC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MECSC_ACQUIRE_SHARED(...) \
  MECSC_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, released on exit).
#define MECSC_RELEASE(...) \
  MECSC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MECSC_RELEASE_SHARED(...) \
  MECSC_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `...` (e.g. true).
#define MECSC_TRY_ACQUIRE(...) \
  MECSC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define MECSC_EXCLUDES(...) MECSC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (tells the analysis so on
/// paths it cannot prove, e.g. after an external handoff).
#define MECSC_ASSERT_CAPABILITY(x) \
  MECSC_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define MECSC_RETURN_CAPABILITY(x) MECSC_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the invariant holds anyway.
#define MECSC_NO_THREAD_SAFETY_ANALYSIS \
  MECSC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mecsc::util {

/// std::mutex carrying the "mutex" capability. Prefer MutexLock over
/// calling lock()/unlock() directly (the lint flags manual pairs).
class MECSC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MECSC_ACQUIRE() { m_.lock(); }
  void unlock() MECSC_RELEASE() { m_.unlock(); }
  bool try_lock() MECSC_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Declares (to the analysis and to readers) that this thread holds the
  /// mutex at this point. No runtime effect.
  void assert_held() const MECSC_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII exclusive lock over a Mutex — the annotated std::lock_guard.
class MECSC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MECSC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MECSC_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. There is deliberately no
/// predicate overload: waits are written as
///
///   while (!condition) cv.wait(mutex);
///
/// which (a) makes the lost-wakeup-proof loop explicit at the call site
/// (tools/lint_concurrency.py rejects a wait outside a while-loop), and
/// (b) keeps the predicate's guarded reads inside the scope the analysis
/// knows holds the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups happen; the caller's while-loop is the
  /// correctness guard.
  void wait(Mutex& mu) MECSC_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's MutexLock
  }

  /// wait() with a timeout: returns false on timeout, true on a wakeup
  /// (possibly spurious — the caller's while-loop still guards). For
  /// periodic background work that must stay interruptible (the router's
  /// health prober sleeps between sweeps without pinning shutdown).
  bool wait_for_ms(Mutex& mu, double timeout_ms) MECSC_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const auto status = cv_.wait_for(
        native, std::chrono::duration<double, std::milli>(timeout_ms));
    native.release();  // ownership stays with the caller's MutexLock
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// std::shared_mutex carrying the "shared_mutex" capability: one writer or
/// many readers. For read-mostly state consulted on hot paths (e.g. the
/// log observer).
class MECSC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MECSC_ACQUIRE() { m_.lock(); }
  void unlock() MECSC_RELEASE() { m_.unlock(); }
  bool try_lock() MECSC_TRY_ACQUIRE(true) { return m_.try_lock(); }
  void lock_shared() MECSC_ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() MECSC_RELEASE_SHARED() { m_.unlock_shared(); }

 private:
  std::shared_mutex m_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class MECSC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MECSC_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() MECSC_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class MECSC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MECSC_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() MECSC_RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace mecsc::util
