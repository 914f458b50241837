// Minimal child-process management for the distributed sweep driver:
// spawn-with-redirects, non-blocking reaping, kill. POSIX-only (the
// project's CI and target platform are Linux); nothing here is used by the
// simulation core.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ps::util {

/// A spawned child process. Move-only; the destructor does NOT kill or
/// reap — callers own the lifecycle explicitly (the driver must be able to
/// observe a worker's death, not mask it). The one exception: move-
/// assigning over an un-reaped child kills and reaps it first, because a
/// silently dropped pid would be an unreapable zombie.
class Subprocess {
 public:
  /// fork+exec. argv[0] is the executable path (resolved via PATH when it
  /// contains no '/'). Empty redirect paths leave the parent's stdio in
  /// place; non-empty ones are opened append ("a") so several workers can
  /// share one log. Throws std::runtime_error when the child cannot be
  /// spawned (fork failure — exec failure surfaces as exit code 127).
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const std::string& stdout_path = "",
                          const std::string& stderr_path = "");

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess() = default;

  /// Blocks until the child exits. Returns the exit code, or 128+signal
  /// when the child was killed by a signal (shell convention, so a worker
  /// death by SIGKILL is distinguishable from every sane exit code).
  int wait();

  /// Non-blocking probe; true when the child has exited (code as wait()).
  bool try_wait(int* exit_code);

  /// Bounded wait: polls for up to `timeout_ms` milliseconds. Returns true
  /// (child reaped, code as wait()) on exit, false when it is still
  /// running at the deadline — the caller can then kill() and wait().
  bool wait_for(std::int64_t timeout_ms, int* exit_code = nullptr);

  /// SIGKILL. Safe to call after exit (no-op); the child must still be
  /// reaped via wait()/try_wait().
  void kill() noexcept;

  pid_t pid() const noexcept { return pid_; }
  bool running() const noexcept { return !reaped_; }

 private:
  explicit Subprocess(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
  bool reaped_ = false;
  int exit_code_ = -1;
};

}  // namespace ps::util
