#include "util/subprocess.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ps::util {

namespace {

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 255;
}

}  // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const std::string& stdout_path,
                             const std::string& stderr_path) {
  if (argv.empty()) throw std::runtime_error("subprocess: empty argv");
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("subprocess: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls until exec.
    auto redirect = [](const std::string& path, int fd) {
      if (path.empty()) return;
      int file = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (file >= 0) {
        ::dup2(file, fd);
        ::close(file);
      }
    };
    redirect(stdout_path, STDOUT_FILENO);
    redirect(stderr_path, STDERR_FILENO);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; 127 = "command not found" convention
  }
  return Subprocess(pid);
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), reaped_(other.reaped_), exit_code_(other.exit_code_) {
  other.pid_ = -1;
  other.reaped_ = true;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this == &other) return *this;
  // Never silently leak a live child as an unreapable zombie: overwriting
  // an owned, un-reaped process is a caller bug, and killing + reaping is
  // the only noexcept-safe response.
  if (!reaped_ && pid_ > 0) {
    kill();
    wait();
  }
  pid_ = other.pid_;
  reaped_ = other.reaped_;
  exit_code_ = other.exit_code_;
  other.pid_ = -1;
  other.reaped_ = true;
  return *this;
}

int Subprocess::wait() {
  if (reaped_) return exit_code_;
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  reaped_ = true;
  exit_code_ = reaped == pid_ ? decode_status(status) : 255;
  return exit_code_;
}

bool Subprocess::try_wait(int* exit_code) {
  if (reaped_) {
    if (exit_code != nullptr) *exit_code = exit_code_;
    return true;
  }
  int status = 0;
  pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
  if (reaped == 0) return false;
  reaped_ = true;
  exit_code_ = reaped == pid_ ? decode_status(status) : 255;
  if (exit_code != nullptr) *exit_code = exit_code_;
  return true;
}

bool Subprocess::wait_for(std::int64_t timeout_ms, int* exit_code) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (try_wait(exit_code)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    // 2 ms poll: coarse enough to stay cheap, fine enough that a killed
    // worker is reaped well inside any realistic lease timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Subprocess::kill() noexcept {
  if (!reaped_ && pid_ > 0) ::kill(pid_, SIGKILL);
}

}  // namespace ps::util
