#include "util/spool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "obs/registry.h"

namespace ps::util {

namespace fs = std::filesystem;

namespace {

// Spool verbs are the I/O hot path of every serve/sweep tier, so their
// counters live directly in the registry — this is what keeps the <2 %
// observability fence on BM_ServeIngest honest (the registry is *on* the
// benched path, not beside it). Registration happens once per process via
// the function-local statics; each call afterwards is one relaxed inc.
obs::Counter& publishes_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("spool.publishes");
  return counter;
}
obs::Counter& claims_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("spool.claims");
  return counter;
}
obs::Counter& claim_races_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("spool.claim_races");
  return counter;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("spool: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// durable: POSIX only guarantees the new directory entry survives a crash
/// once the directory itself has been synced.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("open dir", dir);
  if (::fsync(fd) < 0) {
    ::close(fd);
    fail("fsync dir", dir);
  }
  if (::close(fd) < 0) fail("close dir", dir);
}

}  // namespace

void ensure_dir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw std::runtime_error("spool: mkdir '" + path + "': " + ec.message());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("open", path);
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) fail("read", path);
  return out.str();
}

void write_file_atomic(const std::string& path, const std::string& content,
                       bool durable) {
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("open", tmp);
  std::size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("write", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability before visibility: a published file must never be empty or
  // truncated after a crash, or the driver would merge garbage.
  if ((durable && ::fsync(fd) < 0) || ::close(fd) < 0) fail("fsync", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) fail("rename", tmp);
  if (durable) fsync_parent_dir(path);
  publishes_counter().inc();
}

std::vector<std::string> list_files(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (suffix.empty() || (name.size() >= suffix.size() &&
                           name.compare(name.size() - suffix.size(), suffix.size(),
                                        suffix) == 0)) {
      names.push_back(std::move(name));
    }
  }
  if (ec) throw std::runtime_error("spool: list '" + dir + "': " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::int64_t> spool_retry_delays_ms(const SpoolOptions& options) {
  std::vector<std::int64_t> delays;
  delays.reserve(static_cast<std::size_t>(std::max(options.claim_retries, 0)));
  std::int64_t backoff_ms = options.claim_backoff_initial_ms;
  for (int retry = 0; retry < options.claim_retries; ++retry) {
    delays.push_back(std::min(backoff_ms, options.claim_backoff_max_ms));
    backoff_ms *= 2;
  }
  return delays;
}

bool claim_file(const std::string& from, const std::string& to,
                const SpoolOptions& options) {
  // Transient errnos (seen on NFS and similar networked filesystems under
  // contention) sleep through spool_retry_delays_ms(options) instead of
  // aborting the worker; ENOENT stays the normal lost-race return at any
  // point. The schedule is built on the first transient error only, so an
  // uncontended claim allocates nothing.
  std::vector<std::int64_t> delays_ms;
  for (std::size_t attempt = 0;; ++attempt) {
    if (std::rename(from.c_str(), to.c_str()) == 0) break;
    if (errno == ENOENT) {
      claim_races_counter().inc();
      return false;  // lost the race — somebody claimed it
    }
    const int error = errno;
    if (error != EBUSY && error != ESTALE && error != EAGAIN) fail("claim", from);
    if (attempt == 0) delays_ms = spool_retry_delays_ms(options);
    if (attempt >= delays_ms.size()) {
      errno = error;
      fail("claim", from);
    }
    ::usleep(static_cast<useconds_t>(delays_ms[attempt]) * 1000);
  }
  if (options.durable) fsync_parent_dir(to);
  claims_counter().inc();
  return true;
}

bool claim_file(const std::string& from, const std::string& to, bool durable) {
  SpoolOptions options;
  options.durable = durable;
  return claim_file(from, to, options);
}

bool retire_file(const std::string& from, const std::string& to, bool durable) {
  // Retiring into an archive is the same atomic rename as claiming out of an
  // inbox — one primitive, two spool verbs. ENOENT (false) means the source
  // was already retired by someone else.
  return claim_file(from, to, durable);
}

bool path_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

void remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string make_temp_dir(const std::string& prefix) {
  std::string tmpl = (fs::temp_directory_path() / (prefix + "XXXXXX")).string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) fail("mkdtemp", tmpl);
  return std::string(buf.data());
}

}  // namespace ps::util
