#include "serve/protocol.h"

#include <ctime>

#include "dist/serde.h"
#include "util/check.h"
#include "util/strings.h"

namespace ps::serve {

namespace {

using util::Reader;
using util::Writer;

void check_client_name(std::string_view name) {
  PS_CHECK_MSG(valid_client_name(name),
               "serve: client name must be a non-empty [A-Za-z0-9._-] token");
}

template <class Io, class T>
void serve_hello(Io& io, T& hello) {
  io.block("serve_hello", [&] {
    io.text("client", hello.client);
    io.u64("jobs", hello.jobs);
    io.i64("last_submit", hello.last_submit);
    io.text("tenant", hello.tenant);
    io.u64("weight", hello.weight);
  });
}

template <class Io, class T>
void serve_status(Io& io, T& status) {
  io.block("serve_status", [&] {
    io.boolean("accepting", status.accepting);
    io.u64("seq", status.seq);
    io.i64("sim_time", status.sim_time);
    io.u64("admitted", status.admitted);
    io.boolean("slow_start", status.slow_start);
    io.list("tenant_count", status.tenants, [&](auto& t) {
      io.row("tenant", [&] {
        io.text("tenant", t.tenant);
        io.u64("weight", t.weight);
        io.u64("inflight_docs", t.inflight_docs);
        io.i64("window_jobs_left", t.window_jobs_left);
        io.boolean("over_quota", t.over_quota);
        io.boolean("poisoned", t.poisoned);
      });
    });
  });
}

}  // namespace

bool valid_client_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

template <class Io, class T>
void serve_submission(Io& io, T& submission) {
  io.block("serve_submission", [&] {
    io.text("client", submission.client);
    io.u64("seq", submission.seq);
    io.i64("watermark", submission.watermark);
    io.boolean("eof", submission.eof);
    io.i64("publish_ns", submission.publish_ns);
    dist::job_list(io, submission.jobs);
  });
}

template void serve_submission(Writer&, const Submission&);
template void serve_submission(Reader&, Submission&);

std::string serialize_hello(const Hello& hello) {
  // An empty tenant field serializes as the client name: the default
  // "every client its own tenant" is baked into the bytes, so two
  // revisions can never disagree about which tenant a hello billed.
  Hello wire = hello;
  if (wire.tenant.empty()) wire.tenant = wire.client;
  check_client_name(wire.client);
  check_client_name(wire.tenant);
  PS_CHECK_MSG(wire.weight >= 1 && wire.weight <= kMaxTenantWeight,
               "serve: tenant weight must lie in [1, 1000]");
  return util::encode(wire, serve_hello<Writer, const Hello>);
}

Hello parse_hello(std::string_view text) {
  Hello hello = util::decode(text, serve_hello<Reader, Hello>);
  util::require(valid_client_name(hello.client), "invalid client name");
  util::require(valid_client_name(hello.tenant), "invalid tenant name");
  util::require(hello.weight >= 1 && hello.weight <= kMaxTenantWeight,
                "tenant weight out of [1, 1000]");
  return hello;
}

std::string serialize_submission(const Submission& submission) {
  check_client_name(submission.client);
  return util::encode(submission, serve_submission<Writer, const Submission>);
}

Submission parse_submission(std::string_view text) {
  Submission submission =
      util::decode(text, serve_submission<Reader, Submission>);
  util::require(valid_client_name(submission.client), "invalid client name");
  return submission;
}

std::string serialize_status(const Status& status) {
  for (const TenantStatus& t : status.tenants) check_client_name(t.tenant);
  return util::encode(status, serve_status<Writer, const Status>);
}

Status parse_status(std::string_view text) {
  Status status = util::decode(text, serve_status<Reader, Status>);
  for (const TenantStatus& t : status.tenants) {
    util::require(valid_client_name(t.tenant), "invalid tenant name");
  }
  return status;
}

std::string inbox_dir(const std::string& spool) { return spool + "/inbox"; }
std::string accepted_dir(const std::string& spool) { return spool + "/accepted"; }
std::string status_path(const std::string& spool) {
  return spool + "/control/status";
}

std::string hello_file_name(std::string_view client) {
  check_client_name(client);
  return std::string(client) + ".hello";
}

std::string submission_file_name(std::string_view client, std::uint64_t seq) {
  check_client_name(client);
  return strings::format("%.*s-%08llu.sub", static_cast<int>(client.size()),
                         client.data(), static_cast<unsigned long long>(seq));
}

std::optional<InboxName> parse_inbox_name(std::string_view name) {
  InboxName decoded;
  if (name.size() > 6 && name.substr(name.size() - 6) == ".hello") {
    decoded.client = std::string(name.substr(0, name.size() - 6));
    decoded.hello = true;
    if (!valid_client_name(decoded.client)) return std::nullopt;
    return decoded;
  }
  if (name.size() > 4 && name.substr(name.size() - 4) == ".sub") {
    std::string_view stem = name.substr(0, name.size() - 4);
    std::size_t dash = stem.rfind('-');
    if (dash == std::string_view::npos || dash == 0) return std::nullopt;
    std::string_view seq_text = stem.substr(dash + 1);
    if (seq_text.size() != 8) return std::nullopt;
    auto seq = strings::parse_u64(seq_text);
    if (!seq) return std::nullopt;
    decoded.client = std::string(stem.substr(0, dash));
    decoded.seq = *seq;
    if (!valid_client_name(decoded.client)) return std::nullopt;
    return decoded;
  }
  return std::nullopt;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace ps::serve
