#include "serve/quarantine.h"

#include "util/spool.h"
#include "util/strings.h"
#include "util/wire.h"

namespace ps::serve {

std::string quarantine_dir(const std::string& spool) {
  return spool + "/quarantine";
}

namespace {

template <class Io, class T>
void quarantine_reason(Io& io, T& reason) {
  io.block("quarantine_reason", [&] {
    io.text("client", reason.client);
    io.i64("seq", reason.seq);
    io.text("kind", reason.kind);
    io.text("reason", reason.reason);
    io.text("detail", reason.detail);
    io.boolean("consumed", reason.consumed);
    io.u64("generation", reason.generation);
    io.u64("jobs", reason.jobs);
    io.i64("wall_ns", reason.wall_ns);
  });
}

}  // namespace

std::string serialize_quarantine_reason(const QuarantineReason& reason) {
  // The detail is free text from exception messages: flatten newlines and
  // never write an empty rest-of-line (both would break the serde framing
  // of the record that documents someone *else's* framing violation).
  QuarantineReason wire = reason;
  if (wire.detail.empty()) wire.detail.push_back('-');
  for (char& c : wire.detail) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return util::encode(
      wire, quarantine_reason<util::Writer, const QuarantineReason>);
}

QuarantineReason parse_quarantine_reason(std::string_view text) {
  return util::decode(text,
                      quarantine_reason<util::Reader, QuarantineReason>);
}

std::string quarantine_file_name(std::uint64_t generation,
                                 std::uint64_t ordinal,
                                 std::string_view original_name) {
  return strings::format("q%llu-%06llu-%.*s",
                         static_cast<unsigned long long>(generation),
                         static_cast<unsigned long long>(ordinal),
                         static_cast<int>(original_name.size()),
                         original_name.data());
}

std::map<std::string, std::set<std::uint64_t>> load_quarantine_tombstones(
    const std::string& spool) {
  std::map<std::string, std::set<std::uint64_t>> tombstones;
  const std::string dir = quarantine_dir(spool);
  if (!util::path_exists(dir)) return tombstones;
  for (const std::string& name : util::list_files(dir, ".reason")) {
    QuarantineReason reason =
        parse_quarantine_reason(util::read_file(dir + "/" + name));
    if (reason.consumed && reason.kind == "submission" && reason.seq >= 0) {
      tombstones[reason.client].insert(
          static_cast<std::uint64_t>(reason.seq));
    }
  }
  return tombstones;
}

}  // namespace ps::serve
