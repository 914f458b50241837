#include "serve/journal.h"

#include <exception>

#include "util/check.h"
#include "util/spool.h"
#include "util/strings.h"
#include "util/wire.h"

namespace ps::serve {

namespace {

using util::Reader;
using util::Writer;

template <class Io, class T>
void ckpt_client(Io& io, T& client) {
  io.block("ckpt_client", [&] {
    io.text("name", client.name);
    io.u64("hello_jobs", client.hello_jobs);
    io.i64("hello_last_submit", client.hello_last_submit);
    io.u64("next_seq", client.next_seq);
    io.i64("watermark", client.watermark);
    io.boolean("eof", client.eof);
    io.u64("admitted_jobs", client.admitted_jobs);
    io.hex64("history_fp", client.history_fp);
  });
}

template <class Io, class T>
void serve_checkpoint(Io& io, T& ckpt) {
  io.block("serve_checkpoint", [&] {
    io.u64("seq", ckpt.seq);
    io.i64("committed", ckpt.committed);
    io.u64("admitted", ckpt.admitted);
    io.u64("docs", ckpt.docs);
    io.u64("clamped", ckpt.clamped);
    io.hex64("scenario_checksum", ckpt.scenario_checksum);
    io.list("clients", ckpt.clients,
            [&](auto& client) { ckpt_client(io, client); });
    util::qsketch(io, ckpt.sketch);
  });
}

template <class Io, class T>
void serve_segment(Io& io, T& segment) {
  io.block("serve_segment", [&] {
    io.u64("seq", segment.seq);
    io.list("docs", segment.docs,
            [&](auto& doc) { serve_submission(io, doc); });
  });
}

/// The epoch file: one unsealed scalar, `epoch <generation>`.
template <class Io, class T>
void epoch_file(Io& io, T& generation) {
  io.u64("epoch", generation);
}

}  // namespace

std::string journal_dir(const std::string& spool) { return spool + "/journal"; }

std::string checkpoints_dir(const std::string& spool) {
  return spool + "/checkpoints";
}

std::string epoch_path(const std::string& spool) {
  return spool + "/control/epoch";
}

std::string checkpoint_file_name(std::uint64_t seq) {
  return strings::format("ckpt-%06llu.ckpt",
                         static_cast<unsigned long long>(seq));
}

std::string segment_file_name(std::uint64_t seq) {
  return strings::format("seg-%06llu.seg", static_cast<unsigned long long>(seq));
}

std::optional<std::uint64_t> parse_checkpoint_name(std::string_view name) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return std::nullopt;
  std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  return strings::parse_u64(digits);
}

std::uint64_t read_epoch(const std::string& spool) {
  try {
    return util::decode(util::read_file(epoch_path(spool)),
                        epoch_file<Reader, std::uint64_t>, /*sealed=*/false);
  } catch (const std::exception&) {
    return 0;  // missing or torn epoch file: generation 0, never refuse to start
  }
}

std::uint64_t bump_epoch(const std::string& spool) {
  std::uint64_t generation = read_epoch(spool);
  util::write_file_atomic(
      epoch_path(spool),
      util::encode(generation + 1, epoch_file<Writer, const std::uint64_t>,
                   /*sealed=*/false),
      /*durable=*/true);
  return generation;
}

std::uint64_t chain_submission(std::uint64_t fp, const Submission& doc) {
  fp = util::fnv1a(fp, doc.seq);
  fp = util::fnv1a(fp, static_cast<std::uint64_t>(doc.watermark));
  fp = util::fnv1a(fp, static_cast<std::uint64_t>(doc.eof ? 1 : 0));
  fp = util::fnv1a(fp, static_cast<std::uint64_t>(doc.publish_ns));
  fp = util::fnv1a(fp, static_cast<std::uint64_t>(doc.jobs.size()));
  for (const workload::JobRequest& job : doc.jobs) {
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.id));
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.submit_time));
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.user));
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.requested_cores));
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.requested_walltime));
    fp = util::fnv1a(fp, static_cast<std::uint64_t>(job.base_runtime));
    fp = util::fnv1a(fp, util::fnv1a_bytes(job.app));
  }
  return fp;
}

std::string serialize_checkpoint(const Checkpoint& ckpt) {
  return util::encode(ckpt, serve_checkpoint<Writer, const Checkpoint>);
}

Checkpoint parse_checkpoint(std::string_view text) {
  Checkpoint ckpt = util::decode(text, serve_checkpoint<Reader, Checkpoint>);
  for (std::size_t i = 0; i < ckpt.clients.size(); ++i) {
    util::require(valid_client_name(ckpt.clients[i].name),
                  "invalid checkpoint client name");
    util::require(i == 0 || ckpt.clients[i - 1].name < ckpt.clients[i].name,
                  "checkpoint clients not strictly ascending by name");
  }
  return ckpt;
}

std::string serialize_segment(const Segment& segment) {
  for (const Submission& doc : segment.docs) {
    PS_CHECK_MSG(valid_client_name(doc.client),
                 "serve: segment document with an invalid client name");
  }
  return util::encode(segment, serve_segment<Writer, const Segment>);
}

Segment parse_segment(std::string_view text) {
  Segment segment = util::decode(text, serve_segment<Reader, Segment>);
  for (std::size_t i = 0; i < segment.docs.size(); ++i) {
    const Submission& doc = segment.docs[i];
    util::require(valid_client_name(doc.client), "invalid client name");
    if (i == 0) continue;
    const Submission& prev = segment.docs[i - 1];
    util::require(prev.client < doc.client ||
                      (prev.client == doc.client && prev.seq < doc.seq),
                  "segment docs not in (client, seq) order");
  }
  return segment;
}

std::optional<Checkpoint> load_newest_checkpoint(const std::string& dir,
                                                 std::uint64_t* skipped) {
  std::vector<std::string> names = util::list_files(dir, ".ckpt");
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    std::optional<std::uint64_t> name_seq = parse_checkpoint_name(*it);
    if (!name_seq) continue;  // foreign file, not a corruption signal
    try {
      Checkpoint ckpt = parse_checkpoint(util::read_file(dir + "/" + *it));
      if (ckpt.seq != *name_seq) {
        throw util::SerdeError("checkpoint seq disagrees with file name");
      }
      return ckpt;
    } catch (const std::exception&) {
      // Torn write, bit rot, or a renamed impostor: skip backward — the
      // previous checkpoint's journal suffix is intact because a checkpoint
      // prunes only after it is durably sealed.
      if (skipped != nullptr) ++*skipped;
    }
  }
  return std::nullopt;
}

}  // namespace ps::serve
