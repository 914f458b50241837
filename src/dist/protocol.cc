#include "dist/protocol.h"

#include <cinttypes>

#include "util/strings.h"

namespace ps::dist {

using util::Reader;
using util::Writer;

template <class Io, class T>
void cell_record(Io& io, T& record) {
  io.block("cell_record", [&] {
    io.u64("index", record.index);
    io.hex64("fingerprint", record.fingerprint);
    scenario_result(io, record.result);
  });
}

template void cell_record(Writer&, const CellRecord&);
template void cell_record(Reader&, CellRecord&);

namespace {

using CellGrid = std::vector<core::ScenarioConfig>;
using Manifest = std::vector<std::uint64_t>;

template <class Io, class T>
void indexed_cell(Io& io, T& cell) {
  io.block("cell", [&] {
    io.u64("index", cell.index);
    scenario_config(io, cell.config);
  });
}

template <class Io, class T>
void cell_grid(Io& io, T& cells) {
  io.block("cell_grid", [&] {
    io.list("cells", cells, [&](auto& cell) { scenario_config(io, cell); });
  });
}

template <class Io, class T>
void shard(Io& io, T& s) {
  io.block("shard", [&] {
    io.u64("id", s.id);
    io.list("cells", s.cells, [&](auto& cell) { indexed_cell(io, cell); });
  });
}

template <class Io, class T>
void shard_results(Io& io, T& results) {
  io.block("shard_results", [&] {
    io.u64("id", results.id);
    io.list("cells", results.records,
            [&](auto& record) { cell_record(io, record); });
  });
}

template <class Io, class T>
void manifest(Io& io, T& fingerprints) {
  io.block("manifest", [&] {
    std::uint64_t next = 0;
    io.list("cells", fingerprints, [&](auto& fingerprint) {
      io.row("fp", [&] {
        std::uint64_t index = next;
        io.u64("index", index);
        if (index != next++) io.fail("manifest rows must be index-ordered");
        io.hex64("digest", fingerprint);
      });
    });
  });
}

template <class Io, class T>
void grid_meta(Io& io, T& meta) {
  io.block("grid_meta", [&] {
    io.u64("cells", meta.cells);
    io.u64("shards", meta.shards);
    io.hex64("grid_checksum", meta.grid_checksum);
  });
}

template <class Io, class T>
void heartbeat(Io& io, T& hb) {
  io.row("hb", [&] {
    io.u64("seq", hb.seq);
    io.i64("pid", hb.pid);
  });
}

}  // namespace

std::string serialize_cell_grid(const CellGrid& cells) {
  return util::encode(cells, cell_grid<Writer, const CellGrid>);
}

CellGrid parse_cell_grid(std::string_view text) {
  return util::decode(text, cell_grid<Reader, CellGrid>);
}

std::string serialize_shard(const Shard& s) {
  return util::encode(s, shard<Writer, const Shard>);
}

Shard parse_shard(std::string_view text) {
  return util::decode(text, shard<Reader, Shard>);
}

std::string serialize_shard_results(const ShardResults& results) {
  return util::encode(results, shard_results<Writer, const ShardResults>);
}

ShardResults parse_shard_results(std::string_view text) {
  return util::decode(text, shard_results<Reader, ShardResults>);
}

std::string serialize_manifest(const Manifest& fingerprints) {
  return util::encode(fingerprints, manifest<Writer, const Manifest>);
}

Manifest parse_manifest(std::string_view text) {
  return util::decode(text, manifest<Reader, Manifest>);
}

std::string serialize_grid_meta(const GridMeta& meta) {
  return util::encode(meta, grid_meta<Writer, const GridMeta>);
}

GridMeta parse_grid_meta(std::string_view text) {
  return util::decode(text, grid_meta<Reader, GridMeta>);
}

std::string spool_cells_dir(const std::string& spool) { return spool + "/cells"; }
std::string spool_claimed_dir(const std::string& spool) { return spool + "/claimed"; }
std::string spool_results_dir(const std::string& spool) { return spool + "/results"; }
std::string spool_grid_meta_path(const std::string& spool) {
  return spool + "/grid.meta";
}

std::string shard_file_name(std::uint64_t shard_id, std::uint64_t token) {
  // Zero-padded so lexicographic listing order == (shard id, token) order.
  return strings::format("shard-%06" PRIu64 ".t%03" PRIu64 ".shard", shard_id,
                         token);
}

std::string results_file_name(std::uint64_t shard_id, std::uint64_t token) {
  return strings::format("shard-%06" PRIu64 ".t%03" PRIu64 ".results", shard_id,
                         token);
}

std::string heartbeat_file_name(std::uint64_t shard_id, std::uint64_t token) {
  return strings::format("shard-%06" PRIu64 ".t%03" PRIu64 ".hb", shard_id,
                         token);
}

std::optional<SpoolName> parse_spool_name(std::string_view name) {
  // shard-<id>.t<token>.<suffix>[.<pid>] — strict on the id/token shape,
  // indifferent to the suffix so one parser serves every spool directory.
  constexpr std::string_view kPrefix = "shard-";
  if (!strings::starts_with(name, kPrefix)) return std::nullopt;
  std::string_view rest = name.substr(kPrefix.size());
  std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  auto id = strings::parse_u64(rest.substr(0, dot));
  if (!id) return std::nullopt;
  rest = rest.substr(dot + 1);
  if (rest.empty() || rest[0] != 't') return std::nullopt;
  std::size_t token_end = rest.find('.');
  if (token_end == std::string_view::npos) return std::nullopt;
  auto token = strings::parse_u64(rest.substr(1, token_end - 1));
  if (!token) return std::nullopt;
  return SpoolName{*id, *token};
}

std::optional<std::int64_t> parse_claim_pid(std::string_view name) {
  std::size_t dot = name.rfind('.');
  if (dot == std::string_view::npos) return std::nullopt;
  auto pid = strings::parse_u64(name.substr(dot + 1));
  if (!pid || *pid == 0 || *pid > static_cast<std::uint64_t>(INT64_MAX)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(*pid);
}

std::string serialize_heartbeat(std::uint64_t seq, std::int64_t pid) {
  return util::encode(Heartbeat{seq, pid}, heartbeat<Writer, const Heartbeat>,
                      /*sealed=*/false);
}

std::optional<Heartbeat> parse_heartbeat(std::string_view text) {
  try {
    return util::decode(text, heartbeat<Reader, Heartbeat>, /*sealed=*/false);
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace ps::dist
