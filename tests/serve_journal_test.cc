// Unit fences for the serve durability layer (serve/journal): sealed
// checkpoint/segment round-trips, the newest-well-formed checkpoint scan
// skipping torn documents backward, the daemon generation counter, and the
// order-sensitive admitted-history fingerprint chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/journal.h"
#include "serve/protocol.h"
#include "util/spool.h"
#include "util/stats.h"
#include "util/wire.h"

namespace ps::serve {
namespace {

Submission make_submission(const std::string& client, std::uint64_t seq,
                           std::int64_t base_id) {
  Submission doc;
  doc.client = client;
  doc.seq = seq;
  doc.watermark = 1000 * static_cast<sim::Time>(seq + 1);
  doc.eof = false;
  doc.publish_ns = 7'000'000 + static_cast<std::int64_t>(seq);
  for (int j = 0; j < 3; ++j) {
    workload::JobRequest job;
    job.id = base_id + j;
    job.submit_time = 500 * static_cast<sim::Time>(seq) + 100 * j;
    job.user = 3 + j;
    job.requested_cores = 16 << j;
    job.requested_walltime = 3600'000;
    job.base_runtime = 1800'000;
    job.app = j % 2 ? "amg" : "";
    doc.jobs.push_back(job);
  }
  return doc;
}

Checkpoint make_checkpoint(std::uint64_t seq) {
  Checkpoint ckpt;
  ckpt.seq = seq;
  ckpt.committed = 123'456;
  ckpt.admitted = 240;
  ckpt.docs = 12;
  ckpt.clamped = 0;
  ckpt.scenario_checksum = 0xdeadbeefcafef00dull;
  for (const char* name : {"alpha", "beta"}) {
    CheckpointClient client;
    client.name = name;
    client.hello_jobs = 200;
    client.hello_last_submit = 999'000;
    client.next_seq = 6 + seq;
    client.watermark = 120'000;
    client.eof = false;
    client.admitted_jobs = 120;
    client.history_fp = 0x1234'5678'9abc'def0ull + seq;
    ckpt.clients.push_back(std::move(client));
  }
  util::QuantileSketch sketch(0.01);
  sketch.add(1.5);
  sketch.add(42.0);
  ckpt.sketch = sketch;
  return ckpt;
}

TEST(ServeJournal, CheckpointRoundTripsAllFields) {
  Checkpoint ckpt = make_checkpoint(3);
  Checkpoint parsed = parse_checkpoint(serialize_checkpoint(ckpt));
  EXPECT_EQ(parsed.seq, ckpt.seq);
  EXPECT_EQ(parsed.committed, ckpt.committed);
  EXPECT_EQ(parsed.admitted, ckpt.admitted);
  EXPECT_EQ(parsed.docs, ckpt.docs);
  EXPECT_EQ(parsed.clamped, ckpt.clamped);
  EXPECT_EQ(parsed.scenario_checksum, ckpt.scenario_checksum);
  ASSERT_EQ(parsed.clients.size(), 2u);
  EXPECT_EQ(parsed.clients[0].name, "alpha");
  EXPECT_EQ(parsed.clients[1].name, "beta");
  EXPECT_EQ(parsed.clients[0].hello_jobs, 200u);
  EXPECT_EQ(parsed.clients[0].hello_last_submit, 999'000);
  EXPECT_EQ(parsed.clients[0].next_seq, 9u);
  EXPECT_EQ(parsed.clients[0].watermark, 120'000);
  EXPECT_FALSE(parsed.clients[0].eof);
  EXPECT_EQ(parsed.clients[0].admitted_jobs, 120u);
  EXPECT_EQ(parsed.clients[0].history_fp, ckpt.clients[0].history_fp);
  // The nested sketch survives as a live sketch again.
  EXPECT_EQ(parsed.sketch.count(), 2u);
  EXPECT_EQ(parsed.sketch.quantile(0.99), ckpt.sketch.quantile(0.99));
  // Serialization is deterministic: equal checkpoints, equal bytes.
  EXPECT_EQ(serialize_checkpoint(ckpt), serialize_checkpoint(ckpt));
}

TEST(ServeJournal, CheckpointRejectsUnsortedClients) {
  Checkpoint ckpt = make_checkpoint(0);
  std::swap(ckpt.clients[0], ckpt.clients[1]);
  std::string doc = serialize_checkpoint(ckpt);
  EXPECT_THROW(parse_checkpoint(doc), util::SerdeError);
}

TEST(ServeJournal, TornCheckpointFailsItsSeal) {
  std::string doc = serialize_checkpoint(make_checkpoint(1));
  EXPECT_THROW(parse_checkpoint(doc.substr(0, doc.size() / 2)),
               util::SerdeError);
  std::string flipped = doc;
  flipped[doc.size() / 3] ^= 0x20;
  EXPECT_THROW(parse_checkpoint(flipped), util::SerdeError);
}

TEST(ServeJournal, SegmentRoundTripsAndEnforcesOrder) {
  Segment segment;
  segment.seq = 2;
  segment.docs.push_back(make_submission("alpha", 0, 100));
  segment.docs.push_back(make_submission("alpha", 1, 200));
  segment.docs.push_back(make_submission("beta", 0, 300));
  Segment parsed = parse_segment(serialize_segment(segment));
  EXPECT_EQ(parsed.seq, 2u);
  ASSERT_EQ(parsed.docs.size(), 3u);
  EXPECT_EQ(parsed.docs[1].client, "alpha");
  EXPECT_EQ(parsed.docs[1].seq, 1u);
  ASSERT_EQ(parsed.docs[1].jobs.size(), 3u);
  EXPECT_EQ(parsed.docs[1].jobs[2].id, 202);
  EXPECT_EQ(parsed.docs[1].jobs[1].app, "amg");
  // The fingerprint chain is serde-transparent: identical before and after.
  std::uint64_t fp_before = 0xcbf29ce484222325ull;
  std::uint64_t fp_after = fp_before;
  for (const Submission& doc : segment.docs) fp_before = chain_submission(fp_before, doc);
  for (const Submission& doc : parsed.docs) fp_after = chain_submission(fp_after, doc);
  EXPECT_EQ(fp_before, fp_after);

  Segment unsorted;
  unsorted.seq = 0;
  unsorted.docs.push_back(make_submission("alpha", 1, 100));
  unsorted.docs.push_back(make_submission("alpha", 1, 200));  // duplicate seq
  std::string doc = serialize_segment(unsorted);
  EXPECT_THROW(parse_segment(doc), util::SerdeError);
}

TEST(ServeJournal, ChainIsOrderAndFieldSensitive) {
  Submission a = make_submission("alpha", 0, 100);
  Submission b = make_submission("alpha", 1, 200);
  std::uint64_t seed = 0xcbf29ce484222325ull;
  std::uint64_t ab = chain_submission(chain_submission(seed, a), b);
  std::uint64_t ba = chain_submission(chain_submission(seed, b), a);
  EXPECT_NE(ab, ba);
  Submission mutated = a;
  mutated.jobs[1].requested_cores += 1;
  EXPECT_NE(chain_submission(seed, a), chain_submission(seed, mutated));
  mutated = a;
  mutated.watermark += 1;
  EXPECT_NE(chain_submission(seed, a), chain_submission(seed, mutated));
  mutated = a;
  mutated.jobs[0].app = "x";
  EXPECT_NE(chain_submission(seed, a), chain_submission(seed, mutated));
}

TEST(ServeJournal, CheckpointNames) {
  EXPECT_EQ(checkpoint_file_name(7), "ckpt-000007.ckpt");
  EXPECT_EQ(segment_file_name(7), "seg-000007.seg");
  ASSERT_TRUE(parse_checkpoint_name("ckpt-000042.ckpt"));
  EXPECT_EQ(*parse_checkpoint_name("ckpt-000042.ckpt"), 42u);
  EXPECT_FALSE(parse_checkpoint_name("seg-000042.seg"));
  EXPECT_FALSE(parse_checkpoint_name("ckpt-.ckpt"));
  EXPECT_FALSE(parse_checkpoint_name("ckpt-abc.ckpt"));
  EXPECT_FALSE(parse_checkpoint_name("status"));
}

TEST(ServeJournal, EpochReadsLenientAndBumpsDurably) {
  std::string spool = util::make_temp_dir("epoch");
  util::ensure_dir(spool + "/control");
  EXPECT_EQ(read_epoch(spool), 0u);  // missing file: generation 0
  EXPECT_EQ(bump_epoch(spool), 0u);  // first start is generation 0...
  EXPECT_EQ(read_epoch(spool), 1u);  // ...and the next start observes 1
  EXPECT_EQ(bump_epoch(spool), 1u);
  EXPECT_EQ(read_epoch(spool), 2u);
  EXPECT_EQ(util::read_file(epoch_path(spool)), "epoch 2\n");  // the bytes
  // Garbled or torn epoch file: lenient zero, never a refusal to start.
  for (const char* garbled : {"not an epoch\n", "epo", "epoch \n", "epoch 2 3\n"}) {
    util::write_file_atomic(epoch_path(spool), garbled, false);
    EXPECT_EQ(read_epoch(spool), 0u) << garbled;
  }
  util::remove_tree(spool);
}

TEST(ServeJournal, LoadNewestSkipsTornAndImpostorCheckpointsBackward) {
  std::string dir = util::make_temp_dir("ckpts");
  std::uint64_t skipped = 0;
  // Empty directory: no checkpoint, nothing skipped.
  EXPECT_FALSE(load_newest_checkpoint(dir, &skipped));
  EXPECT_EQ(skipped, 0u);

  util::write_file_atomic(dir + "/" + checkpoint_file_name(0),
                          serialize_checkpoint(make_checkpoint(0)), false);
  util::write_file_atomic(dir + "/" + checkpoint_file_name(1),
                          serialize_checkpoint(make_checkpoint(1)), false);
  std::string torn = serialize_checkpoint(make_checkpoint(2));
  util::write_file_atomic(dir + "/" + checkpoint_file_name(2),
                          torn.substr(0, torn.size() / 2), false);
  util::write_file_atomic(dir + "/" + checkpoint_file_name(3),
                          "total garbage\n", false);
  // An impostor: valid seal, but the embedded seq disagrees with the name.
  util::write_file_atomic(dir + "/" + checkpoint_file_name(4),
                          serialize_checkpoint(make_checkpoint(9)), false);
  // Foreign litter is ignored entirely, not counted as corruption.
  util::write_file_atomic(dir + "/zzz-not-a.ckpt", "noise\n", false);

  auto newest = load_newest_checkpoint(dir, &skipped);
  ASSERT_TRUE(newest);
  EXPECT_EQ(newest->seq, 1u);   // 4 (impostor), 3 (garbage), 2 (torn) skipped
  EXPECT_EQ(skipped, 3u);
  util::remove_tree(dir);
}

}  // namespace
}  // namespace ps::serve
