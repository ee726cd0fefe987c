#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/checksum.h"
#include "persist/io_util.h"
#include "persist/serde.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

#ifndef IPQS_TEST_DATA_DIR
#define IPQS_TEST_DATA_DIR "tests/data"
#endif

namespace ipqs {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / ("persist_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// CRC-32

TEST(ChecksumTest, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(std::string_view("\x00", 1)), 0xD202EF8Du);
}

TEST(ChecksumTest, SensitiveToEveryByte) {
  const std::string base(64, 'x');
  const uint32_t reference = Crc32(base);
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32(mutated), reference) << "flip at byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Serde

TEST(SerdeTest, RoundTripsEveryType) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-42);
  w.PutI64(-1234567890123456789ll);
  w.PutDouble(3.14159265358979);
  w.PutDouble(-0.0);
  w.PutBool(true);
  w.PutBool(false);
  const std::string bytes = w.Take();

  BufferReader r(bytes);
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI32(), -42);
  EXPECT_EQ(r.GetI64(), -1234567890123456789ll);
  EXPECT_EQ(r.GetDouble(), 3.14159265358979);
  const double neg_zero = r.GetDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // Bit-exact, not value-equal.
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, EncodingIsLittleEndian) {
  BufferWriter w;
  w.PutU32(0x01020304u);
  const std::string& bytes = w.data();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(SerdeTest, ShortReadLatchesFailure) {
  BufferWriter w;
  w.PutU32(7);
  w.PutU8(0xEE);
  BufferReader r(w.data());
  EXPECT_EQ(r.GetU32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.GetU64(), 0u);  // Only 1 byte left: zero value, ok() flips.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU8(), 0u);  // Latched: the remaining byte is not served.
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Snapshot format

// A small but fully-populated snapshot exercising every field. Values are
// FROZEN — the golden file test depends on them.
SnapshotData GoldenSnapshot() {
  SnapshotData data;
  data.now = 120;

  DataCollector::ObjectHistory h1;
  h1.current_device = 3;
  h1.previous_device = 1;
  h1.entries = {{100, 1}, {101, 1}, {110, 3}, {111, 3}};
  DataCollector::ObjectHistory h2;
  h2.current_device = 2;
  h2.previous_device = kInvalidId;
  h2.entries = {{115, 2}};
  data.collector.histories = {{7, h1}, {9, h2}};
  data.collector.staged = {{9, 5, 119}, {7, 3, 120}};
  data.collector.max_seen_time = 120;
  data.collector.watermark = 118;
  data.collector.ingest.reordered = 4;
  data.collector.ingest.duplicates_dropped = 2;
  data.collector.ingest.late_dropped = 1;

  data.history.logs = {{7, {{100, 1}, {110, 3}}}, {9, {{115, 2}}}};

  ParticleCache::PersistedEntry entry;
  entry.object = 7;
  entry.device = 3;
  entry.last_reading = 111;
  entry.state.time = 115;
  entry.state.seconds_processed = 16;
  Particle p1;
  p1.loc.edge = 12;
  p1.loc.offset = 1.625;
  p1.heading = 1;
  p1.speed = 1.25;
  p1.weight = 0.5;
  p1.in_room = false;
  Particle p2;
  p2.loc.edge = 13;
  p2.loc.offset = 0.03125;
  p2.heading = -1;
  p2.speed = 0.75;
  p2.weight = 0.5;
  p2.in_room = true;
  entry.state.particles.Resize(2);
  entry.state.particles.Set(0, p1);
  entry.state.particles.Set(1, p2);
  data.pf_cache = {entry};
  return data;
}

TEST(SnapshotTest, SerializeParseRoundTrip) {
  const SnapshotData data = GoldenSnapshot();
  const std::string bytes = SnapshotWriter::Serialize(data);
  const StatusOr<SnapshotData> parsed = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, data);
}

TEST(SnapshotTest, WriteReadRoundTripOnDisk) {
  const std::string dir = TempDir("snapshot_rw");
  const std::string path = dir + "/snap";
  const SnapshotData data = GoldenSnapshot();
  ASSERT_TRUE(SnapshotWriter::Write(path, data).ok());
  const StatusOr<SnapshotData> loaded = SnapshotReader::Read(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, data);
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  SnapshotData data;
  data.now = 0;
  const StatusOr<SnapshotData> parsed =
      SnapshotReader::Parse(SnapshotWriter::Serialize(data));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, data);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  const StatusOr<SnapshotData> loaded =
      SnapshotReader::Read(TempDir("snapshot_missing") + "/nope");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::string bytes = SnapshotWriter::Serialize(GoldenSnapshot());
  bytes[0] = 'X';
  const StatusOr<SnapshotData> parsed = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsBumpedVersion) {
  std::string bytes = SnapshotWriter::Serialize(GoldenSnapshot());
  bytes[8] = 2;  // Version field (LE u32 after the 8-byte magic).
  const StatusOr<SnapshotData> parsed = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsCorruptPayload) {
  std::string bytes = SnapshotWriter::Serialize(GoldenSnapshot());
  bytes[bytes.size() / 2] ^= 0x40;
  const StatusOr<SnapshotData> parsed = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  const std::string bytes = SnapshotWriter::Serialize(GoldenSnapshot());
  // A snapshot torn at ANY byte must be rejected cleanly (short header,
  // truncated payload, or checksum mismatch — never a crash or a parse).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const StatusOr<SnapshotData> parsed =
        SnapshotReader::Parse(bytes.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  std::string bytes = SnapshotWriter::Serialize(GoldenSnapshot());
  bytes += "extra";
  EXPECT_FALSE(SnapshotReader::Parse(bytes).ok());
}

// The frozen v1 golden file. Guards the on-disk format: if serialization
// changes shape, this test fails and the change needs a version bump, not
// a silent rewrite. Regenerate deliberately with IPQS_UPDATE_GOLDEN=1.
TEST(SnapshotTest, GoldenV1FileStaysReadable) {
  const std::string path = std::string(IPQS_TEST_DATA_DIR) + "/golden_v1.snap";
  const SnapshotData golden = GoldenSnapshot();
  if (std::getenv("IPQS_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(SnapshotWriter::Write(path, golden).ok());
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  const StatusOr<SnapshotData> loaded = SnapshotReader::Read(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, golden);
  // Today's writer must still produce the frozen v1 bytes.
  EXPECT_EQ(SnapshotWriter::Serialize(golden), ReadAll(path));
}

TEST(SnapshotTest, GoldenV1VariantsRejectedWithStatus) {
  const std::string path = std::string(IPQS_TEST_DATA_DIR) + "/golden_v1.snap";
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());

  std::string bad_magic = bytes;
  bad_magic[3] ^= 0xFF;
  StatusOr<SnapshotData> parsed = SnapshotReader::Parse(bad_magic);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  std::string bumped_version = bytes;
  bumped_version[8] = 99;
  parsed = SnapshotReader::Parse(bumped_version);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  std::string bad_checksum = bytes;
  bad_checksum.back() ^= 0x01;
  parsed = SnapshotReader::Parse(bad_checksum);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// WAL

std::vector<WalRecord> SampleRecords() {
  return {
      {1, {{10, 2, 1}, {11, 2, 1}}},
      {2, {}},  // An empty second still gets a record.
      {3, {{10, 4, 3}}},
  };
}

TEST(WalTest, AppendReadRoundTrip) {
  const std::string path = TempDir("wal_rt") + "/wal";
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, /*fsync_each_append=*/false).ok());
  for (const WalRecord& record : SampleRecords()) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  const StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->records, SampleRecords());
  EXPECT_FALSE(read->truncated_tail);
  EXPECT_EQ(read->valid_bytes, fs::file_size(path));
}

TEST(WalTest, MissingFileIsNotFound) {
  const StatusOr<WalReadResult> read =
      ReadWalFile(TempDir("wal_missing") + "/nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, ReopenAppends) {
  const std::string path = TempDir("wal_reopen") + "/wal";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, false).ok());
    ASSERT_TRUE(writer.Append(SampleRecords()[0]).ok());
  }
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, false).ok());
    ASSERT_TRUE(writer.Append(SampleRecords()[1]).ok());
  }
  const StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0], SampleRecords()[0]);
  EXPECT_EQ(read->records[1], SampleRecords()[1]);
}

// The torn-write sweep: truncating the file at EVERY byte boundary must
// yield the longest valid record prefix, a truncation flag whenever bytes
// were dropped, and never an error or a double-applied record.
TEST(WalTest, TornWriteAtEveryByteRecoversValidPrefix) {
  const std::string dir = TempDir("wal_torn");
  const std::vector<WalRecord> records = SampleRecords();
  std::string full;
  std::vector<size_t> boundaries = {0};  // Byte offsets where records end.
  for (const WalRecord& record : records) {
    full += WalWriter::Encode(record);
    boundaries.push_back(full.size());
  }

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string torn_path = dir + "/torn";
    WriteAll(torn_path, full.substr(0, cut));
    const StatusOr<WalReadResult> read = ReadWalFile(torn_path);
    ASSERT_TRUE(read.ok()) << "cut at " << cut << ": " << read.status();

    // The valid prefix is exactly the records whose frames fit.
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(read->records.size(), expect_records) << "cut at " << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(read->records[i], records[i]) << "cut at " << cut;
    }
    EXPECT_EQ(read->valid_bytes, boundaries[expect_records])
        << "cut at " << cut;
    EXPECT_EQ(read->truncated_tail, cut != boundaries[expect_records])
        << "cut at " << cut;
  }
}

TEST(WalTest, CorruptMiddleRecordEndsTheUsableLog) {
  const std::string path = TempDir("wal_corrupt") + "/wal";
  const std::vector<WalRecord> records = SampleRecords();
  std::string full;
  for (const WalRecord& record : records) {
    full += WalWriter::Encode(record);
  }
  // Flip a byte inside the SECOND record's payload.
  const size_t second_start = WalWriter::Encode(records[0]).size();
  full[second_start + 10] ^= 0x80;
  WriteAll(path, full);

  const StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);  // Nothing after the tear is trusted.
  EXPECT_EQ(read->records[0], records[0]);
  EXPECT_TRUE(read->truncated_tail);
}

// ---------------------------------------------------------------------------
// CheckpointManager

WalRecord RecordAt(int64_t time) {
  return {time, {{1, 2, time}}};
}

TEST(CheckpointTest, OpenFreshRefusesExistingState) {
  PersistConfig config;
  config.dir = TempDir("ckpt_fresh");
  config.fsync_wal = false;
  {
    CheckpointManager manager;
    ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
    ASSERT_TRUE(manager.AppendWal(RecordAt(1)).ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  CheckpointManager manager;
  const Status again = manager.OpenFresh(config, {}, 0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(CheckpointTest, SnapshotRotationAndPruning) {
  PersistConfig config;
  config.dir = TempDir("ckpt_rotate");
  config.fsync_wal = false;
  config.keep_snapshots = 2;

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
  for (int64_t t = 1; t <= 30; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
    if (t % 10 == 0) {
      SnapshotData snap;
      snap.now = t;
      ASSERT_TRUE(manager.WriteSnapshot(snap).ok());
    }
  }
  ASSERT_TRUE(manager.Close().ok());

  // keep_snapshots=2: snap-10 pruned, snap-20/30 kept; wal-0 and wal-10
  // only feed pruned snapshots, so they are gone too.
  EXPECT_FALSE(fs::exists(CheckpointManager::SnapshotPath(config.dir, 10)));
  EXPECT_TRUE(fs::exists(CheckpointManager::SnapshotPath(config.dir, 20)));
  EXPECT_TRUE(fs::exists(CheckpointManager::SnapshotPath(config.dir, 30)));
  EXPECT_FALSE(fs::exists(CheckpointManager::WalPath(config.dir, 0)));
  EXPECT_FALSE(fs::exists(CheckpointManager::WalPath(config.dir, 10)));
  EXPECT_TRUE(fs::exists(CheckpointManager::WalPath(config.dir, 20)));
  EXPECT_TRUE(fs::exists(CheckpointManager::WalPath(config.dir, 30)));
}

TEST(CheckpointTest, RecoverPicksNewestSnapshotAndTail) {
  PersistConfig config;
  config.dir = TempDir("ckpt_recover");
  config.fsync_wal = false;

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
  for (int64_t t = 1; t <= 25; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
    if (t % 10 == 0) {
      SnapshotData snap;
      snap.now = t;
      ASSERT_TRUE(manager.WriteSnapshot(snap).ok());
    }
  }
  ASSERT_TRUE(manager.Close().ok());

  const StatusOr<Recovered> recovered = CheckpointManager::Recover(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->have_snapshot);
  EXPECT_EQ(recovered->snapshot_time, 20);
  ASSERT_EQ(recovered->wal_tail.size(), 5u);  // 21..25, nothing replayed twice.
  EXPECT_EQ(recovered->wal_tail.front().time, 21);
  EXPECT_EQ(recovered->wal_tail.back().time, 25);
  EXPECT_EQ(recovered->corrupt_snapshots_skipped, 0);
  EXPECT_EQ(recovered->wal_tails_truncated, 0);
}

TEST(CheckpointTest, RecoverSkipsCorruptNewestSnapshot) {
  PersistConfig config;
  config.dir = TempDir("ckpt_corrupt_snap");
  config.fsync_wal = false;

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
  for (int64_t t = 1; t <= 25; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
    if (t % 10 == 0) {
      SnapshotData snap;
      snap.now = t;
      ASSERT_TRUE(manager.WriteSnapshot(snap).ok());
    }
  }
  ASSERT_TRUE(manager.Close().ok());

  // Corrupt the newest snapshot; recovery must fall back to snap-10 and
  // replay the longer WAL tail 11..25 (wal-10 + wal-20), counting the skip.
  const std::string newest = CheckpointManager::SnapshotPath(config.dir, 20);
  std::string bytes = ReadAll(newest);
  bytes[bytes.size() - 3] ^= 0xFF;
  WriteAll(newest, bytes);

  const StatusOr<Recovered> recovered = CheckpointManager::Recover(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->have_snapshot);
  EXPECT_EQ(recovered->snapshot_time, 10);
  EXPECT_EQ(recovered->corrupt_snapshots_skipped, 1);
  ASSERT_EQ(recovered->wal_tail.size(), 15u);
  EXPECT_EQ(recovered->wal_tail.front().time, 11);
  EXPECT_EQ(recovered->wal_tail.back().time, 25);
}

TEST(CheckpointTest, RecoverColdStartsWithoutAnySnapshot) {
  PersistConfig config;
  config.dir = TempDir("ckpt_cold");
  config.fsync_wal = false;

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
  for (int64_t t = 1; t <= 7; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
  }
  ASSERT_TRUE(manager.Close().ok());

  const StatusOr<Recovered> recovered = CheckpointManager::Recover(config);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->have_snapshot);
  EXPECT_EQ(recovered->snapshot_time, -1);
  ASSERT_EQ(recovered->wal_tail.size(), 7u);
}

TEST(CheckpointTest, RecoverCountsTornTailAndResumesAppends) {
  PersistConfig config;
  config.dir = TempDir("ckpt_torn_tail");
  config.fsync_wal = false;

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, {}, 0).ok());
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
  }
  ASSERT_TRUE(manager.Close().ok());

  // Tear the last record.
  const std::string wal = CheckpointManager::WalPath(config.dir, 0);
  std::string bytes = ReadAll(wal);
  WriteAll(wal, bytes.substr(0, bytes.size() - 3));

  StatusOr<Recovered> recovered = CheckpointManager::Recover(config);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->wal_tail.size(), 4u);
  EXPECT_EQ(recovered->wal_tails_truncated, 1);

  // Resuming truncates the torn bytes and appends cleanly after them.
  CheckpointManager resumed;
  ASSERT_TRUE(resumed.OpenAfterRecover(config, {}, *recovered).ok());
  ASSERT_TRUE(resumed.AppendWal(RecordAt(5)).ok());
  ASSERT_TRUE(resumed.Close().ok());

  const StatusOr<WalReadResult> read = ReadWalFile(wal);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated_tail);
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(read->records.back().time, 5);
}

TEST(CheckpointTest, MetricsCountWritesAndCorruption) {
  obs::MetricsRegistry registry;
  const PersistMetrics metrics = PersistMetrics::FromRegistry(&registry);
  PersistConfig config;
  config.dir = TempDir("ckpt_metrics");
  config.fsync_wal = true;  // Exercise the fsync latency histogram.

  CheckpointManager manager;
  ASSERT_TRUE(manager.OpenFresh(config, metrics, 0).ok());
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(manager.AppendWal(RecordAt(t)).ok());
  }
  SnapshotData snap;
  snap.now = 3;
  ASSERT_TRUE(manager.WriteSnapshot(snap).ok());
  ASSERT_TRUE(manager.Close().ok());

  EXPECT_EQ(metrics.wal_records->Value(), 3);
  EXPECT_EQ(metrics.snapshots_written->Value(), 1);
  EXPECT_EQ(metrics.wal_fsync_ns->snapshot().count, 3);
  EXPECT_EQ(metrics.snapshot_write_ns->snapshot().count, 1);

  // A corrupt snapshot on recovery bumps the counter.
  const std::string path = CheckpointManager::SnapshotPath(config.dir, 3);
  std::string bytes = ReadAll(path);
  bytes.back() ^= 0x01;
  WriteAll(path, bytes);
  const StatusOr<Recovered> recovered =
      CheckpointManager::Recover(config, metrics);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->have_snapshot);
  EXPECT_EQ(metrics.corrupt_snapshots_skipped->Value(), 1);
}

}  // namespace
}  // namespace persist
}  // namespace ipqs
