// common::RecordLog: the shared durable record format under the block and
// certificate logs — round trips, torn-tail recovery, truncation, and the
// seeded crash-injection sites.
#include <gtest/gtest.h>

#include <fstream>

#include "common/crash_point.h"
#include "common/record_log.h"
#include "temp_path.h"

namespace dcert::common {
namespace {

std::string TempPath(const std::string& name) {
  return testutil::UniqueTempPath(name);
}

Bytes Payload(std::size_t n, std::uint8_t tag) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(tag + i);
  return b;
}

std::uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::uint64_t>(in.tellg());
}

class CrashGuard {
 public:
  ~CrashGuard() { CrashPoints::Global().Disarm(); }
};

TEST(RecordLogTest, AppendGetRoundTrip) {
  const std::string path = TempPath("rlog_roundtrip.bin");
  std::remove(path.c_str());
  auto log = RecordLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.message();
  EXPECT_EQ(log.value().Count(), 0u);
  EXPECT_FALSE(log.value().RecoveredFromTornTail());

  ASSERT_TRUE(log.value().Append(Payload(10, 1)).ok());
  ASSERT_TRUE(log.value().Append(Payload(0, 0)).ok());  // empty payload is legal
  ASSERT_TRUE(log.value().Append(Payload(300, 7)).ok());
  EXPECT_EQ(log.value().Count(), 3u);
  EXPECT_EQ(log.value().Get(0).value(), Payload(10, 1));
  EXPECT_EQ(log.value().Get(1).value(), Bytes{});
  EXPECT_EQ(log.value().Get(2).value(), Payload(300, 7));
  EXPECT_FALSE(log.value().Get(3).ok());
}

TEST(RecordLogTest, ReopenRestoresIndex) {
  const std::string path = TempPath("rlog_reopen.bin");
  std::remove(path.c_str());
  {
    auto log = RecordLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().Append(Payload(20, 3)).ok());
    ASSERT_TRUE(log.value().Append(Payload(40, 9)).ok());
  }
  auto reopened = RecordLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().Count(), 2u);
  EXPECT_FALSE(reopened.value().RecoveredFromTornTail());
  EXPECT_EQ(reopened.value().Get(1).value(), Payload(40, 9));
}

TEST(RecordLogTest, TornTailIsTruncatedOnOpenAndStaysGone) {
  const std::string path = TempPath("rlog_torn.bin");
  std::remove(path.c_str());
  {
    auto log = RecordLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().Append(Payload(16, 1)).ok());
    ASSERT_TRUE(log.value().Append(Payload(16, 2)).ok());
  }
  const std::uint64_t intact_size = FileSize(path);
  {
    // A crash mid-append: header + part of the payload.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = "TRCD\x10\x00\x00\x00garbage";
    out.write(torn, sizeof(torn) - 1);
  }
  {
    auto log = RecordLog::Open(path);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().RecoveredFromTornTail());
    EXPECT_EQ(log.value().Count(), 2u);
    EXPECT_EQ(log.value().Get(1).value(), Payload(16, 2));
    // The tail was PHYSICALLY truncated, not just skipped: a second reopen
    // must see a clean file.
    EXPECT_EQ(FileSize(path), intact_size);
    ASSERT_TRUE(log.value().Append(Payload(16, 3)).ok());
  }
  auto again = RecordLog::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().RecoveredFromTornTail());
  EXPECT_EQ(again.value().Count(), 3u);
}

TEST(RecordLogTest, CorruptedPayloadTailIsDropped) {
  const std::string path = TempPath("rlog_corrupt.bin");
  std::remove(path.c_str());
  {
    auto log = RecordLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().Append(Payload(32, 5)).ok());
    ASSERT_TRUE(log.value().Append(Payload(32, 6)).ok());
  }
  {
    // Flip one byte in the LAST record's payload (CRC now fails).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  auto log = RecordLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log.value().RecoveredFromTornTail());
  EXPECT_EQ(log.value().Count(), 1u);
  EXPECT_EQ(log.value().Get(0).value(), Payload(32, 5));
}

TEST(RecordLogTest, TruncateToDropsTailRecords) {
  const std::string path = TempPath("rlog_trunc.bin");
  std::remove(path.c_str());
  auto log = RecordLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.value().Append(Payload(8, static_cast<std::uint8_t>(i))).ok());
  }
  EXPECT_FALSE(log.value().TruncateTo(6).ok());  // beyond count
  ASSERT_TRUE(log.value().TruncateTo(5).ok());   // no-op
  ASSERT_TRUE(log.value().TruncateTo(2).ok());
  EXPECT_EQ(log.value().Count(), 2u);
  EXPECT_FALSE(log.value().Get(2).ok());
  // Appends continue cleanly after truncation, and survive reopen.
  ASSERT_TRUE(log.value().Append(Payload(8, 9)).ok());
  auto reopened = RecordLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().Count(), 3u);
  EXPECT_EQ(reopened.value().Get(2).value(), Payload(8, 9));
}

TEST(RecordLogTest, FsyncOnAppendTogglesAndFsyncWorks) {
  const std::string path = TempPath("rlog_fsync.bin");
  std::remove(path.c_str());
  RecordLog::Options options;
  options.name = "fslog";
  options.fsync_on_append = true;
  auto log = RecordLog::Open(path, options);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log.value().FsyncOnAppend());
  ASSERT_TRUE(log.value().Append(Payload(4, 1)).ok());
  log.value().SetFsyncOnAppend(false);
  ASSERT_TRUE(log.value().Append(Payload(4, 2)).ok());
  ASSERT_TRUE(log.value().Fsync().ok());
  EXPECT_EQ(log.value().Count(), 2u);
}

TEST(RecordLogTest, ArmedCrashSiteFiresOnceWithCountdown) {
  const std::string path = TempPath("rlog_crash_after.bin");
  std::remove(path.c_str());
  CrashGuard guard;
  RecordLog::Options options;
  options.name = "tlog";
  auto log = RecordLog::Open(path, options);
  ASSERT_TRUE(log.ok());

  // Fire on the SECOND append, after the bytes hit the file but before the
  // record is indexed.
  CrashPoints::Global().Arm("tlog.append.after", 2);
  ASSERT_TRUE(log.value().Append(Payload(8, 1)).ok());
  EXPECT_THROW(log.value().Append(Payload(8, 2)), CrashInjected);
  EXPECT_TRUE(CrashPoints::Global().Fired());
  EXPECT_EQ(CrashPoints::Global().HitCount("tlog.append.after"), 2u);
  // The site self-disarms when it fires: recovery-time appends run through.
  EXPECT_FALSE(CrashPoints::Global().Armed());

  // The in-memory index never saw record 2, but its bytes are on disk — a
  // reopen (recovery) finds the complete record and keeps it.
  auto reopened = RecordLog::Open(path, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().Count(), 2u);
  EXPECT_FALSE(reopened.value().RecoveredFromTornTail());
}

TEST(RecordLogTest, TornCrashSiteLeavesTornRecordForRecovery) {
  const std::string path = TempPath("rlog_crash_torn.bin");
  std::remove(path.c_str());
  CrashGuard guard;
  RecordLog::Options options;
  options.name = "tlog";
  auto log = RecordLog::Open(path, options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value().Append(Payload(64, 1)).ok());

  CrashPoints::Global().Arm("tlog.append.torn", 1);
  EXPECT_THROW(log.value().Append(Payload(64, 2)), CrashInjected);
  // Header plus half the payload made it to disk: exactly a power loss
  // mid-write. Recovery truncates it.
  auto reopened = RecordLog::Open(path, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().RecoveredFromTornTail());
  EXPECT_EQ(reopened.value().Count(), 1u);
  EXPECT_EQ(reopened.value().Get(0).value(), Payload(64, 1));
}

TEST(RecordLogTest, BeforeCrashSiteLeavesFileUntouched) {
  const std::string path = TempPath("rlog_crash_before.bin");
  std::remove(path.c_str());
  CrashGuard guard;
  RecordLog::Options options;
  options.name = "tlog";
  auto log = RecordLog::Open(path, options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value().Append(Payload(8, 1)).ok());
  const std::uint64_t size_before = FileSize(path);

  CrashPoints::Global().Arm("tlog.append.before", 1);
  EXPECT_THROW(log.value().Append(Payload(8, 2)), CrashInjected);
  EXPECT_EQ(FileSize(path), size_before);
}

TEST(RecordLogTest, DisarmedSitesAreFree) {
  // No Arm(): every Hit is an early return; behavior identical to no sites.
  const std::string path = TempPath("rlog_disarmed.bin");
  std::remove(path.c_str());
  auto log = RecordLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(log.value().Append(Payload(8, static_cast<std::uint8_t>(i))).ok());
  }
  EXPECT_EQ(log.value().Count(), 100u);
  EXPECT_FALSE(CrashPoints::Global().Fired());
}

// ---------------------------------------------------------------------------
// Segmented log: rotation, sidecar indexes, compaction, and the crash sites
// inside the rename/tombstone protocols.

RecordLog::Options SegOptions(std::uint64_t max_records,
                              bool mmap_sealed = true) {
  RecordLog::Options options;
  options.name = "seglog";
  options.segment_max_records = max_records;
  options.mmap_sealed = mmap_sealed;
  return options;
}

/// Removes the log and every per-segment/manifest file a prior run left.
void RemoveLogFamily(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  for (int first = 0; first < 64; ++first) {
    const std::string seg = path + ".seg." + std::to_string(first);
    std::remove(seg.c_str());
    std::remove((seg + ".idx").c_str());
  }
}

TEST(SegmentedRecordLogTest, RotationPreservesLogicalIndexing) {
  const std::string path = TempPath("rlog_seg_rotate.bin");
  RemoveLogFamily(path);
  {
    auto log = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(log.ok()) << log.message();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.value().Append(Payload(24, static_cast<std::uint8_t>(i))).ok());
    }
    // Rotation is lazy (on the append that overflows): 10 records with max 4
    // seal [0,3] and [4,7], leaving 8-9 active.
    EXPECT_EQ(log.value().Count(), 10u);
    EXPECT_EQ(log.value().SegmentCount(), 2u);
    EXPECT_EQ(log.value().BaseIndex(), 0u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(log.value().Get(i).value(), Payload(24, static_cast<std::uint8_t>(i)))
          << "record " << i;
    }
  }
  auto reopened = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(reopened.value().Count(), 10u);
  EXPECT_EQ(reopened.value().SegmentCount(), 2u);
  EXPECT_FALSE(reopened.value().SidecarRebuilt());  // sidecars loaded clean
  EXPECT_FALSE(reopened.value().RecoveredFromTornTail());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reopened.value().Get(i).value(),
              Payload(24, static_cast<std::uint8_t>(i)));
  }
  // Appends keep flowing across the reopen, sealing further segments.
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(
        reopened.value().Append(Payload(24, static_cast<std::uint8_t>(i))).ok());
  }
  EXPECT_EQ(reopened.value().Count(), 14u);
  EXPECT_EQ(reopened.value().Get(13).value(), Payload(24, 13));
}

TEST(SegmentedRecordLogTest, PreadFallbackMatchesMmapReads) {
  const std::string path = TempPath("rlog_seg_pread.bin");
  RemoveLogFamily(path);
  {
    auto log = RecordLog::Open(path, SegOptions(3));
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(log.value().Append(Payload(50, static_cast<std::uint8_t>(i))).ok());
    }
  }
  auto mapped = RecordLog::Open(path, SegOptions(3, /*mmap_sealed=*/true));
  auto pread = RecordLog::Open(path, SegOptions(3, /*mmap_sealed=*/false));
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(pread.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mapped.value().Get(i).value(), pread.value().Get(i).value())
        << "record " << i;
  }
}

TEST(SegmentedRecordLogTest, CorruptSidecarIsRebuiltOnceAndRepairPersists) {
  const std::string path = TempPath("rlog_seg_sidecar.bin");
  RemoveLogFamily(path);
  {
    auto log = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(log.value().Append(Payload(16, static_cast<std::uint8_t>(i))).ok());
    }
  }
  {
    // Flip a byte in the sealed segment's sidecar: its CRC now fails.
    std::fstream f(path + ".seg.0.idx",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);
    f.put('\xAA');
  }
  {
    auto log = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(log.ok()) << log.message();
    EXPECT_TRUE(log.value().SidecarRebuilt());
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(log.value().Get(i).value(),
                Payload(16, static_cast<std::uint8_t>(i)));
    }
  }
  // The rebuild rewrote the sidecar durably: the next open loads it clean.
  auto again = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().SidecarRebuilt());

  // A deleted sidecar is the same story.
  ASSERT_EQ(std::remove((path + ".seg.0.idx").c_str()), 0);
  auto rebuilt = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt.value().SidecarRebuilt());
  EXPECT_EQ(rebuilt.value().Get(3).value(), Payload(16, 3));
}

TEST(SegmentedRecordLogTest, CompactBelowDropsOnlyWholeSealedSegments) {
  const std::string path = TempPath("rlog_seg_compact.bin");
  RemoveLogFamily(path);
  auto log = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log.value().Append(Payload(16, static_cast<std::uint8_t>(i))).ok());
  }
  ASSERT_EQ(log.value().SegmentCount(), 2u);  // [0,3], [4,7]; 8-11 active

  // Floor 6 cuts through segment [4,7]: only [0,3] is removable.
  ASSERT_TRUE(log.value().CompactBelow(6).ok());
  EXPECT_EQ(log.value().BaseIndex(), 4u);
  EXPECT_EQ(log.value().SegmentCount(), 1u);
  EXPECT_EQ(log.value().Count(), 12u);  // logical count includes compacted
  EXPECT_FALSE(log.value().Get(3).ok());
  EXPECT_EQ(log.value().Get(4).value(), Payload(16, 4));

  // Floor beyond the count is a caller bug; floor at the count compacts all
  // sealed history but never touches the active segment.
  EXPECT_FALSE(log.value().CompactBelow(13).ok());
  ASSERT_TRUE(log.value().CompactBelow(12).ok());
  EXPECT_EQ(log.value().BaseIndex(), 8u);
  EXPECT_EQ(log.value().SegmentCount(), 0u);
  EXPECT_EQ(log.value().Get(11).value(), Payload(16, 11));

  // The manifest commits the compaction across reopens.
  auto reopened = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(reopened.value().BaseIndex(), 8u);
  EXPECT_EQ(reopened.value().Count(), 12u);
  EXPECT_FALSE(reopened.value().Get(7).ok());
  EXPECT_EQ(reopened.value().Get(8).value(), Payload(16, 8));
}

TEST(SegmentedRecordLogTest, RotationCrashSitesLoseNoRecords) {
  const char* sites[] = {"seglog.rotate.begin", "seglog.rotate.rename",
                         "seglog.rotate.sidecar", "seglog.rotate.newfile"};
  int variant = 0;
  for (const char* site : sites) {
    SCOPED_TRACE(site);
    const std::string path =
        TempPath("rlog_seg_crash_rot" + std::to_string(variant++) + ".bin");
    RemoveLogFamily(path);
    CrashGuard guard;
    {
      auto log = RecordLog::Open(path, SegOptions(4));
      ASSERT_TRUE(log.ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            log.value().Append(Payload(32, static_cast<std::uint8_t>(i))).ok());
      }
      // The 5th append must rotate first; the armed site kills it mid-protocol.
      CrashPoints::Global().Arm(site, 1);
      EXPECT_THROW(log.value().Append(Payload(32, 4)), CrashInjected);
    }
    // Recovery rolls the interrupted rotation forward: nothing sealed is
    // lost, record 4 (never written) is simply absent, and appends resume.
    auto reopened = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(reopened.ok()) << reopened.message();
    EXPECT_EQ(reopened.value().Count(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(reopened.value().Get(i).value(),
                Payload(32, static_cast<std::uint8_t>(i)));
    }
    ASSERT_TRUE(reopened.value().Append(Payload(32, 4)).ok());
    EXPECT_EQ(reopened.value().Count(), 5u);
    EXPECT_EQ(reopened.value().Get(4).value(), Payload(32, 4));
  }
}

TEST(SegmentedRecordLogTest, CompactionCrashBeforeManifestChangesNothing) {
  const std::string path = TempPath("rlog_seg_crash_manifest.bin");
  RemoveLogFamily(path);
  CrashGuard guard;
  {
    auto log = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(log.value().Append(Payload(16, static_cast<std::uint8_t>(i))).ok());
    }
    CrashPoints::Global().Arm("seglog.compact.manifest", 1);
    EXPECT_THROW(log.value().CompactBelow(8), CrashInjected);
  }
  // The tombstone never committed: the full history is still readable.
  auto reopened = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(reopened.value().BaseIndex(), 0u);
  EXPECT_EQ(reopened.value().SegmentCount(), 2u);
  EXPECT_EQ(reopened.value().Get(0).value(), Payload(16, 0));
}

TEST(SegmentedRecordLogTest, CompactionCrashAfterManifestResumesOnReopen) {
  const std::string path = TempPath("rlog_seg_crash_unlink.bin");
  RemoveLogFamily(path);
  CrashGuard guard;
  {
    auto log = RecordLog::Open(path, SegOptions(4));
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(log.value().Append(Payload(16, static_cast<std::uint8_t>(i))).ok());
    }
    CrashPoints::Global().Arm("seglog.compact.unlink", 1);
    EXPECT_THROW(log.value().CompactBelow(8), CrashInjected);
  }
  // The manifest was durable before the crash: reopen finishes the unlink
  // and the log comes up compacted, with the dead segment files gone.
  auto reopened = RecordLog::Open(path, SegOptions(4));
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(reopened.value().BaseIndex(), 8u);
  EXPECT_EQ(reopened.value().SegmentCount(), 0u);
  EXPECT_FALSE(reopened.value().Get(7).ok());
  EXPECT_EQ(reopened.value().Get(8).value(), Payload(16, 8));
  std::ifstream seg0(path + ".seg.0", std::ios::binary);
  std::ifstream seg4(path + ".seg.4", std::ios::binary);
  EXPECT_FALSE(seg0.good());
  EXPECT_FALSE(seg4.good());
}

TEST(CrashPointsTest, ArmReplacesAndHitCountsTrack) {
  CrashGuard guard;
  auto& cp = CrashPoints::Global();
  cp.Arm("site.a", 3);
  EXPECT_FALSE(cp.FireNow("site.b"));  // counted, not armed
  EXPECT_FALSE(cp.FireNow("site.a"));  // 2 remaining
  EXPECT_EQ(cp.HitCount("site.a"), 1u);
  EXPECT_EQ(cp.HitCount("site.b"), 1u);
  cp.Arm("site.b", 1);  // re-arm resets counters
  EXPECT_EQ(cp.HitCount("site.a"), 0u);
  EXPECT_TRUE(cp.FireNow("site.b"));
  EXPECT_TRUE(cp.Fired());
  EXPECT_FALSE(cp.FireNow("site.b"));  // fired once; disarmed
}

}  // namespace
}  // namespace dcert::common
