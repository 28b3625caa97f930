// Tests for the MAC-keyed spill-run format (corpus/keyed_run.h): roundtrip
// fidelity, trailer-directory validation, block-stat skipping, and the
// corrupt-input hard line. Suite names start with "Join" so the TSan leg of
// scripts/check.sh picks them up via `ctest -R '^(Engine|Serve|Join)'`.

#include "corpus/keyed_run.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace scent::corpus {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_krun_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".krun";
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<KeyedRecord> sample_records(std::size_t count,
                                        std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<KeyedRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(KeyedRecord{.key = rng.next(),
                                  .c0 = rng.next(),
                                  .c1 = rng.below(1 << 20),
                                  .c2 = rng.below(365)});
  }
  return records;
}

void write_records(const std::string& path,
                   const std::vector<KeyedRecord>& records,
                   std::size_t block_elements) {
  KeyedRunWriter writer{block_elements};
  ASSERT_TRUE(writer.open(path));
  for (const KeyedRecord& r : records) writer.append(r);
  ASSERT_TRUE(writer.finish());
}

TEST(JoinKeyedRun, RoundTripAcrossBlocks) {
  const auto records = sample_records(1000, 42);
  TempFile file{"roundtrip"};
  write_records(file.path, records, 64);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.records(), records.size());
  EXPECT_EQ(reader.blocks(), (records.size() + 63) / 64);

  std::vector<KeyedRecord> got;
  ASSERT_TRUE(reader.for_each(
      [&](const KeyedRecord& r) { got.push_back(r); }));
  EXPECT_EQ(got, records);
  EXPECT_EQ(reader.blocks_read(), reader.blocks());
  EXPECT_EQ(reader.blocks_skipped(), 0u);
}

TEST(JoinKeyedRun, KeyRangeMatchesContents) {
  const auto records = sample_records(300, 7);
  std::uint64_t lo = records.front().key;
  std::uint64_t hi = records.front().key;
  for (const KeyedRecord& r : records) {
    lo = std::min(lo, r.key);
    hi = std::max(hi, r.key);
  }
  TempFile file{"range"};
  write_records(file.path, records, 32);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  const auto range = reader.key_range();
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, lo);
  EXPECT_EQ(range->second, hi);
}

TEST(JoinKeyedRun, WindowScanSkipsDisjointBlocks) {
  // Ascending keys 0..999 in 16-element blocks: a window of [100, 199]
  // touches at most 8 of the 63 blocks; the rest must never be read.
  std::vector<KeyedRecord> records;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    records.push_back(KeyedRecord{.key = i, .c0 = i * 3, .c1 = 0, .c2 = i});
  }
  TempFile file{"window"};
  write_records(file.path, records, 16);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  std::vector<KeyedRecord> got;
  ASSERT_TRUE(reader.for_each_overlapping(
      100, 199, [&](const KeyedRecord& r) { got.push_back(r); }));
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, 100 + i);
  }
  EXPECT_GT(reader.blocks_skipped(), 0u);
  EXPECT_LE(reader.blocks_read(), 8u);
  EXPECT_EQ(reader.blocks_read() + reader.blocks_skipped(), reader.blocks());
}

TEST(JoinKeyedRun, EmptyRunRoundTrips) {
  TempFile file{"empty"};
  {
    KeyedRunWriter writer;
    ASSERT_TRUE(writer.open(file.path));
    ASSERT_TRUE(writer.finish());
  }
  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.records(), 0u);
  EXPECT_EQ(reader.blocks(), 0u);
  EXPECT_FALSE(reader.key_range().has_value());
  std::size_t seen = 0;
  ASSERT_TRUE(reader.for_each([&](const KeyedRecord&) { ++seen; }));
  EXPECT_EQ(seen, 0u);
}

TEST(JoinKeyedRun, CorruptPayloadFailsRead) {
  const auto records = sample_records(200, 9);
  TempFile file{"corrupt"};
  write_records(file.path, records, 32);

  // Flip one payload byte (just past the 16-byte header): open still
  // succeeds — the directory is intact — but the block read must fail its
  // CRC, never return wrong records.
  std::FILE* f = std::fopen(file.path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_FALSE(reader.for_each([](const KeyedRecord&) {}));
}

TEST(JoinKeyedRun, TruncatedFileFailsOpen) {
  const auto records = sample_records(200, 11);
  TempFile file{"truncated"};
  write_records(file.path, records, 32);

  std::FILE* f = std::fopen(file.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(file.path.c_str(), size - 10), 0);

  KeyedRunReader reader;
  EXPECT_FALSE(reader.open(file.path));
}

TEST(JoinKeyedRun, BadMagicFailsOpen) {
  TempFile file{"magic"};
  std::FILE* f = std::fopen(file.path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTAKRUNXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX", f);
  std::fclose(f);
  KeyedRunReader reader;
  EXPECT_FALSE(reader.open(file.path));
}

}  // namespace
}  // namespace scent::corpus
