// Tests for the durability layer (src/store/): CRC32C vectors, the file
// shim and its failpoints, WAL append/replay/rotation/repair, checkpoint
// pages and manifest commit, the map wire codec across every balance
// scheme and leaf layout, and the incremental-checkpoint byte footprint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "pam/pam.h"
#include "server/kv_store.h"
#include "store/durability.h"
#include "util/random.h"

namespace {

using u64_map = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
using str_map = pam::aug_map<pam::str_sum_entry<uint64_t>>;

// A fresh scratch directory per test, removed on destruction.
struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& tag) {
    path = ::testing::TempDir() + "pam_store_" + tag + "_" +
           std::to_string(::getpid());
    std::string cmd = "rm -rf " + path;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }
  ~temp_dir() {
    std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
};

// ----------------------------------------------------------------- crc32c --

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix / every storage
  // system's self-test): "123456789" -> 0xE3069283.
  EXPECT_EQ(pam::store::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(pam::store::crc32c("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  unsigned char zeros[32] = {};
  EXPECT_EQ(pam::store::crc32c(zeros, sizeof zeros), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = std::strlen(data);
  uint32_t whole = pam::store::crc32c(data, n);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, n}) {
    uint32_t a = pam::store::crc32c(data, split);
    uint32_t chained = pam::store::crc32c(data + split, n - split, a);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<char> buf(256);
  pam::random_gen g(7);
  for (auto& c : buf) c = static_cast<char>(g.next());
  uint32_t base = pam::store::crc32c(buf.data(), buf.size());
  for (size_t bit : {size_t{0}, size_t{77}, size_t{2047}}) {
    buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(pam::store::crc32c(buf.data(), buf.size()), base);
    buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
  }
}

// -------------------------------------------------------------- file shim --

TEST(FileShim, PosixRoundTrip) {
  temp_dir td("posix");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path + "/a/b");
  EXPECT_TRUE(fs->exists(td.path + "/a/b"));

  auto f = fs->create(td.path + "/a/b/x");
  f->append("hello ", 6);
  f->append("world", 5);
  f->sync();
  EXPECT_EQ(f->size(), 11u);
  f.reset();

  auto r = fs->open_read(td.path + "/a/b/x");
  char buf[16] = {};
  EXPECT_EQ(r->read_at(0, buf, sizeof buf), 11u);  // short at EOF
  EXPECT_EQ(std::string(buf, 11), "hello world");
  EXPECT_EQ(r->read_at(6, buf, 5), 5u);
  EXPECT_EQ(std::string(buf, 5), "world");

  auto w = fs->open_append(td.path + "/a/b/x");
  w->truncate(5);
  EXPECT_EQ(w->size(), 5u);
  w.reset();

  fs->rename(td.path + "/a/b/x", td.path + "/a/b/y");
  EXPECT_FALSE(fs->exists(td.path + "/a/b/x"));
  EXPECT_TRUE(fs->exists(td.path + "/a/b/y"));
  fs->sync_dir(td.path + "/a/b");
  auto names = fs->list(td.path + "/a/b");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "y");
  fs->remove(td.path + "/a/b/y");
  fs->remove(td.path + "/a/b/y");  // ENOENT-tolerant
  EXPECT_FALSE(fs->exists(td.path + "/a/b/y"));
}

TEST(FileShim, FailpointsTripOnNthOperation) {
  temp_dir td("faults");
  auto fp = std::make_shared<pam::store::failpoints>();
  auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);
  fs->mkdirs(td.path);

  // Third write trips a short write: half the bytes land, then crash.
  fp->writes_until_short.store(3);
  auto f = fs->create(td.path + "/f");
  f->append("aaaa", 4);
  f->append("bbbb", 4);
  EXPECT_THROW(f->append("cccc", 4), pam::store::crash_error);
  EXPECT_EQ(f->size(), 10u);  // 4 + 4 + 2
  EXPECT_EQ(fp->crashes_injected.load(), 1);
  fp->disarm();
  f->append("dddd", 4);  // disarmed: full write goes through
  EXPECT_EQ(f->size(), 14u);

  // Torn write: all bytes present but the tail is garbage.
  fp->writes_until_torn.store(1);
  auto g = fs->create(td.path + "/g");
  EXPECT_THROW(g->append("ABCDEFGH", 8), pam::store::crash_error);
  EXPECT_EQ(g->size(), 8u);
  char buf[8];
  ASSERT_EQ(fs->open_read(td.path + "/g")->read_at(0, buf, 8), 8u);
  EXPECT_EQ(std::memcmp(buf, "ABCD", 4), 0);
  EXPECT_EQ(std::memcmp(buf + 4, "\xA5\xA5\xA5\xA5", 4), 0);
  fp->disarm();

  // fsync failure and rename crash.
  fp->fsyncs_until_fail.store(1);
  EXPECT_THROW(g->sync(), pam::store::crash_error);
  g->sync();  // self-disarms after firing
  fp->renames_until_crash.store(1);
  EXPECT_THROW(fs->rename(td.path + "/g", td.path + "/h"),
               pam::store::crash_error);
  EXPECT_TRUE(fs->exists(td.path + "/g"));  // the rename never happened
  fp->disarm();
}

// -------------------------------------------------------------------- wal --

pam::store::wal_config small_wal(size_t segment_bytes = 64 * 1024) {
  pam::store::wal_config cfg;
  cfg.segment_bytes = segment_bytes;
  cfg.sync_every = 1;
  return cfg;
}

TEST(Wal, AppendReplayRoundTrip) {
  temp_dir td("wal_rt");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  {
    pam::store::wal_writer w(fs, td.path, small_wal(), 1);
    for (int i = 0; i < 100; i++) {
      std::string payload = "record-" + std::to_string(i);
      EXPECT_EQ(w.append(payload.data(), payload.size()),
                static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ(w.last_seq(), 100u);
    EXPECT_EQ(w.durable_seq(), 100u);  // sync_every = 1
    EXPECT_FALSE(w.dead());
  }
  uint64_t next = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0,
      [&](uint64_t seq, const char* p, size_t n) {
        EXPECT_EQ(seq, ++next);
        EXPECT_EQ(std::string(p, n), "record-" + std::to_string(seq - 1));
      },
      /*repair=*/false);
  EXPECT_EQ(st.records, 100u);
  EXPECT_EQ(st.next_seq, 101u);
  EXPECT_FALSE(st.tail_truncated);

  // after_seq skips the covered prefix.
  uint64_t seen = 0;
  auto st2 = pam::store::wal_replay(
      *fs, td.path, 90, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(st2.next_seq, 101u);
}

TEST(Wal, RotationAndTruncateThrough) {
  temp_dir td("wal_rot");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> big(8 * 1024, 'x');
  pam::store::wal_writer w(fs, td.path, small_wal(16 * 1024), 1);
  for (int i = 0; i < 20; i++) w.append(big.data(), big.size());
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_GE(segs.size(), 3u) << "rotation never happened";
  for (size_t i = 1; i < segs.size(); i++) {
    EXPECT_GT(segs[i].first, segs[i - 1].first);
  }

  // Truncating through a mid-log seq unlinks fully-covered segments only;
  // the active segment always survives.
  w.truncate_through(10);
  auto after = pam::store::wal_segments(*fs, td.path);
  EXPECT_LT(after.size(), segs.size());
  ASSERT_FALSE(after.empty());
  // Replay of what remains still yields every record after the cut.
  uint64_t seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 10, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(st.next_seq, 21u);
}

TEST(Wal, TornTailStopsReplayAndRepairTruncates) {
  temp_dir td("wal_torn");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  {
    pam::store::wal_writer w(fs, td.path, small_wal(), 1);
    for (int i = 0; i < 10; i++) {
      std::string payload = "payload-" + std::to_string(i);
      w.append(payload.data(), payload.size());
    }
  }
  // Corrupt the last record's payload byte on disk.
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_EQ(segs.size(), 1u);
  const std::string path = td.path + "/" + segs[0].second;
  uint64_t fsize = fs->open_read(path)->size();
  {
    auto f = fs->open_append(path);
    std::vector<char> all(fsize);
    fs->open_read(path)->read_at(0, all.data(), all.size());
    all.back() = static_cast<char>(all.back() ^ 0xFF);
    f->truncate(0);
    f->append(all.data(), all.size());
  }
  // Replay: 9 good records, the corrupted tail cut; repair truncates it.
  uint64_t seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0, [&](uint64_t, const char*, size_t) { seen++; }, true);
  EXPECT_EQ(seen, 9u);
  EXPECT_TRUE(st.tail_truncated);
  EXPECT_EQ(st.next_seq, 10u);
  EXPECT_LT(fs->open_read(path)->size(), fsize);

  // A writer resumed at next_seq appends over the repaired tail seamlessly.
  pam::store::wal_writer w2(fs, td.path, small_wal(), st.next_seq);
  std::string payload = "after-repair";
  EXPECT_EQ(w2.append(payload.data(), payload.size()), 10u);
  seen = 0;
  pam::store::wal_replay(
      *fs, td.path, 0, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
}

TEST(Wal, MissingMiddleSegmentIsCorruptionNotSplice) {
  temp_dir td("wal_gap");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> big(8 * 1024, 'x');
  {
    pam::store::wal_writer w(fs, td.path, small_wal(16 * 1024), 1);
    for (int i = 0; i < 20; i++) w.append(big.data(), big.size());
  }
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_GE(segs.size(), 3u);
  // Lose a middle segment: records [gap_first, gap_end) vanish from the
  // chain while later segments survive intact.
  const uint64_t gap_first = segs[1].first;
  const uint64_t gap_end = segs[2].first;
  fs->remove(td.path + "/" + segs[1].second);

  // Replay from 0 must stop at the boundary and flag the break — splicing
  // over the hole would present non-contiguous history as contiguous.
  uint64_t last = 0, seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0,
      [&](uint64_t seq, const char*, size_t) {
        last = seq;
        seen++;
      },
      /*repair=*/false);
  EXPECT_EQ(seen, gap_first - 1);
  EXPECT_EQ(last, gap_first - 1);
  EXPECT_TRUE(st.tail_truncated);
  EXPECT_EQ(st.next_seq, gap_first);

  // A boundary gap lying entirely inside the covered prefix is fine:
  // nothing the checkpoint chain needs is absent.
  seen = 0;
  auto st2 = pam::store::wal_replay(
      *fs, td.path, gap_end - 1,
      [&](uint64_t, const char*, size_t) { seen++; }, /*repair=*/false);
  EXPECT_EQ(seen, 21 - gap_end);
  EXPECT_FALSE(st2.tail_truncated);
  EXPECT_EQ(st2.next_seq, 21u);

  // Repair mode unlinks the segments stranded past the break.
  auto st3 = pam::store::wal_replay(
      *fs, td.path, 0, [](uint64_t, const char*, size_t) {}, /*repair=*/true);
  EXPECT_TRUE(st3.tail_truncated);
  EXPECT_EQ(st3.next_seq, gap_first);
  auto after = pam::store::wal_segments(*fs, td.path);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].first, segs[0].first);
}

TEST(Wal, DeadWriterUnacksSilently) {
  temp_dir td("wal_dead");
  auto fp = std::make_shared<pam::store::failpoints>();
  auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);
  fs->mkdirs(td.path);
  pam::store::wal_writer w(fs, td.path, small_wal(), 1);
  EXPECT_EQ(w.append("ok", 2), 1u);
  fp->writes_until_short.store(1);
  EXPECT_THROW(w.append("boom", 4), pam::store::crash_error);
  EXPECT_TRUE(w.dead());
  fp->disarm();
  EXPECT_EQ(w.append("late", 4), 0u);  // dead: unacked, no side effects
  EXPECT_EQ(w.last_seq(), 1u);
}

// ------------------------------------------------- checkpoint page format --

TEST(CheckpointPages, MultiPageStreamsRoundTrip) {
  temp_dir td("pages");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  pam::random_gen g(11);
  std::vector<char> s0(10000), s1(3), s2;  // multi-page, tiny, empty
  for (auto& c : s0) c = static_cast<char>(g.next());
  for (auto& c : s1) c = static_cast<char>(g.next());

  std::vector<char> out;
  pam::store::append_pages(out, 0, s0, 4096);
  pam::store::append_pages(out, 1, s1, 4096);
  pam::store::append_pages(out, 2, s2, 4096);
  auto f = fs->create(td.path + "/p");
  f->append(out.data(), out.size());
  f.reset();

  auto streams = pam::store::read_page_streams(*fs, td.path + "/p");
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0].first, 0u);
  EXPECT_EQ(streams[0].second, s0);
  EXPECT_EQ(streams[1].second, s1);
  EXPECT_TRUE(streams[2].second.empty());
}

TEST(CheckpointPages, CorruptPageOrMissingTailRejected) {
  temp_dir td("pages_bad");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> stream(9000, 'q');
  std::vector<char> out;
  pam::store::append_pages(out, 0, stream, 4096);

  // Flip one payload byte: checksum mismatch.
  auto bad = out;
  bad[bad.size() - 1] = static_cast<char>(bad.back() ^ 1);
  auto f = fs->create(td.path + "/bad");
  f->append(bad.data(), bad.size());
  f.reset();
  EXPECT_THROW(pam::store::read_page_streams(*fs, td.path + "/bad"),
               pam::wire::error);

  // Drop the closing page: the stream never completes.
  auto cut = out;
  cut.resize(pam::store::kCkptPageHeader + 4096);  // first page only
  f = fs->create(td.path + "/cut");
  f->append(cut.data(), cut.size());
  f.reset();
  EXPECT_THROW(pam::store::read_page_streams(*fs, td.path + "/cut"),
               pam::wire::error);
}

// ------------------------------------------------------ manifest + commit --

TEST(Manifest, RoundTripAndCommitPoint) {
  temp_dir td("manifest");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  using cio = pam::store::checkpoint_io<str_map>;
  cio::manifest_t m;
  m.id = 42;
  m.covered_wal_seq = 1234;
  m.splitters = {"alpha", "omega"};
  m.files = {{0, "ckpt-000000000000002a-full.pam"},
             {1, "ckpt-000000000000002b-delta.pam"}};
  cio::write_manifest(*fs, td.path, m);

  EXPECT_FALSE(cio::read_current(*fs, td.path).has_value());
  cio::commit_current(*fs, td.path, pam::store::manifest_file_name(42));
  auto cur = cio::read_current(*fs, td.path);
  ASSERT_TRUE(cur.has_value());
  auto back = cio::read_manifest(*fs, td.path, *cur);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.covered_wal_seq, 1234u);
  EXPECT_EQ(back.splitters, m.splitters);
  EXPECT_EQ(back.files, m.files);

  // A corrupted manifest byte fails its trailing CRC.
  const std::string mpath = td.path + "/" + *cur;
  uint64_t fsize = fs->open_read(mpath)->size();
  std::vector<char> all(fsize);
  fs->open_read(mpath)->read_at(0, all.data(), all.size());
  all[8] = static_cast<char>(all[8] ^ 1);
  auto f = fs->create(mpath);
  f->append(all.data(), all.size());
  f.reset();
  EXPECT_THROW(cio::read_manifest(*fs, td.path, *cur), pam::wire::error);
}

// A u32 count field set to 0xFFFFFFFF (CRC recomputed, so only the count is
// wrong) must be rejected as wire::error before anything is reserved for it
// — not escape as std::bad_alloc.
TEST(Manifest, HugeCountsAreWireErrors) {
  temp_dir td("manifest_counts");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  using cio = pam::store::checkpoint_io<u64_map>;
  cio::manifest_t m;
  m.id = 7;
  cio::write_manifest(*fs, td.path, m);  // no splitters, no files
  const std::string name = pam::store::manifest_file_name(7);
  const std::string mpath = td.path + "/" + name;
  std::vector<char> good(fs->open_read(mpath)->size());
  fs->open_read(mpath)->read_at(0, good.data(), good.size());
  // magic u32 | version u32 | id u64 | covered u64 | n_splitters u32 |
  // n_files u32 | crc u32
  for (size_t at : {size_t{24}, size_t{28}}) {
    auto bad = good;
    uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(bad.data() + at, &huge, sizeof(huge));
    uint32_t crc = pam::store::crc32c(bad.data(), bad.size() - 4);
    std::memcpy(bad.data() + bad.size() - 4, &crc, sizeof(crc));
    auto f = fs->create(mpath);
    f->append(bad.data(), bad.size());
    f.reset();
    EXPECT_THROW(cio::read_manifest(*fs, td.path, name), pam::wire::error)
        << "count at byte " << at;
  }
}

// ------------------------------------------------------------ wire codec --

// Round-trip `m` through the wire format and compare against the oracle.
template <typename Map, typename Oracle>
void expect_round_trip(const Map& m, const Oracle& oracle) {
  std::vector<char> wire;
  m.serialize(wire);
  Map rt = Map::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(rt.check_valid());
  ASSERT_EQ(rt.size(), oracle.size());
  auto it = rt.begin();
  for (auto& [k, v] : oracle) {
    ASSERT_TRUE(it != rt.end());
    ASSERT_EQ(it->key, k);
    ASSERT_EQ(it->value, v);
    ++it;
  }
  ASSERT_TRUE(it == rt.end());
  ASSERT_EQ(rt.aug_val(), m.aug_val());  // recomputed, not read from disk
}

template <typename Balance>
void codec_sweep_u64(uint64_t seed) {
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>, Balance>;
  pam::random_gen g(seed);
  map_t m;
  std::map<uint64_t, uint64_t> oracle;
  expect_round_trip(m, oracle);  // empty map
  for (int i = 0; i < 2000; i++) {
    uint64_t k = g.next() % 4096, v = g.next() % 100000;
    m = map_t::insert(std::move(m), k, v);
    oracle[k] = v;
  }
  for (int i = 0; i < 500; i++) {
    uint64_t k = g.next() % 4096;
    m = map_t::remove(std::move(m), k);
    oracle.erase(k);
  }
  expect_round_trip(m, oracle);
}

template <typename Balance>
void codec_sweep_str(uint64_t seed) {
  using map_t = pam::aug_map<pam::str_sum_entry<uint64_t>, Balance>;
  pam::random_gen g(seed);
  map_t m;
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string k = "user/profile/" + std::to_string(g.next() % 2048);
    uint64_t v = g.next() % 100000;
    m = map_t::insert(std::move(m), k, v);
    oracle[k] = v;
  }
  expect_round_trip(m, oracle);
}

// All four balance schemes x flat/front-coded leaves x block sizes 0 (no
// blocks), 1 (degenerate), 32 (default), 256 (multi byte-class).
TEST(WireCodec, AllSchemesAllLayoutsAllBlockSizes) {
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{0}, size_t{1}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    codec_sweep_u64<pam::weight_balanced>(100 + b);
    codec_sweep_u64<pam::red_black>(200 + b);
    codec_sweep_u64<pam::avl_tree>(300 + b);
    codec_sweep_u64<pam::treap>(400 + b);
    codec_sweep_str<pam::weight_balanced>(500 + b);
    codec_sweep_str<pam::red_black>(600 + b);
    codec_sweep_str<pam::avl_tree>(700 + b);
    codec_sweep_str<pam::treap>(800 + b);
  }
  pam::set_leaf_block_size(saved_b);
}

TEST(WireCodec, CorruptStreamsThrowNeverCrash) {
  pam::random_gen g(3);
  u64_map m;
  for (int i = 0; i < 1000; i++) {
    m = u64_map::insert(std::move(m), g.next() % 2048, g.next());
  }
  std::vector<char> wire;
  m.serialize(wire);

  // Truncations at every prefix length of the header region and a sample
  // of interior cuts: must throw wire::error, never crash or misparse.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{10}, size_t{19},
                     wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(u64_map::deserialize(wire.data(), cut), pam::wire::error)
        << "cut " << cut;
  }
  // Bit flips across the stream: either a clean wire::error or (for flips
  // confined to value bytes) a map that still validates.
  for (size_t at = 0; at < wire.size(); at += 97) {
    auto bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    try {
      u64_map rt = u64_map::deserialize(bad.data(), bad.size());
      EXPECT_TRUE(rt.check_valid());
    } catch (const pam::wire::error&) {
      // rejected — the expected common case
    }
  }
}

// Header (20 bytes): u32 magic | u8 layout | u8 byte_order | u16 entry_abi
// | u64 total_entries | u32 record_count; then the first record's
// u8 kind | u32 count. A count of 0xFFFFFFFF must be a wire::error, never a
// reserve() that escapes as std::bad_alloc.
template <typename Map>
void expect_huge_first_count_rejected(const Map& m, uint8_t kind) {
  std::vector<char> wire;
  m.serialize(wire);
  ASSERT_GT(wire.size(), 25u);
  ASSERT_EQ(static_cast<uint8_t>(wire[20]), kind);
  uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(wire.data() + 21, &huge, sizeof(huge));
  EXPECT_THROW(Map::deserialize(wire.data(), wire.size()), pam::wire::error);
}

TEST(WireCodec, HugeRecordCountsAreWireErrors) {
  size_t saved_b = pam::leaf_block_size();
  // B = 0: every entry rides a per-field run record (kind 1).
  pam::set_leaf_block_size(0);
  u64_map runs;
  for (uint64_t k = 0; k < 100; k++) {
    runs = u64_map::insert(std::move(runs), k, k);
  }
  expect_huge_first_count_rejected(runs, 1);
  // Front-coded blocks travel as raw coded records (kind 3).
  pam::set_leaf_block_size(32);
  std::vector<std::pair<std::string, uint64_t>> es;
  for (uint64_t i = 0; i < 500; i++) {
    es.emplace_back("k/" + std::to_string(1000 + i), i);
  }
  expect_huge_first_count_rejected(str_map::from_sorted(es), 3);
  pam::set_leaf_block_size(saved_b);
}

// The on-disk bytes of coded leaf blocks, pinned: a block's raw region
// (write_payload) and the one-block map stream around it must match hex
// taken from an earlier build, so a refactor of the block store or its
// codecs cannot silently change what checkpoints hold. The front-coded
// keys are chosen so the key region ends on the value alignment (no pad).
std::string hex(const std::vector<char>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    auto u = static_cast<unsigned char>(c);
    out += digits[u >> 4];
    out += digits[u & 0xF];
  }
  return out;
}

template <typename Map>
void expect_pinned_bytes(const std::vector<typename Map::entry_t>& es,
                         const std::string& payload_hex,
                         const std::string& stream_hex) {
  using lstore = typename Map::ops::lstore;
  auto* b = lstore::build(es.data(), static_cast<uint32_t>(es.size()));
  std::vector<char> payload(lstore::payload_bytes(b));
  lstore::write_payload(b, payload.data());
  lstore::release(b);
  EXPECT_EQ(hex(payload), payload_hex);
  std::vector<char> stream;
  Map::from_sorted(es).serialize(stream);
  EXPECT_EQ(hex(stream), stream_hex);
}

TEST(WireCodec, CodedBlockBytesArePinned) {
  size_t saved_b = pam::leaf_block_size();
  pam::set_leaf_block_size(32);
  // Stream header shared by all three: "PAM1" magic, then layout (1 front
  // coded, 2 delta), host byte order, entry ABI 0.
  expect_pinned_bytes<str_map>(
      {{"alpha", 1}, {"alphabet", 2}, {"betamax", 300}, {"betas", 4}},
      "070000000c00000015000000180000000000616c70686105006265740000626574616d"
      "6178040073010000000000000002000000000000002c0100000000000004000000000000"
      "00",
      "50414d310101000004000000000000000100000003040000005000000068000000480000"
      "00070000000c00000015000000180000000000616c70686105006265740000626574616d"
      "6178040073010000000000000002000000000000002c0100000000000004000000000000"
      "00");
  // Signed keys and values: zigzag base key and differences, packed values.
  expect_pinned_bytes<pam::aug_map<pam::delta_sum_entry<int64_t, int64_t>>>(
      {{-5, 7}, {-3, -1}, {0, 300}, {1000, 0}, {1001, -70000}},
      "090406d00f020e01d80400dfc508",
      "50414d310201000005000000000000000100000003050000001600000"
      "02e00000026000000090406d00f020e01d80400dfc508");
  // Non-integral values ride a raw aligned array after a zero pad.
  expect_pinned_bytes<pam::aug_map<pam::delta_map_entry<int32_t, double>>>(
      {{-100, 0.5}, {-1, -2.25}, {2, 1e10}, {130, 3.0}},
      "c701c6010680020000000000000000000000e03f00000000000002c0000000205fa00242"
      "0000000000000840",
      "50414d3102010000040000000000000001000000030400000034000000400000002000"
      "0000c701c6010680020000000000000000000000e03f00000000000002c0000000205fa0"
      "02420000000000000840");
  pam::set_leaf_block_size(saved_b);
}

TEST(WireCodec, CrossEndianStreamRejected) {
  u64_map m;
  for (uint64_t k = 0; k < 100; k++) {
    m = u64_map::insert(std::move(m), k, k * 3);
  }
  std::vector<char> wire;
  m.serialize(wire);
  // Header: u32 magic | u8 layout | u8 byte_order | ... — the stamp pins
  // the writing host's endianness so a cross-endian load fails loudly
  // instead of misparsing raw block payloads.
  ASSERT_GT(wire.size(), 6u);
  EXPECT_EQ(static_cast<uint8_t>(wire[5]), pam::wire::kHostByteOrder);
  wire[5] = static_cast<char>(wire[5] == 1 ? 2 : 1);
  EXPECT_THROW(u64_map::deserialize(wire.data(), wire.size()),
               pam::wire::error);
}

// -------------------------------------------- durability manager + deltas --

TEST(Durability, IncrementalCheckpointPersistsOnlyChangedBlocks) {
  temp_dir td("incr");
  pam::store::durability_options opts;
  opts.dir = td.path;
  opts.ckpt.page_bytes = 4096;

  std::vector<uint64_t> splitters = {50000};
  pam::sharded_map<u64_map> shards(splitters);
  // The ctor commits a full checkpoint of the (empty) initial contents.
  pam::store::durability<u64_map> d(opts, shards.snapshot_all());

  std::vector<u64_map::entry_t> bulk;
  for (uint64_t i = 0; i < 100000; i++) bulk.emplace_back(i, i);
  shards.multi_insert(std::move(bulk));
  // 100k fresh keys dwarf the empty baseline: the ratio policy forces full.
  auto full = d.save_checkpoint(shards.snapshot_all(), 0);
  EXPECT_TRUE(full.full);

  // Touch 20 of 100k keys: the delta must be proportional to the churn,
  // not the map — the byte-footprint guarantee of diff-driven checkpoints.
  std::vector<u64_map::entry_t> churn;
  for (uint64_t i = 0; i < 20; i++) churn.emplace_back(i * 977, 1);
  shards.multi_insert(std::move(churn));
  auto delta = d.save_checkpoint(shards.snapshot_all(), 0);
  EXPECT_FALSE(delta.full);
  EXPECT_LT(delta.bytes * 100, full.bytes)
      << "delta " << delta.bytes << "B should be <1% of full " << full.bytes
      << "B for 20/100k churn";

  // The chain (full + delta) still loads to the exact contents.
  auto rec = pam::store::durability<u64_map>::recover(opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_files, 2u);
  EXPECT_EQ(rec->contents.size(), 100000u);
  for (uint64_t i = 0; i < 20; i++) {
    auto got = rec->contents.find(i * 977);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 1u);
  }
}

TEST(Durability, FullCheckpointForcedPastMaxChainAndGcSweeps) {
  temp_dir td("chain");
  pam::store::durability_options opts;
  opts.dir = td.path;
  opts.ckpt.max_chain = 2;
  opts.ckpt.incr_max_ratio = 1.0;

  pam::sharded_map<u64_map> shards(u64_map{}, size_t{1});
  std::vector<u64_map::entry_t> bulk;
  for (uint64_t i = 0; i < 5000; i++) bulk.emplace_back(i, i);
  shards.multi_insert(std::move(bulk));

  pam::store::durability<u64_map> d(opts, shards.snapshot_all());
  int fulls = 0, deltas = 0;
  for (int round = 0; round < 8; round++) {
    std::vector<u64_map::entry_t> churn = {{uint64_t(round), 99u}};
    shards.multi_insert(std::move(churn));
    auto r = d.save_checkpoint(shards.snapshot_all(), 0);
    (r.full ? fulls : deltas)++;
  }
  EXPECT_GE(fulls, 2) << "max_chain=2 must force periodic fulls";
  EXPECT_GE(deltas, 4);

  // GC: only the live chain (<= 1 full + max_chain deltas + manifest +
  // CURRENT) remains on disk after eight commits.
  auto fs = pam::store::posix_fs();
  size_t ckpt_files = 0, manifests = 0;
  for (const auto& name : fs->list(td.path)) {
    ckpt_files += name.rfind("ckpt-", 0) == 0;
    manifests += name.rfind("manifest-", 0) == 0;
  }
  EXPECT_LE(ckpt_files, size_t{1} + 2);
  EXPECT_EQ(manifests, 1u);

  auto rec = pam::store::durability<u64_map>::recover(opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->contents.size(), 5000u);
}

// WAL batch record: [ u32 0 | u32 n_ups | u32 n_dels | entries | keys ].
// Either count at 0xFFFFFFFF must fail as wire::error before any reserve.
TEST(Durability, WalRecordHugeCountsAreWireErrors) {
  for (bool huge_ups : {true, false}) {
    std::vector<char> rec;
    pam::wire::put_u32(rec, 0);
    pam::wire::put_u32(rec, huge_ups ? 0xFFFFFFFFu : 1u);
    pam::wire::put_u32(rec, huge_ups ? 0u : 0xFFFFFFFFu);
    pam::wire::field_codec<u64_map::entry_t>::write({5, 50}, rec);
    u64_map m;
    EXPECT_THROW(pam::store::durability<u64_map>::apply_record(m, rec.data(),
                                                              rec.size()),
                 pam::wire::error)
        << (huge_ups ? "n_ups" : "n_dels");
  }
}

// Durability settings have one channel, the option structs: their defaults
// hold whatever the environment says.
TEST(Durability, OptionsAreStructDefaults) {
  ::setenv("PAM_WAL_SYNC_EVERY", "16", 1);
  ::setenv("PAM_CKPT_MAX_CHAIN", "3", 1);
  pam::store::durability_options opts{"dir"};
  ::unsetenv("PAM_WAL_SYNC_EVERY");
  ::unsetenv("PAM_CKPT_MAX_CHAIN");
  EXPECT_EQ(opts.dir, "dir");
  EXPECT_EQ(opts.wal.sync_every, 1);
  EXPECT_EQ(opts.wal.segment_bytes, size_t{4} << 20);
  EXPECT_EQ(opts.ckpt.page_bytes, size_t{1} << 20);
  EXPECT_EQ(opts.ckpt.max_chain, 8);
  EXPECT_DOUBLE_EQ(opts.ckpt.incr_max_ratio, 0.5);
}

// A page size of 0 cannot frame a stream and one past UINT32_MAX does not
// fit the page header's u32 length: both are rejected before anything is
// written, by the manager and by a durable kv_store that builds one.
TEST(Durability, PageBytesOutOfRangeRejected) {
  temp_dir td("pagebytes");
  for (size_t bad : {size_t{0}, size_t{UINT32_MAX} + 1}) {
    pam::store::durability_options opts;
    opts.dir = td.path;
    opts.ckpt.page_bytes = bad;
    pam::sharded_map<u64_map> shards(u64_map{}, size_t{1});
    EXPECT_THROW(pam::store::durability<u64_map>(opts, shards.snapshot_all()),
                 std::invalid_argument)
        << bad;
    pam::kv_store<u64_map>::options kv;
    kv.durability = opts;
    EXPECT_THROW(pam::kv_store<u64_map>(u64_map{}, kv), std::invalid_argument)
        << bad;
  }
  EXPECT_NE(::access(td.path.c_str(), F_OK), 0) << "nothing may be created";
}

TEST(Durability, RecoverOnEmptyDirectoryIsNullopt) {
  temp_dir td("empty");
  pam::store::durability_options opts;
  opts.dir = td.path;
  EXPECT_FALSE(pam::store::durability<u64_map>::recover(opts).has_value());
}

}  // namespace
