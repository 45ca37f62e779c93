// Checkpoint files: CRC32C-checksummed pages, an atomic rename-to-commit
// manifest, and full/incremental snapshot streams.
//
// A checkpoint persists one consistent cut (sharded_map's
// snapshot_all_versioned) as data files plus a manifest:
//
//   ckpt-<id>-full.pam    one map_codec stream per shard, paged
//   ckpt-<id>-delta.pam   one change stream (aug_map::diff against the
//                         previous cut), paged — only blocks that changed
//                         since the last cut contribute, which is the whole
//                         point of diffing two path-copied versions
//   manifest-<id>         the chain: splitters, covered WAL seq, and the
//                         data files to apply in order (full, then deltas)
//   CURRENT               the name of the committed manifest
//
// Page framing (native byte order — see the wire note in pam/serialize.h;
// checkpoint files are not portable across hosts of different endianness,
// and a cross-endian load fails closed on the manifest CRC / the map
// codec's byte-order stamp):
//
//   [ u32 magic | u32 shard | u32 index | u32 len | u8 last | u32 crc |
//     payload(len) ]
//
// crc is CRC32C over (shard, index, len, last, payload). A stream larger
// than page_bytes spans consecutive pages with increasing index; `last`
// closes it. Readers reject any page that fails its checksum or breaks
// the index chain, and any stream that never saw its last page — so a
// checkpoint interrupted mid-write is never loadable, even though it is
// also never referenced (its manifest was never committed).
//
// Commit protocol: data file(s) written and fsynced -> manifest written and
// fsynced -> directory synced -> CURRENT.tmp written, fsynced, renamed
// onto CURRENT, directory synced. The rename is the commit point: a crash
// anywhere before it leaves the previous checkpoint current, and partial
// files from the dead attempt are garbage that recovery never reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pam/pam.h"
#include "server/sharded_map.h"
#include "store/crc32c.h"
#include "store/file.h"

namespace pam::store {

// ---------------------------------------------------------------- config --

struct ckpt_config {
  // Target page payload size: bounds how much data one torn page can
  // poison. In [1, 2^32 - 1] (the page header stores the length as a u32);
  // the durability manager rejects anything else.
  size_t page_bytes = size_t{1} << 20;
  // Force a full checkpoint after this many incrementals (>= 1): bounds
  // recovery's apply chain.
  long max_chain = 8;
  // Write a full checkpoint when the delta stream exceeds this fraction of
  // the last full checkpoint's bytes (in [0, 1]): past that point replaying
  // the delta saves nothing.
  double incr_max_ratio = 0.5;
};

// ---------------------------------------------------------- page framing --

inline constexpr uint32_t kCkptMagic = 0x54504B43;   // "CKPT"
inline constexpr uint32_t kManifestMagic = 0x464E4D50;  // "PMNF"
inline constexpr uint32_t kDeltaShard = 0xFFFFFFFF;
inline constexpr size_t kCkptPageHeader = 4 + 4 + 4 + 4 + 1 + 4;

inline std::string ckpt_file_name(uint64_t id, bool full) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ckpt-%016llx-%s.pam",
                static_cast<unsigned long long>(id), full ? "full" : "delta");
  return buf;
}

inline std::string manifest_file_name(uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "manifest-%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// Append `stream` to `out` as checksummed pages of <= page_bytes payload.
inline void append_pages(std::vector<char>& out, uint32_t shard,
                         const std::vector<char>& stream, size_t page_bytes) {
  size_t off = 0;
  uint32_t index = 0;
  do {
    size_t len = stream.size() - off < page_bytes ? stream.size() - off
                                                  : page_bytes;
    uint8_t last = off + len == stream.size() ? 1 : 0;
    uint32_t len32 = static_cast<uint32_t>(len);
    uint32_t crc = crc32c(&shard, sizeof(shard));
    crc = crc32c(&index, sizeof(index), crc);
    crc = crc32c(&len32, sizeof(len32), crc);
    crc = crc32c(&last, sizeof(last), crc);
    crc = crc32c(stream.data() + off, len, crc);
    wire::put_u32(out, kCkptMagic);
    wire::put_u32(out, shard);
    wire::put_u32(out, index);
    wire::put_u32(out, len32);
    wire::put_u8(out, last);
    wire::put_u32(out, crc);
    wire::put_bytes(out, stream.data() + off, len);
    off += len;
    index++;
  } while (off < stream.size());
}

// Parse a paged file back into complete (shard, stream) pairs, in order of
// first appearance. Throws wire::error on any checksum or chain violation,
// or if a stream never saw its closing page.
inline std::vector<std::pair<uint32_t, std::vector<char>>> read_page_streams(
    file_system& fs, const std::string& path) {
  std::unique_ptr<file> f = fs.open_read(path);
  uint64_t fsize = f->size();
  std::vector<char> buf(fsize);
  if (fsize > 0 && f->read_at(0, buf.data(), buf.size()) != fsize) {
    throw io_error("checkpoint file shrank mid-read: " + path);
  }
  std::vector<std::pair<uint32_t, std::vector<char>>> streams;
  std::map<uint32_t, size_t> stream_of;  // shard -> index into streams
  std::map<uint32_t, uint32_t> next_index;
  std::map<uint32_t, bool> closed;
  wire::reader r(buf.data(), buf.size());
  while (r.remaining() > 0) {
    if (r.remaining() < kCkptPageHeader) {
      throw wire::error("checkpoint: truncated page header");
    }
    uint32_t magic = r.u32();
    uint32_t shard = r.u32();
    uint32_t index = r.u32();
    uint32_t len = r.u32();
    uint8_t last = r.u8();
    uint32_t crc = r.u32();
    if (magic != kCkptMagic) throw wire::error("checkpoint: bad page magic");
    const char* payload = r.skip(len);
    uint32_t actual = crc32c(&shard, sizeof(shard));
    actual = crc32c(&index, sizeof(index), actual);
    actual = crc32c(&len, sizeof(len), actual);
    actual = crc32c(&last, sizeof(last), actual);
    actual = crc32c(payload, len, actual);
    if (actual != crc) throw wire::error("checkpoint: page checksum mismatch");
    auto it = stream_of.find(shard);
    if (it == stream_of.end()) {
      it = stream_of.emplace(shard, streams.size()).first;
      streams.emplace_back(shard, std::vector<char>());
      next_index[shard] = 0;
      closed[shard] = false;
    }
    if (closed[shard] || index != next_index[shard]) {
      throw wire::error("checkpoint: page chain violation");
    }
    next_index[shard] = index + 1;
    if (last != 0) closed[shard] = true;
    auto& dst = streams[it->second].second;
    dst.insert(dst.end(), payload, payload + len);
  }
  for (const auto& [shard, idx] : stream_of) {
    if (!closed[shard]) {
      throw wire::error("checkpoint: stream missing its final page");
    }
    (void)idx;
  }
  return streams;
}

// ------------------------------------------------------------- manifests --

// The per-Map checkpoint codec: manifests (which embed splitter keys),
// full-cut streams, delta streams, and the load path.
template <typename Map>
struct checkpoint_io {
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using change_t = typename Map::change_t;
  using snapshot_t = sharded_snapshot<Map>;

  struct manifest_t {
    uint64_t id = 0;
    uint64_t covered_wal_seq = 0;
    std::vector<K> splitters;
    // Data files in apply order: kind 0 = full, 1 = delta.
    std::vector<std::pair<uint8_t, std::string>> files;
  };

  static void write_manifest(file_system& fs, const std::string& dir,
                             const manifest_t& m) {
    std::vector<char> out;
    wire::put_u32(out, kManifestMagic);
    wire::put_u32(out, 1);  // format version
    wire::put_u64(out, m.id);
    wire::put_u64(out, m.covered_wal_seq);
    wire::put_u32(out, static_cast<uint32_t>(m.splitters.size()));
    for (const K& k : m.splitters) wire::field_codec<K>::write(k, out);
    wire::put_u32(out, static_cast<uint32_t>(m.files.size()));
    for (const auto& [kind, name] : m.files) {
      wire::put_u8(out, kind);
      wire::field_codec<std::string>::write(name, out);
    }
    wire::put_u32(out, crc32c(out.data(), out.size()));
    std::unique_ptr<file> f = fs.create(dir + "/" + manifest_file_name(m.id));
    f->append(out.data(), out.size());
    f->sync();
  }

  static manifest_t read_manifest(file_system& fs, const std::string& dir,
                                  const std::string& name) {
    std::unique_ptr<file> f = fs.open_read(dir + "/" + name);
    uint64_t fsize = f->size();
    std::vector<char> buf(fsize);
    if (fsize > 0 && f->read_at(0, buf.data(), buf.size()) != fsize) {
      throw io_error("manifest shrank mid-read: " + name);
    }
    if (fsize < 4) throw wire::error("manifest: too short");
    uint32_t crc;
    std::memcpy(&crc, buf.data() + fsize - 4, 4);
    if (crc != crc32c(buf.data(), fsize - 4)) {
      throw wire::error("manifest: checksum mismatch");
    }
    wire::reader r(buf.data(), fsize - 4);
    if (r.u32() != kManifestMagic) throw wire::error("manifest: bad magic");
    if (r.u32() != 1) throw wire::error("manifest: unknown format version");
    manifest_t m;
    m.id = r.u64();
    m.covered_wal_seq = r.u64();
    uint32_t nsp = r.count();
    m.splitters.reserve(nsp);
    for (uint32_t i = 0; i < nsp; i++) {
      m.splitters.push_back(wire::field_codec<K>::read(r));
    }
    uint32_t nf = r.count();
    m.files.reserve(nf);
    for (uint32_t i = 0; i < nf; i++) {
      uint8_t kind = r.u8();
      m.files.emplace_back(kind, wire::field_codec<std::string>::read(r));
    }
    return m;
  }

  // The commit point: publish `manifest_name` as CURRENT via write-temp,
  // fsync, atomic rename, directory sync.
  static void commit_current(file_system& fs, const std::string& dir,
                             const std::string& manifest_name) {
    const std::string tmp = dir + "/CURRENT.tmp";
    std::unique_ptr<file> f = fs.create(tmp);
    f->append(manifest_name.data(), manifest_name.size());
    f->sync();
    f.reset();
    fs.rename(tmp, dir + "/CURRENT");
    fs.sync_dir(dir);
  }

  static std::optional<std::string> read_current(file_system& fs,
                                                 const std::string& dir) {
    const std::string path = dir + "/CURRENT";
    if (!fs.exists(path)) return std::nullopt;
    std::unique_ptr<file> f = fs.open_read(path);
    uint64_t fsize = f->size();
    std::string name(fsize, '\0');
    if (fsize > 0 && f->read_at(0, name.data(), fsize) != fsize) {
      throw io_error("CURRENT shrank mid-read");
    }
    return name;
  }

  // --------------------------------------------------------- cut streams --

  // Serialize every shard of a cut (one map_codec stream per shard).
  static std::vector<std::vector<char>> build_full_streams(
      const snapshot_t& cut) {
    std::vector<std::vector<char>> streams(cut.num_shards());
    for (size_t s = 0; s < cut.num_shards(); s++) {
      cut.shard(s).serialize(streams[s]);
    }
    return streams;
  }

  // The change stream between two cuts over the same splitters: per-shard
  // aug_map::diff, concatenated in shard (= key) order. Only subtrees and
  // leaf blocks that actually changed are visited — shared regions prune in
  // O(1) — which is what makes incremental checkpoints proportional to the
  // churn, not the map.
  static std::vector<char> build_delta_stream(const snapshot_t& prev,
                                              const snapshot_t& cur) {
    std::vector<char> out;
    size_t count_at = out.size();
    wire::put_u32(out, 0);  // change count, patched below
    uint32_t n = 0;
    for (size_t s = 0; s < cur.num_shards(); s++) {
      std::vector<change_t> cs = Map::diff_changes(prev.shard(s), cur.shard(s));
      for (const change_t& c : cs) {
        wire::put_u8(out, c.after.has_value() ? 1 : 0);
        wire::field_codec<K>::write(c.key, out);
        if (c.after.has_value()) wire::field_codec<V>::write(*c.after, out);
        n++;
      }
    }
    std::memcpy(out.data() + count_at, &n, sizeof(n));
    return out;
  }

  // Write a data file of checksummed pages; returns bytes written. The
  // file is complete and fsynced on return but unreferenced until a
  // manifest naming it commits.
  static uint64_t write_data_file(
      file_system& fs, const std::string& dir, const std::string& name,
      const std::vector<std::pair<uint32_t, const std::vector<char>*>>& streams,
      size_t page_bytes) {
    std::vector<char> out;
    for (const auto& [shard, stream] : streams) {
      append_pages(out, shard, *stream, page_bytes);
    }
    std::unique_ptr<file> f = fs.create(dir + "/" + name);
    f->append(out.data(), out.size());
    f->sync();
    return out.size();
  }

  // ------------------------------------------------------------ loading --

  struct loaded_t {
    manifest_t manifest;
    Map contents;
    uint64_t files_applied = 0;
  };

  // Load the committed checkpoint chain: full streams deserialized per
  // shard and concatenated (shard ranges tile the key space), then each
  // delta's change stream applied in order. Returns nullopt when no
  // checkpoint has ever committed. Throws wire::error on corruption in
  // committed files (which the crash model says cannot happen — every
  // committed file was fsynced before its manifest was referenced).
  static std::optional<loaded_t> load(file_system& fs,
                                      const std::string& dir) {
    std::optional<std::string> current = read_current(fs, dir);
    if (!current.has_value()) return std::nullopt;
    loaded_t out;
    out.manifest = read_manifest(fs, dir, *current);
    for (const auto& [kind, name] : out.manifest.files) {
      auto streams = read_page_streams(fs, dir + "/" + name);
      if (kind == 0) {
        Map contents;
        for (size_t i = 0; i < streams.size(); i++) {
          if (streams[i].first != i) {
            throw wire::error("checkpoint: full file shard order violation");
          }
          Map shard = Map::deserialize(streams[i].second.data(),
                                       streams[i].second.size());
          contents = Map::concat(std::move(contents), std::move(shard));
        }
        out.contents = std::move(contents);
      } else {
        if (streams.size() != 1 || streams[0].first != kDeltaShard) {
          throw wire::error("checkpoint: malformed delta file");
        }
        apply_delta(out.contents, streams[0].second);
      }
      out.files_applied++;
    }
    return out;
  }

  static void apply_delta(Map& m, const std::vector<char>& stream) {
    wire::reader r(stream.data(), stream.size());
    uint32_t n = r.u32();
    std::vector<entry_t> ups;
    std::vector<K> dels;
    for (uint32_t i = 0; i < n; i++) {
      uint8_t has_after = r.u8();
      K k = wire::field_codec<K>::read(r);
      if (has_after != 0) {
        ups.emplace_back(std::move(k), wire::field_codec<V>::read(r));
      } else {
        dels.push_back(std::move(k));
      }
    }
    if (r.remaining() != 0) {
      throw wire::error("checkpoint: delta stream length mismatch");
    }
    // One delta's keys are distinct (a diff of two versions), so the two
    // bulk passes commute with nothing.
    if (!ups.empty()) m = Map::multi_insert(std::move(m), std::move(ups));
    if (!dels.empty()) m = Map::multi_delete(std::move(m), std::move(dels));
  }
};

}  // namespace pam::store
