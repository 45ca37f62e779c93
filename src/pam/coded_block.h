// Byte-coded leaf blocks: one block header and one store for every layout
// that encodes its entries into bytes, plus the front-coding codec for
// string keys (the delta codec for integral keys is pam/delta_block.h).
//
// A sealed coded block stores n sorted entries in one byte-granular slot:
//
//   [ header | key region | (zero pad) | value region ]
//
// Everything about the slot is coded_store's: allocation from the
// quarter-stepped byte capacity classes of alloc/leaf_pool.h (64 B .. 1 MiB)
// with larger blocks overflowing to individually counted aligned heap
// allocations, refcounted sharing (blocks are immutable once sealed —
// exactly the sharing contract of the flat leaf_block), the raw-region
// serialization hooks, in-block search and decoding, and live accounting.
// What the bytes mean is the codec's. A codec sizes and fills the key and
// value regions, validates an untrusted region, decodes one key per step
// (its `decoder`), and reads one value by position. node_manager picks the
// codec from the Entry's key_layout trait (pam/node.h).
//
// This file is part of the sanctioned allocation surface
// (tools/pam_lint.py): the pool-table singletons and the overflow path are
// the only places the encoder touches raw memory.
//
// The layout/type contract (string keys for front coding, integral keys for
// delta coding, trivially copyable values stored raw) is static_asserted
// once, in node_manager; tests/compile_fail/ pins its messages.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/leaf_pool.h"
#include "pam/entry_traits.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Entry>
struct coded_block {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename entry_traits<Entry>::aug_t;
  using entry_t = std::pair<K, V>;

  std::atomic<uint32_t> ref_cnt;
  uint32_t count;
  int32_t cls;       // byte class; kOverflowClass for heap-allocated blocks
  uint32_t bytes;    // exact encoded footprint (accounting for overflow)
  uint32_t val_off;  // byte offset of the value region from the block start
  [[no_unique_address]] A aug;

  static constexpr int32_t kOverflowClass = -1;

  // Offset of the key region, 4-byte aligned for front coding's directory.
  static constexpr size_t dir_offset() {
    return (sizeof(coded_block) + 3) / 4 * 4;
  }

  const char* keys() const {
    return reinterpret_cast<const char*>(this) + dir_offset();
  }
  char* keys() { return reinterpret_cast<char*>(this) + dir_offset(); }

  const char* vals() const {
    return reinterpret_cast<const char*>(this) + val_off;
  }
  char* vals() { return reinterpret_cast<char*>(this) + val_off; }
};

// Storage for the coded blocks of one Entry type under one Codec: build /
// seal, retain / release, in-block search and decoding, plus live
// accounting for the space experiments (shared by every balance scheme
// over the Entry).
template <typename Entry, typename Codec>
struct coded_store {
  using block = coded_block<Entry>;
  using K = typename block::K;
  using V = typename block::V;
  using A = typename block::A;
  using entry_t = typename block::entry_t;
  using traits = entry_traits<Entry>;
  // What search takes and the decoder yields: std::string_view for string
  // keys (compared without materializing), the key itself for integers.
  using key_view = typename Codec::key_view;

  static constexpr size_t kSlotAlign = alignof(std::max_align_t);

  // Encode n sorted unique entries (1 <= n) into a fresh sealed block.
  static block* build(const entry_t* es, uint32_t n) {
    size_t key_end = block::dir_offset() + Codec::key_bytes(es, n);
    size_t val_off =
        (key_end + Codec::kValAlign - 1) / Codec::kValAlign * Codec::kValAlign;
    block* b = allocate(n, val_off + Codec::val_bytes(es, n), val_off);
    // Zero the alignment pad, so the serialized raw region is deterministic.
    std::memset(reinterpret_cast<char*>(b) + key_end, 0, val_off - key_end);
    Codec::fill(b->keys(), b->vals(), es, n);
    seal(b, es);
    return b;
  }

  // ------------------------------------------------- serialization hooks --
  // A sealed coded block serializes as its raw encoded region — key region,
  // pad and value region exactly as laid out in memory, [dir_offset, bytes)
  // — because every codec's encoding is position-independent past the
  // header. The header fields {count, bytes, val_off} travel in the frame;
  // the augmented value is recomputed on rebuild, never trusted from disk.
  static constexpr bool raw_payload = true;

  static size_t payload_bytes(const block* b) {
    return size_t{b->bytes} - block::dir_offset();
  }

  static void write_payload(const block* b, char* dst) {
    std::memcpy(dst, b->keys(), payload_bytes(b));
  }

  // Rebuild a sealed block from its encoded region (`region` holds
  // bytes - dir_offset() bytes). Returns nullptr when the framing is
  // internally inconsistent (the codec's checks: a front-coding directory
  // that is not strictly increasing, a truncated or overlong varint, a
  // misaligned or mis-sized value region), so a decoder can never be
  // walked outside the slot. Key *ordering* is the serializer's check
  // (map_codec re-compares decoded keys). CRC checks at the store layer
  // catch torn media; this guards the in-memory decode paths.
  static block* from_payload(const char* region, uint32_t count,
                             uint32_t bytes, uint32_t val_off) {
    const size_t dir_off = block::dir_offset();
    if (count == 0 || val_off < dir_off || val_off > bytes ||
        val_off % Codec::kValAlign != 0 ||
        !Codec::valid(region, count, val_off - dir_off, bytes - val_off)) {
      return nullptr;
    }
    block* b = allocate(count, bytes, val_off);
    std::memcpy(b->keys(), region, size_t{bytes} - dir_off);
    std::vector<entry_t> es;
    if constexpr (traits::has_aug) {
      es.reserve(count);
      decode_all(b, es);
    }
    seal(b, es.data());
    return b;
  }

  static block* retain(block* b) {
    b->ref_cnt.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  static void release(block* b) {
    if (b->ref_cnt.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    b->aug.~A();  // keys are encoded bytes and values trivially copyable
    if (b->cls != block::kOverflowClass) {
      pool(b->cls).deallocate(b);
    } else {
      size_t total = b->bytes;
      ::operator delete(b, std::align_val_t{kSlotAlign});
      table().overflow_blocks.fetch_sub(1, std::memory_order_relaxed);
      table().overflow_bytes.fetch_sub(static_cast<int64_t>(total),
                                       std::memory_order_relaxed);
    }
  }

  // ------------------------------------------------------------- reading --
  // Point reads walk the codec's decoder from slot 0: each step derives one
  // key from its predecessor, so slot i costs i + 1 steps.

  static key_view first_key(const block* b) { return Codec::first_key(b); }
  static V first_val(const block* b) { return Codec::value_at(b, 0); }
  static V value_at(const block* b, uint32_t i) { return Codec::value_at(b, i); }

  // Append all n entries, keys and values materialized, onto out.
  static void decode_all(const block* b, std::vector<entry_t>& out) {
    typename Codec::decoder d(b);
    for (uint32_t i = 0; i < b->count; i++) {
      d.step();
      out.emplace_back(K(d.key()), d.next_value());
    }
  }

  // Entry i, decoding the key chain up to i.
  static entry_t entry_at(const block* b, uint32_t i) {
    typename Codec::decoder d(b);
    for (uint32_t j = 0; j <= i; j++) d.step();
    return {K(d.key()), Codec::value_at(b, i)};
  }

  // First slot i with !(key_i < k); *eq reports key_i == k.
  static uint32_t lower_idx(const block* b, key_view k, bool* eq) {
    typename Codec::decoder d(b);
    for (uint32_t i = 0; i < b->count; i++) {
      d.step();
      if (!Entry::comp(d.key(), k)) {
        if (eq != nullptr) *eq = !Entry::comp(k, d.key());
        return i;
      }
    }
    if (eq != nullptr) *eq = false;
    return b->count;
  }

  // First slot i with k < key_i.
  static uint32_t upper_idx(const block* b, key_view k) {
    typename Codec::decoder d(b);
    for (uint32_t i = 0; i < b->count; i++) {
      d.step();
      if (Entry::comp(k, d.key())) return i;
    }
    return b->count;
  }

  // -------------------------------------------------------- accounting --

  // Live blocks / bytes across all maps of this Entry type (Table 4). Bytes
  // count full slot footprints, the same accounting basis as leaf_store.
  static int64_t used_blocks() {
    int64_t total = table().overflow_blocks.load(std::memory_order_relaxed);
    for (int c = 0; c < kByteClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used();
    }
    return total;
  }

  static int64_t used_bytes() {
    int64_t total = table().overflow_bytes.load(std::memory_order_relaxed);
    for (int c = 0; c < kByteClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used() * static_cast<int64_t>(p->slot_bytes());
    }
    return total;
  }

 private:
  // A pool slot, or a counted overflow allocation, for a `total`-byte block
  // with its header initialized; regions and aug are left raw.
  static block* allocate(uint32_t count, size_t total, size_t val_off) {
    int cls = byte_class_of(total);
    block* b;
    if (cls < kByteClasses) {
      b = static_cast<block*>(pool(cls).allocate());
    } else {
      b = static_cast<block*>(
          ::operator new(total, std::align_val_t{kSlotAlign}));
      table().overflow_blocks.fetch_add(1, std::memory_order_relaxed);
      table().overflow_bytes.fetch_add(static_cast<int64_t>(total),
                                       std::memory_order_relaxed);
    }
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = count;
    b->cls = cls < kByteClasses ? cls : block::kOverflowClass;
    b->bytes = static_cast<uint32_t>(total);
    b->val_off = static_cast<uint32_t>(val_off);
    return b;
  }

  // Cache the block's augmented value over its entries es[0, count).
  static void seal(block* b, const entry_t* es) {
    if constexpr (traits::has_aug) {
      new (&b->aug) A(fold_entries_assoc<traits>(es, 0, b->count));
    } else {
      new (&b->aug) A();
    }
  }

  struct pool_table {
    // pam-lint: allow(unguarded-mutex) — mu serializes pool *creation*
    // only; the pools themselves are published through the atomics and
    // read lock-free (double-checked init in pool() below), so there is
    // no member for GUARDED_BY to name.
    mutex mu;
    std::array<std::atomic<raw_pool*>, kByteClasses> pools{};
    std::atomic<int64_t> overflow_blocks{0};
    std::atomic<int64_t> overflow_bytes{0};
  };

  static pool_table& table() {
    static pool_table* t = new pool_table();  // immortal
    return *t;
  }

  static raw_pool& pool(int cls) {
    pool_table& t = table();
    raw_pool* p = t.pools[cls].load(std::memory_order_acquire);
    if (p == nullptr) {
      mutex_guard lock(t.mu);
      p = t.pools[cls].load(std::memory_order_relaxed);
      if (p == nullptr) {
        p = new raw_pool(byte_class_slot(cls), kSlotAlign);  // immortal
        t.pools[cls].store(p, std::memory_order_release);
      }
    }
    return *p;
  }
};

// ------------------------------------------------------------ front coding --

// Front coding for std::string keys (key_layout::front_coded):
//
//   key region   = [ u32 end[n] | records ]
//   value region = V vals[n]
//
// where record i is { u16 prefix_len, suffix bytes }: key_i equals the
// first prefix_len bytes of key_{i-1} plus the suffix (record 0 stores the
// full key, prefix_len == 0). end[i] is the offset one past record i inside
// the record area, so record i spans [end[i-1], end[i]). This is the
// PaC-tree difference encoding: consecutive sorted keys share long prefixes
// (URLs, composite keys), so the per-entry cost collapses to
// 4 (dir) + 2 (plen) + |suffix| + sizeof(V) bytes, typically a small
// fraction of a std::string's 32-byte handle alone.
template <typename Entry>
struct front_codec {
  using block = coded_block<Entry>;
  using V = typename block::V;
  using entry_t = typename block::entry_t;
  using key_view = std::string_view;

  static constexpr size_t kValAlign = alignof(V);
  static constexpr uint16_t kMaxPrefix = 0xFFFF;

  // The shared prefix is capped at u16 range; a longer common prefix is
  // simply re-stored in the suffix (lossless).
  static size_t key_bytes(const entry_t* es, uint32_t n) {
    size_t total = size_t{n} * sizeof(uint32_t);
    for (uint32_t i = 0; i < n; i++) {
      total += sizeof(uint16_t) + es[i].first.size() - prefix_len(es, i);
    }
    return total;
  }

  static size_t val_bytes(const entry_t*, uint32_t n) {
    return size_t{n} * sizeof(V);
  }

  static void fill(char* keys, char* vals, const entry_t* es, uint32_t n) {
    uint32_t* d = reinterpret_cast<uint32_t*>(keys);
    char* r = keys + size_t{n} * sizeof(uint32_t);
    uint32_t off = 0;
    for (uint32_t i = 0; i < n; i++) {
      uint16_t plen = prefix_len(es, i);
      std::memcpy(r + off, &plen, sizeof(plen));
      off += uint32_t{sizeof(uint16_t)};
      size_t suffix = es[i].first.size() - plen;
      std::memcpy(r + off, es[i].first.data() + plen, suffix);
      off += static_cast<uint32_t>(suffix);
      d[i] = off;
    }
    V* vs = reinterpret_cast<V*>(vals);
    for (uint32_t i = 0; i < n; i++) vs[i] = es[i].second;
  }

  // An untrusted region: the directory must be strictly increasing (every
  // record carries at least its u16 prefix_len) and stay inside the key
  // region; the value region must hold exactly count values.
  static bool valid(const char* keys, uint32_t count, size_t key_len,
                    size_t val_len) {
    const size_t dir_len = size_t{count} * sizeof(uint32_t);
    if (key_len < dir_len || val_len != size_t{count} * sizeof(V)) return false;
    uint32_t prev = 0;
    for (uint32_t i = 0; i < count; i++) {
      uint32_t d;
      std::memcpy(&d, keys + size_t{i} * sizeof(uint32_t), sizeof(d));
      if (d < prev + uint32_t{sizeof(uint16_t)} || dir_len + d > key_len) {
        return false;
      }
      prev = d;
    }
    return true;
  }

  // One step re-derives only the suffix on top of the running key.
  class decoder {
   public:
    explicit decoder(const block* b) : b_(b) {}
    void step() {
      auto [plen, suffix] = record(b_, i_++);
      cur_.resize(plen);
      cur_.append(suffix);
    }
    key_view key() const { return cur_; }
    // Values in slot order, one per call.
    V next_value() { return vals(b_)[v_++]; }

   private:
    const block* b_;
    uint32_t i_ = 0;
    uint32_t v_ = 0;
    std::string cur_;
  };

  // The first key, zero-copy: record 0 stores it whole.
  static key_view first_key(const block* b) { return record(b, 0).second; }

  static V value_at(const block* b, uint32_t i) { return vals(b)[i]; }

 private:
  // Record i's {prefix_len, suffix}; offsets are unaligned, hence memcpy.
  static std::pair<uint16_t, std::string_view> record(const block* b,
                                                      uint32_t i) {
    const uint32_t* d = reinterpret_cast<const uint32_t*>(b->keys());
    const char* r = b->keys() + size_t{b->count} * sizeof(uint32_t);
    uint32_t start = i == 0 ? 0 : d[i - 1];
    uint16_t plen;
    std::memcpy(&plen, r + start, sizeof(plen));
    uint32_t suffix_len = d[i] - start - uint32_t{sizeof(uint16_t)};
    return {plen, std::string_view(r + start + sizeof(uint16_t), suffix_len)};
  }

  static const V* vals(const block* b) {
    return reinterpret_cast<const V*>(b->vals());
  }

  // Length of the prefix of es[i].first shared with es[i-1].first, capped at
  // the u16 record field (0 for the block's first key).
  static uint16_t prefix_len(const entry_t* es, uint32_t i) {
    if (i == 0) return 0;
    const std::string& prev = es[i - 1].first;
    const std::string& cur = es[i].first;
    size_t lim = prev.size() < cur.size() ? prev.size() : cur.size();
    if (lim > kMaxPrefix) lim = kMaxPrefix;
    size_t p = 0;
    while (p < lim && prev[p] == cur[p]) p++;
    return static_cast<uint16_t>(p);
  }
};

}  // namespace pam
