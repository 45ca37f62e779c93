// Front-coded leaf blocks for variable-length (string) keys.
//
// A sealed block stores n sorted entries as:
//
//   [ header | u32 end[n] | records | V vals[n] ]
//
// where record i is { u16 prefix_len, suffix bytes }: key_i equals the first
// prefix_len bytes of key_{i-1} plus the suffix (record 0 stores the full
// key, prefix_len == 0). end[i] is the offset one past record i inside the
// record region, so record i spans [end[i-1], end[i]) and random access
// costs one directory probe plus a prefix re-derivation. This is the
// PaC-tree difference encoding: consecutive sorted keys share long prefixes
// (URLs, composite keys), so the per-entry cost collapses to
// 4 (dir) + 2 (plen) + |suffix| + sizeof(V) bytes, typically a small
// fraction of a std::string's 32-byte handle alone.
//
// Blocks are refcounted and immutable once sealed — exactly the sharing
// contract of the flat leaf_block — and are allocated from the byte-granular
// quarter-stepped capacity classes of alloc/leaf_pool.h (64 B .. 1 MiB), with
// larger blocks overflowing to individually counted aligned heap
// allocations. This file is part of the sanctioned allocation surface
// (tools/pam_lint.py): the pool-table singletons and the overflow path are
// the only places the encoder touches raw memory.
//
// Values must be trivially copyable (they are stored raw and released
// without destruction); keys must be std::string. Both constraints carry
// contracted diagnostics — see the static_asserts in coded_store and
// node_manager (tests/compile_fail/front_coded_fixed_key.cpp pins the
// message).
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
  uint32_t val_off;  // byte offset of the value array from the block start
  [[no_unique_address]] A aug;

  static constexpr int32_t kOverflowClass = -1;

  static constexpr size_t dir_offset() {
    return (sizeof(coded_block) + 3) / 4 * 4;
  }

  const uint32_t* dir() const {
    return reinterpret_cast<const uint32_t*>(
        reinterpret_cast<const char*>(this) + dir_offset());
  }
  uint32_t* dir() {
    return reinterpret_cast<uint32_t*>(reinterpret_cast<char*>(this) +
                                       dir_offset());
  }
  // Base of the byte-packed record region (immediately after the directory).
  const char* recs() const {
    return reinterpret_cast<const char*>(dir() + count);
  }
  char* recs() { return reinterpret_cast<char*>(dir() + count); }

  const V* vals() const {
    return reinterpret_cast<const V*>(reinterpret_cast<const char*>(this) +
                                      val_off);
  }
  V* vals() { return reinterpret_cast<V*>(reinterpret_cast<char*>(this) + val_off); }

  // Record i's {prefix_len, suffix}; offsets are unaligned, hence memcpy.
  std::pair<uint16_t, std::string_view> record(uint32_t i) const {
    const uint32_t* d = dir();
    uint32_t start = i == 0 ? 0 : d[i - 1];
    uint16_t plen;
    std::memcpy(&plen, recs() + start, sizeof(plen));
    uint32_t suffix_len = d[i] - start - uint32_t{sizeof(uint16_t)};
    return {plen,
            std::string_view(recs() + start + sizeof(uint16_t), suffix_len)};
  }
};

// Storage and codec for front-coded blocks of one Entry type: build/seal,
// retain/release, in-block search and decoding, plus live accounting for
// the space experiments (shared by every balance scheme over the Entry).
template <typename Entry>
struct coded_store {
  using block = coded_block<Entry>;
  using K = typename block::K;
  using V = typename block::V;
  using A = typename block::A;
  using entry_t = typename block::entry_t;
  using traits = entry_traits<Entry>;

  static_assert(std::is_same_v<K, std::string>,
                "PAM leaf-layout contract: key_layout::front_coded requires "
                "key_t = std::string; fixed-width keys must use "
                "key_layout::flat");
  static_assert(std::is_trivially_copyable_v<V>,
                "PAM leaf-layout contract: key_layout::front_coded requires a "
                "trivially copyable val_t (values are stored raw inside "
                "sealed blocks)");
  static_assert(alignof(block) <= alignof(std::max_align_t) &&
                    alignof(V) <= alignof(std::max_align_t),
                "PAM leaf-layout contract: front_coded block and value "
                "alignment must not exceed max_align_t");

  static constexpr size_t kSlotAlign = alignof(std::max_align_t);
  static constexpr uint16_t kMaxPrefix = 0xFFFF;

  // Encode n sorted unique entries (1 <= n) into a fresh sealed block.
  static block* build(const entry_t* es, uint32_t n) {
    // Pass 1: record sizes. The shared prefix is capped at u16 range; a
    // longer common prefix is simply re-stored in the suffix (lossless).
    size_t rec_bytes = 0;
    for (uint32_t i = 0; i < n; i++) {
      rec_bytes += sizeof(uint16_t) + es[i].first.size() - prefix_len(es, i);
    }
    size_t dir_off = block::dir_offset();
    size_t rec_off = dir_off + size_t{n} * sizeof(uint32_t);
    size_t val_off = (rec_off + rec_bytes + alignof(V) - 1) / alignof(V) * alignof(V);
    size_t total = val_off + size_t{n} * sizeof(V);

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
    b->count = n;
    b->cls = cls < kByteClasses ? cls : block::kOverflowClass;
    b->bytes = static_cast<uint32_t>(total);
    b->val_off = static_cast<uint32_t>(val_off);

    // Pass 2: fill directory, records and values.
    uint32_t* d = b->dir();
    char* r = b->recs();
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
    V* vs = b->vals();
    for (uint32_t i = 0; i < n; i++) vs[i] = es[i].second;

    if constexpr (traits::has_aug) {
      new (&b->aug) A(fold_entries_assoc<traits>(es, 0, n));
    } else {
      new (&b->aug) A();
    }
    return b;
  }

  // ------------------------------------------------- serialization hooks --
  // A sealed coded block serializes as its raw encoded region — directory,
  // records and values exactly as laid out in memory, [dir_offset, bytes) —
  // because the front-coded encoding is position-independent past the
  // header. The header fields {count, bytes, val_off} travel in the frame;
  // the augmented value is recomputed on rebuild, never trusted from disk.
  static size_t payload_bytes(const block* b) {
    return size_t{b->bytes} - block::dir_offset();
  }

  static void write_payload(const block* b, char* dst) {
    std::memcpy(dst, reinterpret_cast<const char*>(b) + block::dir_offset(),
                payload_bytes(b));
  }

  // Rebuild a sealed block from its encoded region (`region` holds
  // bytes - dir_offset() bytes). Returns nullptr when the framing is
  // internally inconsistent — directory not strictly increasing, value
  // array not aligned where the record region ends — so a decoder can
  // never be walked outside the slot. CRC checks at the store layer catch
  // torn media; this guards the in-memory decode paths.
  static block* from_payload(const char* region, uint32_t count,
                             uint32_t bytes, uint32_t val_off) {
    const size_t dir_off = block::dir_offset();
    const size_t rec_off = dir_off + size_t{count} * sizeof(uint32_t);
    if (count == 0 || size_t{bytes} < rec_off || size_t{val_off} < rec_off ||
        val_off > bytes ||
        size_t{bytes} - val_off != size_t{count} * sizeof(V) ||
        val_off % alignof(V) != 0) {
      return nullptr;
    }
    // The directory must be strictly increasing (every record carries at
    // least its u16 prefix_len) and stay inside [rec_off, val_off).
    uint32_t prev = 0;
    for (uint32_t i = 0; i < count; i++) {
      uint32_t d;
      std::memcpy(&d, region + size_t{i} * sizeof(uint32_t), sizeof(d));
      if (d < prev + uint32_t{sizeof(uint16_t)} || rec_off + d > val_off) {
        return nullptr;
      }
      prev = d;
    }

    int cls = byte_class_of(bytes);
    block* b;
    if (cls < kByteClasses) {
      b = static_cast<block*>(pool(cls).allocate());
    } else {
      b = static_cast<block*>(
          ::operator new(bytes, std::align_val_t{kSlotAlign}));
      table().overflow_blocks.fetch_add(1, std::memory_order_relaxed);
      table().overflow_bytes.fetch_add(static_cast<int64_t>(bytes),
                                       std::memory_order_relaxed);
    }
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = count;
    b->cls = cls < kByteClasses ? cls : block::kOverflowClass;
    b->bytes = bytes;
    b->val_off = val_off;
    std::memcpy(reinterpret_cast<char*>(b) + dir_off, region,
                size_t{bytes} - dir_off);
    if constexpr (traits::has_aug) {
      std::vector<entry_t> es;
      es.reserve(count);
      decode_all(b, es);
      new (&b->aug) A(fold_entries_assoc<traits>(es.data(), 0, count));
    } else {
      new (&b->aug) A();
    }
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

  // The first key, zero-copy: record 0 stores it whole.
  static std::string_view first_key(const block* b) {
    return b->record(0).second;
  }

  static const V* vals(const block* b) { return b->vals(); }

  // Positional value accessors shared with delta_store (which has no value
  // array to point at), so tree_ops reads values through one name.
  static V first_val(const block* b) { return b->vals()[0]; }
  static V value_at(const block* b, uint32_t i) { return b->vals()[i]; }

  // Append all n entries, keys materialized, onto out.
  static void decode_all(const block* b, std::vector<entry_t>& out) {
    std::string cur;
    const V* vs = b->vals();
    for (uint32_t i = 0; i < b->count; i++) {
      auto [plen, suffix] = b->record(i);
      cur.resize(plen);
      cur.append(suffix);
      out.emplace_back(cur, vs[i]);
    }
  }

  // Entry i, with the key materialized (decodes the prefix chain up to i).
  static entry_t entry_at(const block* b, uint32_t i) {
    std::string cur;
    for (uint32_t j = 0; j <= i; j++) {
      auto [plen, suffix] = b->record(j);
      cur.resize(plen);
      cur.append(suffix);
    }
    return {std::move(cur), b->vals()[i]};
  }

  // First slot i with !(key_i < k); *eq reports key_i == k. Incremental
  // decode: each step re-derives only the suffix on top of the running key.
  static uint32_t lower_idx(const block* b, std::string_view k, bool* eq) {
    std::string cur;
    for (uint32_t i = 0; i < b->count; i++) {
      auto [plen, suffix] = b->record(i);
      cur.resize(plen);
      cur.append(suffix);
      if (!Entry::comp(std::string_view(cur), k)) {
        if (eq != nullptr) *eq = !Entry::comp(k, std::string_view(cur));
        return i;
      }
    }
    if (eq != nullptr) *eq = false;
    return b->count;
  }

  // First slot i with k < key_i.
  static uint32_t upper_idx(const block* b, std::string_view k) {
    std::string cur;
    for (uint32_t i = 0; i < b->count; i++) {
      auto [plen, suffix] = b->record(i);
      cur.resize(plen);
      cur.append(suffix);
      if (Entry::comp(k, std::string_view(cur))) return i;
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

}  // namespace pam
