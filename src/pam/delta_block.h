// Delta-coded leaf blocks for integral keys.
//
// A sealed block stores n sorted entries as:
//
//   [ header | key varints | (pad) | value stream ]
//
// The key stream is PaC-tree difference encoding for the fixed-width case:
// varint 0 is the full base key (plain varint for unsigned key types, zigzag
// for signed), and varint i >= 1 is the zigzag encoding of the difference
// key_i - key_{i-1}, computed in the key's unsigned width and sign-extended —
// so ascending runs of nearby keys cost one or two bytes each, and a custom
// (e.g. descending) comparator still round-trips exactly through the
// two's-complement wrap. Integral values are varint-packed into the trailing
// stream the same way (zigzag iff signed); any other trivially copyable
// value type is stored as a raw aligned array at val_off, exactly like the
// flat and front-coded layouts. Against a flat 16-byte {u64, u64} pair slot,
// dense keys with small values collapse to ~2-4 bytes per entry.
//
// Blocks are refcounted and immutable once sealed — the sharing contract of
// the flat leaf_block — and draw from the quarter-stepped byte capacity
// classes of alloc/leaf_pool.h, with larger blocks overflowing to
// individually counted aligned heap allocations. This file is part of the
// sanctioned allocation surface (tools/pam_lint.py).
//
// Keys must be integral (the difference encoding is defined on unsigned
// wrap-around arithmetic); values must be trivially copyable. Both
// constraints carry contracted diagnostics — see the static_asserts in
// delta_store and node_manager (tests/compile_fail/delta_string_key.cpp pins
// the message).
//
// delta_store deliberately mirrors coded_store's whole surface (build /
// payload hooks / retain / release / first_key / decode_all / entry_at /
// lower_idx / upper_idx / accounting) plus value_at, so node_manager,
// tree_ops, the iterator and map_codec dispatch to either store through one
// `lstore` alias and the serializer's kCodedRaw record kind carries both.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/leaf_pool.h"
#include "pam/entry_traits.h"
#include "util/thread_annotations.h"

namespace pam {

// LEB128-style varints with zigzag mapping for signed differences. The
// checked decoder is only used on untrusted (deserialized) bytes; in-memory
// blocks are validated once at from_payload and walked unchecked after.
namespace vint {

inline constexpr size_t kMaxLen = 10;  // 64 payload bits / 7 bits per byte

constexpr uint64_t zigzag(int64_t v) {
  return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

constexpr int64_t unzigzag(uint64_t u) {
  return int64_t(u >> 1) ^ -int64_t(u & 1);
}

constexpr size_t length(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

inline char* put(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Trusted decode: the stream was validated when the block was sealed or
// rebuilt, so no bounds checks on the hot read path.
inline const char* get(const char* p, uint64_t& out) {
  uint64_t v = uint64_t(uint8_t(*p++));
  if (v < 0x80) {
    out = v;
    return p;
  }
  v &= 0x7F;
  for (int shift = 7;; shift += 7) {
    uint64_t byte = uint64_t(uint8_t(*p++));
    v |= (byte & 0x7F) << shift;
    if (byte < 0x80) break;
  }
  out = v;
  return p;
}

// Untrusted decode: nullptr on truncation, on a varint longer than ten
// bytes, or on bits past the 64th — so a corrupted stream can never walk
// the decoder outside the frame or round-trip to different bytes.
inline const char* get_checked(const char* p, const char* end, uint64_t& out) {
  uint64_t v = 0;
  for (size_t i = 0; i < kMaxLen; i++) {
    if (p == end) return nullptr;
    uint64_t byte = uint64_t(uint8_t(*p++));
    if (i == 9 && byte > 0x01) return nullptr;  // overflow past bit 63
    v |= (byte & 0x7F) << (7 * i);
    if (byte < 0x80) {
      // Reject non-canonical zero padding ("overlong" encodings) so every
      // value has exactly one byte representation and payload_bytes stays
      // a pure function of the entries.
      if (byte == 0 && i > 0) return nullptr;
      out = v;
      return p;
    }
  }
  return nullptr;
}

}  // namespace vint

template <typename Entry>
struct delta_block {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename entry_traits<Entry>::aug_t;
  using entry_t = std::pair<K, V>;

  std::atomic<uint32_t> ref_cnt;
  uint32_t count;
  int32_t cls;       // byte class; kOverflowClass for heap-allocated blocks
  uint32_t bytes;    // exact encoded footprint (accounting for overflow)
  uint32_t val_off;  // byte offset of the value stream from the block start
  [[no_unique_address]] A aug;

  static constexpr int32_t kOverflowClass = -1;

  static constexpr size_t dir_offset() {
    return (sizeof(delta_block) + 3) / 4 * 4;
  }

  // Base of the key varint stream (immediately after the header).
  const char* keys() const {
    return reinterpret_cast<const char*>(this) + dir_offset();
  }
  char* keys() { return reinterpret_cast<char*>(this) + dir_offset(); }

  const char* val_stream() const {
    return reinterpret_cast<const char*>(this) + val_off;
  }
  char* val_stream() { return reinterpret_cast<char*>(this) + val_off; }
};

// Storage and codec for delta-coded blocks of one Entry type: build/seal,
// retain/release, in-block search and decoding, plus live accounting for
// the space experiments (shared by every balance scheme over the Entry).
template <typename Entry>
struct delta_store {
  using block = delta_block<Entry>;
  using K = typename block::K;
  using V = typename block::V;
  using A = typename block::A;
  using entry_t = typename block::entry_t;
  using traits = entry_traits<Entry>;

  static_assert(std::is_integral_v<K>,
                "PAM leaf-layout contract: key_layout::delta requires an "
                "integral key_t (the difference encoding is defined on "
                "unsigned wrap-around arithmetic); string keys must use "
                "key_layout::front_coded");
  static_assert(std::is_trivially_copyable_v<V>,
                "PAM leaf-layout contract: key_layout::delta requires a "
                "trivially copyable val_t (values are stored raw inside "
                "sealed blocks)");
  static_assert(alignof(block) <= alignof(std::max_align_t) &&
                    alignof(V) <= alignof(std::max_align_t),
                "PAM leaf-layout contract: delta block and value alignment "
                "must not exceed max_align_t");

  static constexpr size_t kSlotAlign = alignof(std::max_align_t);

  using UK = std::make_unsigned_t<K>;
  using SK = std::make_signed_t<K>;
  // Integral values ride the varint stream; anything else is a raw array.
  static constexpr bool kPackedVals = std::is_integral_v<V>;
  static constexpr size_t kValAlign = kPackedVals ? 1 : alignof(V);

  // Varint code for key i: the base key whole, then successor differences
  // in the key's unsigned width, sign-extended into zigzag — close keys
  // yield small codes under ascending *or* descending comparators.
  static uint64_t key_code(const entry_t* es, uint32_t i) {
    if (i == 0) {
      if constexpr (std::is_signed_v<K>) {
        return vint::zigzag(int64_t(es[0].first));
      } else {
        return uint64_t(UK(es[0].first));
      }
    }
    UK d = UK(UK(es[i].first) - UK(es[i - 1].first));
    return vint::zigzag(int64_t(SK(d)));
  }

  static uint64_t val_code(const V& v) {
    if constexpr (std::is_signed_v<V>) {
      return vint::zigzag(int64_t(v));
    } else {
      return uint64_t(v);
    }
  }

  static V val_decode(uint64_t u) {
    if constexpr (std::is_signed_v<V>) {
      return static_cast<V>(vint::unzigzag(u));
    } else {
      return static_cast<V>(u);
    }
  }

  // Advance the running key by one decoded delta (entry 0 = the base key).
  static K key_step(UK prev, uint64_t code, uint32_t i) {
    if (i == 0) {
      if constexpr (std::is_signed_v<K>) {
        return static_cast<K>(vint::unzigzag(code));
      } else {
        return static_cast<K>(UK(code));
      }
    }
    return static_cast<K>(UK(prev + UK(vint::unzigzag(code))));
  }

  // Encode n sorted unique entries (1 <= n) into a fresh sealed block.
  static block* build(const entry_t* es, uint32_t n) {
    // Pass 1: stream sizes.
    size_t key_bytes = 0;
    for (uint32_t i = 0; i < n; i++) key_bytes += vint::length(key_code(es, i));
    size_t key_off = block::dir_offset();
    size_t val_off = (key_off + key_bytes + kValAlign - 1) / kValAlign * kValAlign;
    size_t val_bytes;
    if constexpr (kPackedVals) {
      val_bytes = 0;
      for (uint32_t i = 0; i < n; i++) {
        val_bytes += vint::length(val_code(es[i].second));
      }
    } else {
      val_bytes = size_t{n} * sizeof(V);
    }
    size_t total = val_off + val_bytes;

    block* b = allocate(total);
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = n;
    b->bytes = static_cast<uint32_t>(total);
    b->val_off = static_cast<uint32_t>(val_off);

    // Pass 2: fill the streams (plus the alignment pad, so the serialized
    // raw region is deterministic).
    char* p = b->keys();
    for (uint32_t i = 0; i < n; i++) p = vint::put(p, key_code(es, i));
    while (p != b->val_stream()) *p++ = 0;
    if constexpr (kPackedVals) {
      for (uint32_t i = 0; i < n; i++) p = vint::put(p, val_code(es[i].second));
    } else {
      V* vs = reinterpret_cast<V*>(b->val_stream());
      for (uint32_t i = 0; i < n; i++) vs[i] = es[i].second;
    }

    if constexpr (traits::has_aug) {
      new (&b->aug) A(fold_entries_assoc<traits>(es, 0, n));
    } else {
      new (&b->aug) A();
    }
    return b;
  }

  // ------------------------------------------------- serialization hooks --
  // A sealed delta block serializes as its raw encoded region — key stream,
  // pad and value stream exactly as laid out in memory, [dir_offset, bytes)
  // — because the encoding is position-independent past the header. The
  // header fields {count, bytes, val_off} travel in the frame; the augmented
  // value is recomputed on rebuild, never trusted from disk.
  static size_t payload_bytes(const block* b) {
    return size_t{b->bytes} - block::dir_offset();
  }

  static void write_payload(const block* b, char* dst) {
    std::memcpy(dst, reinterpret_cast<const char*>(b) + block::dir_offset(),
                payload_bytes(b));
  }

  // Rebuild a sealed block from its encoded region (`region` holds
  // bytes - dir_offset() bytes). Returns nullptr when the framing is
  // internally inconsistent — a truncated or overlong varint, streams that
  // do not consume exactly their regions, a misaligned raw value array — so
  // a decoder can never be walked outside the slot. Key *ordering* is the
  // serializer's check (map_codec re-compares decoded keys); this guards
  // the in-memory decode paths.
  static block* from_payload(const char* region, uint32_t count,
                             uint32_t bytes, uint32_t val_off) {
    const size_t dir_off = block::dir_offset();
    if (count == 0 || size_t{val_off} < dir_off + count || val_off > bytes ||
        val_off % kValAlign != 0) {
      return nullptr;
    }
    if constexpr (!kPackedVals) {
      if (size_t{bytes} - val_off != size_t{count} * sizeof(V)) return nullptr;
    }
    // Walk the key stream: count varints, then only zero padding up to the
    // value offset (and strictly less than one alignment step of it).
    const char* p = region;
    const char* key_end = region + (val_off - dir_off);
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      p = vint::get_checked(p, key_end, u);
      if (p == nullptr) return nullptr;
    }
    if (size_t(key_end - p) >= kValAlign) return nullptr;
    for (; p != key_end; p++) {
      if (*p != 0) return nullptr;
    }
    if constexpr (kPackedVals) {
      const char* val_end = region + (bytes - dir_off);
      for (uint32_t i = 0; i < count; i++) {
        uint64_t u;
        p = vint::get_checked(p, val_end, u);
        if (p == nullptr) return nullptr;
      }
      if (p != val_end) return nullptr;
    }

    block* b = allocate(bytes);
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = count;
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

  // The base key — varint 0 decoded, no chain walk.
  static K first_key(const block* b) {
    uint64_t u;
    vint::get(b->keys(), u);
    return key_step(UK{0}, u, 0);
  }

  static V first_val(const block* b) { return value_at(b, 0); }

  // Value of slot i (walks the packed stream; indexes the raw array).
  static V value_at(const block* b, uint32_t i) {
    if constexpr (kPackedVals) {
      const char* p = b->val_stream();
      uint64_t u = 0;
      for (uint32_t j = 0; j <= i; j++) p = vint::get(p, u);
      return val_decode(u);
    } else {
      return reinterpret_cast<const V*>(b->val_stream())[i];
    }
  }

  // Append all n entries, keys and values materialized, onto out.
  static void decode_all(const block* b, std::vector<entry_t>& out) {
    const char* kp = b->keys();
    UK cur = 0;
    if constexpr (kPackedVals) {
      const char* vp = b->val_stream();
      for (uint32_t i = 0; i < b->count; i++) {
        uint64_t ku, vu;
        kp = vint::get(kp, ku);
        vp = vint::get(vp, vu);
        cur = UK(key_step(cur, ku, i));
        out.emplace_back(static_cast<K>(cur), val_decode(vu));
      }
    } else {
      const V* vs = reinterpret_cast<const V*>(b->val_stream());
      for (uint32_t i = 0; i < b->count; i++) {
        uint64_t ku;
        kp = vint::get(kp, ku);
        cur = UK(key_step(cur, ku, i));
        out.emplace_back(static_cast<K>(cur), vs[i]);
      }
    }
  }

  // Entry i, decoding the delta chain up to i.
  static entry_t entry_at(const block* b, uint32_t i) {
    const char* kp = b->keys();
    UK cur = 0;
    for (uint32_t j = 0; j <= i; j++) {
      uint64_t ku;
      kp = vint::get(kp, ku);
      cur = UK(key_step(cur, ku, j));
    }
    return {static_cast<K>(cur), value_at(b, i)};
  }

  // First slot i with !(key_i < k); *eq reports key_i == k. Incremental
  // decode: each step adds one delta to the running key.
  static uint32_t lower_idx(const block* b, const K& k, bool* eq) {
    const char* kp = b->keys();
    UK cur = 0;
    for (uint32_t i = 0; i < b->count; i++) {
      uint64_t ku;
      kp = vint::get(kp, ku);
      cur = UK(key_step(cur, ku, i));
      K key = static_cast<K>(cur);
      if (!Entry::comp(key, k)) {
        if (eq != nullptr) *eq = !Entry::comp(k, key);
        return i;
      }
    }
    if (eq != nullptr) *eq = false;
    return b->count;
  }

  // First slot i with k < key_i.
  static uint32_t upper_idx(const block* b, const K& k) {
    const char* kp = b->keys();
    UK cur = 0;
    for (uint32_t i = 0; i < b->count; i++) {
      uint64_t ku;
      kp = vint::get(kp, ku);
      cur = UK(key_step(cur, ku, i));
      if (Entry::comp(k, static_cast<K>(cur))) return i;
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
  // Pool slot or counted overflow allocation for a `total`-byte block; sets
  // cls (the only header field tied to the allocation).
  static block* allocate(size_t total) {
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
    b->cls = cls < kByteClasses ? cls : block::kOverflowClass;
    return b;
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
