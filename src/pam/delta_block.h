// Delta coding for integral keys (key_layout::delta): the codec that
// coded_store (pam/coded_block.h) runs for the delta layout.
//
//   key region   = key varints | (zero pad)
//   value region = value varints, or V vals[n]
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
// Keys must be integral (the difference encoding is defined on unsigned
// wrap-around arithmetic); node_manager static_asserts it
// (tests/compile_fail/delta_string_key.cpp pins the message).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "pam/coded_block.h"

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
struct delta_codec {
  using block = coded_block<Entry>;
  using K = typename block::K;
  using V = typename block::V;
  using entry_t = typename block::entry_t;
  using key_view = K;

  using UK = std::make_unsigned_t<K>;
  using SK = std::make_signed_t<K>;
  // Integral values ride the varint stream; anything else is a raw array.
  static constexpr bool kPackedVals = std::is_integral_v<V>;
  static constexpr size_t kValAlign = kPackedVals ? 1 : alignof(V);

  static size_t key_bytes(const entry_t* es, uint32_t n) {
    size_t total = 0;
    for (uint32_t i = 0; i < n; i++) total += vint::length(key_code(es, i));
    return total;
  }

  static size_t val_bytes(const entry_t* es, uint32_t n) {
    if constexpr (kPackedVals) {
      size_t total = 0;
      for (uint32_t i = 0; i < n; i++) {
        total += vint::length(val_code(es[i].second));
      }
      return total;
    } else {
      return size_t{n} * sizeof(V);
    }
  }

  static void fill(char* keys, char* vals, const entry_t* es, uint32_t n) {
    for (uint32_t i = 0; i < n; i++) keys = vint::put(keys, key_code(es, i));
    if constexpr (kPackedVals) {
      for (uint32_t i = 0; i < n; i++) vals = vint::put(vals, val_code(es[i].second));
    } else {
      V* vs = reinterpret_cast<V*>(vals);
      for (uint32_t i = 0; i < n; i++) vs[i] = es[i].second;
    }
  }

  // An untrusted region: count canonical key varints, then only zero
  // padding (less than one alignment step) up to the value region, which
  // must hold exactly count values.
  static bool valid(const char* keys, uint32_t count, size_t key_len,
                    size_t val_len) {
    if (key_len < count) return false;
    if constexpr (!kPackedVals) {
      if (val_len != size_t{count} * sizeof(V)) return false;
    }
    const char* p = keys;
    const char* key_end = keys + key_len;
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      p = vint::get_checked(p, key_end, u);
      if (p == nullptr) return false;
    }
    if (size_t(key_end - p) >= kValAlign) return false;
    for (; p != key_end; p++) {
      if (*p != 0) return false;
    }
    if constexpr (kPackedVals) {
      const char* val_end = key_end + val_len;
      for (uint32_t i = 0; i < count; i++) {
        uint64_t u;
        p = vint::get_checked(p, val_end, u);
        if (p == nullptr) return false;
      }
      if (p != val_end) return false;
    }
    return true;
  }

  // One step adds one decoded delta to the running key.
  class decoder {
   public:
    explicit decoder(const block* b) : kp_(b->keys()), vp_(b->vals()) {}
    void step() {
      uint64_t u;
      kp_ = vint::get(kp_, u);
      cur_ = UK(key_step(cur_, u, i_++));
    }
    key_view key() const { return static_cast<K>(cur_); }
    // Values in slot order, one per call.
    V next_value() {
      if constexpr (kPackedVals) {
        uint64_t u;
        vp_ = vint::get(vp_, u);
        return val_decode(u);
      } else {
        V v = *reinterpret_cast<const V*>(vp_);
        vp_ += sizeof(V);
        return v;
      }
    }

   private:
    const char* kp_;
    const char* vp_;
    UK cur_ = 0;
    uint32_t i_ = 0;
  };

  // The base key — varint 0 decoded, no chain walk.
  static key_view first_key(const block* b) {
    decoder d(b);
    d.step();
    return d.key();
  }

  // Value of slot i (walks the packed stream; indexes the raw array).
  static V value_at(const block* b, uint32_t i) {
    if constexpr (kPackedVals) {
      const char* p = b->vals();
      uint64_t u = 0;
      for (uint32_t j = 0; j <= i; j++) p = vint::get(p, u);
      return val_decode(u);
    } else {
      return reinterpret_cast<const V*>(b->vals())[i];
    }
  }

 private:
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
};

}  // namespace pam
