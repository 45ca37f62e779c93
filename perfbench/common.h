// Shared pieces of the repository benchmark: arguments, a fine-grained
// latency histogram, the span tracer, metric reporting and helpers for
// reading the library's own metrics scrape.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"

namespace bench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test knobs: `tiny` shrinks every size so a run takes a second;
  // `corrupt` perturbs one expected value so the output checks must fail.
  bool tiny = false;
  bool corrupt = false;
  std::string work_dir = ".";  // WAL directories and the trace file go here
};

// Set-up is repeated at least 3 times, and up to 25 times until 2 s of it
// have run; the median is reported. A short set-up on a shared host needs
// more repetitions than a long one to repeat from run to run.
inline bool more_setups(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 25);
}

// Median of a sample (by copy); 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(),
                                v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

// Nearest-rank quantile of a sample (by copy); 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// Log-linear latency histogram in nanoseconds: 64 linear sub-buckets per
// power of two, so a quantile is within 1/64 (1.6%) of the true sample.
// One per client and slice of the timed phase; merged after the run.
class lat_hist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = 64 * kSub;

  lat_hist() : counts_(kBuckets, 0) {}

  void record(uint64_t ns) {
    counts_[bucket_of(ns)]++;
    n_++;
  }
  uint64_t count() const { return n_; }

  void merge(const lat_hist& o) {
    for (size_t b = 0; b < kBuckets; b++) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }

  // q in [0, 1]; linear interpolation inside the bucket holding rank q·n.
  double quantile_ns(double q) const {
    if (n_ == 0) return 0.0;
    double rank = q * static_cast<double>(n_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; b++) {
      if (counts_[b] == 0) continue;
      uint64_t next = seen + counts_[b];
      if (static_cast<double>(next) >= rank) {
        auto [lo, hi] = bounds(b);
        double within = (rank - static_cast<double>(seen)) /
                        static_cast<double>(counts_[b]);
        return static_cast<double>(lo) + within * static_cast<double>(hi - lo);
      }
      seen = next;
    }
    return static_cast<double>(bounds(kBuckets - 1).second);
  }

 private:
  static size_t bucket_of(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int msb = 63 - __builtin_clzll(v);
    uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    size_t b = static_cast<size_t>(msb - kSubBits + 1) * kSub + sub;
    return std::min(b, kBuckets - 1);
  }
  static std::pair<uint64_t, uint64_t> bounds(size_t b) {
    if (b < kSub) return {b, b + 1};
    int msb = static_cast<int>(b / kSub) + kSubBits - 1;
    uint64_t sub = b % kSub;
    uint64_t width = uint64_t{1} << (msb - kSubBits);
    uint64_t lo = (uint64_t{1} << msb) + sub * width;
    return {lo, lo + width};
  }

  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

// --------------------------------------------------------------- tracing --
// Spans recorded from the benchmark's own code around calls into each
// layer. Each thread appends to a buffer preallocated before the timed
// phase; nothing is formatted or written until the run ends.

enum span_name : uint32_t {
  sp_get_decomposed,  // one sampled get, split into the three below
  sp_route,           // sharded_map::shard_of
  sp_shard_snapshot,  // sharded_map::snapshot_shard
  sp_find,            // Map::find on the held shard snapshot
  sp_range_sum,       // kv_store::snapshot() + sharded_snapshot::aug_range
  sp_cut,             // kv_store::snapshot()
  sp_aug_range,       // sharded_snapshot::aug_range on the held cut
  sp_flush,           // kv_store::flush()
  sp_checkpoint,      // kv_store::save_checkpoint()
  sp_rep,             // one bulk_table3 repetition
  sp_build,           // range_sum_map build from unsorted entries
  sp_union,           // map_union(n, n)
  sp_union_small,     // map_union(n, n/1000)
  sp_multi_insert,    // multi_insert of unsorted entries
  sp_aug_batch,       // parallel_for batch of aug_range queries
  sp_empty,           // clock calibration: a span around nothing
  sp_count
};

inline const char* span_label(uint32_t s) {
  static const char* names[sp_count] = {
      "get_decomposed", "route",      "shard_snapshot", "find",
      "range_sum",      "cut",        "aug_range",      "flush",
      "checkpoint",     "rep",        "build",          "union",
      "union_small",    "multi_insert", "aug_batch",    "empty"};
  return s < sp_count ? names[s] : "?";
}

struct span_rec {
  uint32_t name;
  uint32_t parent;  // 1-based index into the same thread's buffer; 0 = root
  uint64_t t0;
  uint64_t t1;
};

class trace_buf {
 public:
  explicit trace_buf(size_t cap = 0) { spans_.reserve(cap); }

  void set_enabled(bool on) { on_ = on; }

  // Opens a span; returns its 1-based id, or 0 when tracing is off or the
  // buffer is full (end(0) is a no-op, so callers need not check).
  uint32_t begin(uint32_t name, uint32_t parent = 0) {
    if (!on_) return 0;
    if (spans_.size() == spans_.capacity()) {
      dropped_++;
      return 0;
    }
    spans_.push_back({name, parent, now_ns(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void end(uint32_t id) {
    if (id != 0) spans_[id - 1].t1 = now_ns();
  }

  const std::vector<span_rec>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool on_ = false;
  std::vector<span_rec> spans_;
  uint64_t dropped_ = 0;
};

// Per-name span statistics over every thread's buffer: durations and self
// times (duration minus the time covered by direct children).
struct span_stats {
  std::vector<double> dur_ns[sp_count];
  std::vector<double> self_ns[sp_count];
};

inline span_stats summarize(const std::vector<const trace_buf*>& bufs) {
  span_stats st;
  for (const trace_buf* b : bufs) {
    const auto& sp = b->spans();
    std::vector<uint64_t> child(sp.size(), 0);
    for (const span_rec& s : sp) {
      if (s.parent != 0 && s.t1 >= s.t0) child[s.parent - 1] += s.t1 - s.t0;
    }
    for (size_t i = 0; i < sp.size(); i++) {
      if (sp[i].t1 < sp[i].t0) continue;  // never closed
      double d = static_cast<double>(sp[i].t1 - sp[i].t0);
      st.dur_ns[sp[i].name].push_back(d);
      st.self_ns[sp[i].name].push_back(
          std::max(0.0, d - static_cast<double>(child[i])));
    }
  }
  return st;
}

// One CSV row per span: thread,id,parent,name,start_ns,dur_ns.
inline void write_trace(const std::string& path,
                        const std::vector<const trace_buf*>& bufs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,id,parent,name,start_ns,dur_ns\n");
  for (size_t t = 0; t < bufs.size(); t++) {
    const auto& sp = bufs[t]->spans();
    for (size_t i = 0; i < sp.size(); i++) {
      std::fprintf(f, "%zu,%zu,%u,%s,%llu,%llu\n", t, i + 1, sp[i].parent,
                   span_label(sp[i].name),
                   static_cast<unsigned long long>(sp[i].t0),
                   static_cast<unsigned long long>(sp[i].t1 - sp[i].t0));
    }
  }
  std::fclose(f);
}

// Median duration of an empty span on this machine: the clock cost that a
// span adds to what it measures.
inline double span_overhead_ns() {
  trace_buf b(4096);
  b.set_enabled(true);
  for (int i = 0; i < 4096; i++) b.end(b.begin(sp_empty));
  return median(summarize({&b}).dur_ns[sp_empty]);
}

// ------------------------------------------------------------- reporting --

struct metric {
  double value = 0;
  std::string unit;
};

struct report {
  std::map<std::string, metric> e2e;
  std::map<std::string, metric> layer;
  // Per-layer metrics this workload cannot measure, with the reason.
  std::map<std::string, std::string> not_measured;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void set(const std::string& name, double v, const char* unit) {
    e2e[name] = {v, unit};
  }
  void set_layer(const std::string& name, double v, const char* unit) {
    layer[name] = {v, unit};
  }
  void na(const std::string& name, const char* unit, const char* why) {
    layer[name] = {0.0, unit};
    not_measured[name] = why;
  }
  // A failed output check: counted, and described on stdout.
  void fail(const char* what, uint64_t n = 1) {
    failed += n;
    std::printf("CHECK FAILED: %s (%llu)\n", what,
                static_cast<unsigned long long>(n));
  }
};

// ---------------------------------------------------- library scrape reads --

inline uint64_t counter_of(const pam::obs::registry_snapshot& s,
                           const char* name) {
  uint64_t total = 0;
  for (const auto& c : s.counters)
    if (c.name == name) total += c.value;
  return total;
}

inline const pam::obs::histogram_value* hist_of(
    const pam::obs::registry_snapshot& s, const char* name) {
  for (const auto& h : s.histograms)
    if (h.name == name && h.label.empty()) return &h;
  return nullptr;
}

// a + b, saturating at the top of the key space (range windows near the
// end must not wrap around to a hi below lo).
inline uint64_t sat_add(uint64_t a, uint64_t b) {
  return a > ~b ? ~uint64_t{0} : a + b;
}

// Order-independent fingerprint of one (key, value) entry; summed over a
// map it compares two maps' contents without sorting either.
inline uint64_t entry_fp(uint64_t k, uint64_t v) {
  return pam::hash64(k ^ pam::hash64(v + 0x51ed27));
}

// The workloads: each fills `r` with its metrics and failed checks.
void run_serving(const args& a, report& r);
void run_bulk(const args& a, report& r);

}  // namespace bench
