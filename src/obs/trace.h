// pam::obs tracing — fixed-capacity per-thread event rings and RAII scoped
// spans, dumpable as Chrome-trace JSON (chrome://tracing / Perfetto).
//
// A span is two timestamps and a name:
//
//   { obs::span s("wal.sync"); seg_->sync(); }   // records [t0, t1)
//
// Each thread owns a ring of kDefaultRing (4096) completed spans; when the
// ring wraps, the oldest spans are overwritten — tracing is a flight
// recorder, not a log. Recording is wait-free and thread-local: a span's
// destructor writes one slot of its own thread's ring, no atomics, no
// sharing. The only cross-thread traffic is (a) ring registration, once
// per thread, under a mutex, and (b) dump_chrome_json, which locks each
// ring briefly while copying it out.
//
// Runtime gate: spans record only when tracing is enabled — either
// PAM_TRACE=1 in the environment (read once) or trace::set_enabled(true).
// Disabled spans skip the clock reads entirely, so always-on span sites in
// the serving stack cost two predictable branches.
//
// Compile-time gate: like metrics.h, building with -DPAM_METRICS=0 turns
// span into an empty type and the dump into a no-op, in a distinct inline
// namespace so mixed builds stay ODR-clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace pam::obs {

#if PAM_METRICS

inline namespace metrics_on {

struct trace_event {
  const char* name = nullptr;  // static string — span names are literals
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

namespace trace_internal {

inline constexpr size_t kDefaultRing = 4096;

struct ring {
  explicit ring(uint32_t tid_, size_t cap) : tid(tid_) { events.resize(cap); }

  uint32_t tid;
  mutable mutex mu;
  std::vector<trace_event> events PAM_GUARDED_BY(mu);  // capacity-sized
  size_t next PAM_GUARDED_BY(mu) = 0;                  // monotone write index
};

struct ring_list {
  // Immortal, same reasoning as registry::get: thread-local ring owners may
  // be torn down in any order, and dump can run from atexit paths.
  static ring_list& get() {
    // pam-lint: allow(naked-new) — immortal process-wide singleton, rings
    // are never reclaimed (threads are few and rings are bounded).
    static ring_list* rl = new ring_list();
    return *rl;
  }

  ring& ring_for_this_thread() PAM_EXCLUDES(mu) {
    thread_local ring* mine = nullptr;
    if (mine == nullptr) {
      mutex_guard lock(mu);
      // pam-lint: allow(naked-new) — ring lives in the immortal list.
      mine = new ring(next_tid++, kDefaultRing);
      rings.push_back(mine);
    }
    return *mine;
  }

  mutex mu;
  std::vector<ring*> rings PAM_GUARDED_BY(mu);
  uint32_t next_tid PAM_GUARDED_BY(mu) = 0;
};

}  // namespace trace_internal

// Runtime enable switch: PAM_TRACE=1 seeds it, set_enabled overrides.
inline std::atomic<bool>& trace_enabled_flag() {
  static std::atomic<bool> on = [] {
    const char* s = std::getenv("PAM_TRACE");
    return s != nullptr && s[0] == '1';
  }();
  return on;
}

inline bool trace_enabled() {
  return trace_enabled_flag().load(std::memory_order_relaxed);
}

inline void set_trace_enabled(bool on) {
  trace_enabled_flag().store(on, std::memory_order_relaxed);
}

// Record a completed span directly (what ~span does; exposed for tests and
// for call sites that already hold both timestamps).
inline void record_span(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  auto& r = trace_internal::ring_list::get().ring_for_this_thread();
  mutex_guard lock(r.mu);
  r.events[r.next % r.events.size()] = {name, start_ns, dur_ns};
  r.next++;
}

// RAII scoped span. `name` must be a string literal (or otherwise outlive
// the dump) — rings store the pointer, not a copy.
class span {
 public:
  explicit span(const char* name)
      : name_(trace_enabled() ? name : nullptr),
        t0_(name_ != nullptr ? now_ns() : 0) {}
  ~span() {
    if (name_ != nullptr) record_span(name_, t0_, now_ns() - t0_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  const char* name_;
  uint64_t t0_;
};

// Dump every thread's ring as one Chrome-trace JSON document
// ({"traceEvents":[...]} with "ph":"X" complete events, microsecond units).
// Oldest-to-newest within each ring; wrapped-over slots are gone by design.
inline void dump_chrome_json(std::ostream& os) {
  auto& rl = trace_internal::ring_list::get();
  std::vector<trace_internal::ring*> rings;
  {
    mutex_guard lock(rl.mu);
    rings = rl.rings;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (trace_internal::ring* r : rings) {
    std::vector<trace_event> events;
    size_t next = 0;
    {
      mutex_guard lock(r->mu);
      events = r->events;
      next = r->next;
    }
    size_t cap = events.size();
    size_t n = next < cap ? next : cap;
    size_t begin = next < cap ? 0 : next % cap;
    for (size_t i = 0; i < n; i++) {
      const trace_event& e = events[(begin + i) % cap];
      if (e.name == nullptr) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << r->tid << ",\"ts\":" << (e.start_ns / 1000) << "."
         << (e.start_ns % 1000) << ",\"dur\":" << (e.dur_ns / 1000) << "."
         << (e.dur_ns % 1000) << "}";
    }
  }
  os << "]}\n";
}

// Total completed spans across all rings (test hook; counts wrapped-over
// spans too since `next` is monotone).
inline uint64_t trace_span_count() {
  auto& rl = trace_internal::ring_list::get();
  std::vector<trace_internal::ring*> rings;
  {
    mutex_guard lock(rl.mu);
    rings = rl.rings;
  }
  uint64_t total = 0;
  for (trace_internal::ring* r : rings) {
    mutex_guard lock(r->mu);
    total += r->next;
  }
  return total;
}

}  // namespace metrics_on

#else  // PAM_METRICS == 0

inline namespace metrics_off {

class span {
 public:
  explicit span(const char*) {}
};

inline bool trace_enabled() { return false; }
inline void set_trace_enabled(bool) {}
inline void record_span(const char*, uint64_t, uint64_t) {}
inline void dump_chrome_json(std::ostream& os) {
  os << "{\"traceEvents\":[]}\n";
}
inline uint64_t trace_span_count() { return 0; }

}  // namespace metrics_off

#endif  // PAM_METRICS

}  // namespace pam::obs
