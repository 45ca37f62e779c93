// write_combiner: a batched ingest queue in front of a sharded_map.
//
// The paper's Table 2 makes the case: m point inserts cost O(m log n)
// committed one at a time, but one multi_insert of the same m keys costs
// O(m log(n/m + 1)) — and a per-op commit through snapshot_box additionally
// pays a root copy-path and two lock handshakes per key. The combiner turns
// the per-op client API (upsert / erase) back into the bulk path: ops are
// appended to a small per-shard pending buffer, and a buffer is flushed as
// one multi_insert + multi_delete batch when it reaches `batch_size`, when
// the background flusher's `flush_interval` tick fires, or on an explicit
// flush_all(). Caller-built batches (kv_store::put_batch / erase_batch)
// enter through commit_bulk() and ride the same locks and the same sink, so
// every write reaches the target — and the log — on one path.
//
// Semantics:
//   * Per-key last-writer-wins within a batch: before applying, a batch is
//     coalesced so only the most recent op on each key survives (an upsert
//     followed by an erase deletes; duplicates fold away). Coalescing is
//     stable with respect to enqueue order.
//   * No lost updates: enqueue appends under the shard's buffer lock, and a
//     per-shard flush lock is held across [swap buffer out → commit], so
//     batches of one shard commit in enqueue order and a later batch can
//     never overtake an earlier one. A bulk commit first drains the queues
//     it touches under their flush locks, so it lands after every op
//     enqueued on its keys before it was called.
//   * Visibility: reads through the sharded_map see committed state only;
//     each per-shard slice of a flushed batch becomes visible in one atomic
//     epoch-protected root publication (snapshot_box::update_if), so
//     readers never see a slice half-applied. flush_all() is the barrier —
//     every op enqueued happens-before a flush_all() call is committed when
//     it returns.
//   * Rebalance-stable queues: ops are bucketed into queues by the splitter
//     directory pinned at construction (a shared handle that outlives any
//     number of rebalances), so a key's ops always ride the same queue and
//     the per-queue flush lock keeps them in enqueue order even while the
//     target's live directory changes underneath. At the flush boundary a
//     batch is applied through the target's bulk write path, which
//     partitions against the *live* directory and re-routes around any
//     concurrent rebalance — queue index and live shard index are decoupled
//     on purpose (the WAL replayer never trusted the queue index either).
//   * Shutdown drains: shutdown() (also run by the destructor) stops the
//     flusher thread and then flushes every remaining op, so the final
//     drain is guaranteed to land in the target sharded_map before the
//     combiner — and therefore before any sharded_map constructed earlier
//     than it — is torn down. An op enqueued concurrently with shutdown is
//     never stranded: it either lands in a buffer before the closed flag is
//     set (the final flush_all commits it) or observes the flag and commits
//     directly to the target. shutdown() is idempotent; after it returns,
//     every later upsert/erase bypasses the (now permanently drained)
//     buffers and commits as a point write.
//
// Thread safety: upsert / erase / commit_bulk / flush_all / shutdown may be
// called from any number of threads concurrently. Only the destructor
// itself must be externally synchronized with other member calls (standard
// C++ object lifetime), which is why kv_store declares the combiner after
// its sharded_map: members destroy in reverse order, so the drain always
// precedes the target's destruction.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/sharded_map.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Map>
class write_combiner {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using entry_policy = typename Map::entry_policy;

  struct config {
    // Flush a shard's buffer once it holds this many pending ops.
    size_t batch_size = 1024;
    // Background flusher period; zero disables the flusher thread (flushes
    // then happen only on batch_size overflow and explicit flush_all).
    std::chrono::milliseconds flush_interval{2};
    // Durability hook: called with each coalesced batch and each bulk
    // commit under the flush locks it holds, BEFORE the batch is applied to
    // the target — so a batch is never visible to readers unless it was
    // offered to the log first. A throwing sink aborts the commit (the
    // batch is dropped, the exception propagates to whoever drove the
    // flush): crash semantics, exercised by the fault-injection tests.
    // Empty = no durability (the default).
    std::function<void(const std::vector<entry_t>& upserts,
                       const std::vector<K>& deletes)>
        batch_sink{};
  };

  explicit write_combiner(sharded_map<Map>& target, config cfg = {})
      : target_(target), cfg_(cfg), routing_(target.splitters_handle()),
        queues_(routing_->size() + 1) {
    for (auto& q : queues_) q = std::make_unique<shard_queue>();
    if (cfg_.flush_interval.count() > 0)
      flusher_ = std::thread([this] { flusher_loop(); });
  }

  ~write_combiner() {
    try {
      shutdown();
    } catch (...) {
      // The final drain hit a batch_sink failure: the undrained ops were
      // never acked, and a destructor must not throw.
    }
  }

  // Stop the background flusher and drain every queued batch into the
  // target. Safe to call repeatedly and from any thread; the first call
  // closes the buffers (subsequent enqueues commit directly), every call
  // acts as a flush_all() barrier for ops already enqueued.
  void shutdown() {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      if (flusher_.joinable()) {
        {
          mutex_guard lock(flusher_mu_);
          stop_ = true;
        }
        flusher_cv_.notify_all();
        flusher_.join();
      }
    }
    flush_all();
  }

  write_combiner(const write_combiner&) = delete;
  write_combiner& operator=(const write_combiner&) = delete;

  // Enqueue a point upsert; committed by a later flush.
  void upsert(const K& k, const V& v) { enqueue(k, std::optional<V>(v)); }

  // Enqueue a point delete.
  void erase(const K& k) { enqueue(k, std::nullopt); }

  // Commit a caller-built batch before returning, on the buffered ops'
  // path: under the flush locks of every queue the batch touches, those
  // queues' pending ops commit first, then the batch goes to batch_sink in
  // ONE call (one log record) and is applied. An op enqueued on one of its
  // keys before this call therefore lands before it, one enqueued after it
  // returns lands after it, and quiesced() — which holds every flush lock —
  // never sees it between its sink call and its apply. The lists are
  // neither coalesced nor counted as enqueued ops; duplicates follow the
  // target's multi_insert / multi_delete semantics.
  void commit_bulk(std::vector<entry_t> upserts, std::vector<K> deletes) {
    std::vector<bool> touched(queues_.size(), false);
    for (const entry_t& e : upserts) touched[queue_of(e.first)] = true;
    for (const K& k : deletes) touched[queue_of(k)] = true;
    std::vector<size_t> locked;
    for (size_t s = 0; s < touched.size(); s++) {
      if (touched[s]) locked.push_back(s);
    }
    if (locked.empty()) return;  // nothing to log or apply
    auto commit = [&] {
      sink_and_apply(std::move(upserts), std::move(deletes));
    };
    drain_locked(locked, 0, commit);
  }

  // Commit every pending op. On return, all ops enqueued before this call
  // are visible to sharded_map readers.
  void flush_all() {
    for (size_t s = 0; s < queues_.size(); s++) flush_shard(s);
  }

  // Flush every shard, then run `fn` while ALL shard flush locks are held.
  // While `fn` runs no batch — buffered or bulk — can sit between its
  // batch_sink call (the WAL append) and its apply to the target: both
  // happen under flush locks, and no new batch can commit until `fn`
  // returns. This is the consistency fence kv_store::save_checkpoint cuts
  // its durable checkpoint on: inside `fn`, the target reflects exactly
  // the batches the sink has seen. `fn` must not re-enter the combiner.
  template <typename Fn>
  void quiesced(Fn&& fn) {
    std::vector<size_t> all(queues_.size());
    for (size_t s = 0; s < all.size(); s++) all[s] = s;
    drain_locked(all, 0, fn);
  }

 private:
  // An op is (key, new value) for upsert or (key, nullopt) for erase.
  using op_t = std::pair<K, std::optional<V>>;

  struct shard_queue {
    mutex buffer_mu;            // held only for a push/swap
    std::vector<op_t> pending PAM_GUARDED_BY(buffer_mu);
    // Enqueue time of the oldest op in `pending` (0 = empty): the flush
    // that drains the buffer records now - oldest_ns as the worst-case
    // enqueue→flush latency of the batch.
    uint64_t oldest_ns PAM_GUARDED_BY(buffer_mu) = 0;
    mutex flush_mu;             // orders [swap → commit] sections per shard
  };

  void enqueue(const K& k, std::optional<V> v) {
    size_t s = queue_of(k);
    shard_queue& q = *queues_[s];
    bool buffered = false;
    bool overflow = false;
    {
      mutex_guard lock(q.buffer_mu);
      // The closed check is under the buffer lock: an op either lands in
      // the buffer before shutdown() closes (its final flush_all takes this
      // same lock and drains it) or sees closed and takes the direct path
      // below — no op can be stranded in a dead buffer.
      if (!closed_.load(std::memory_order_acquire)) {
        if (q.pending.empty()) q.oldest_ns = obs::now_ns();
        q.pending.emplace_back(k, std::move(v));
        overflow = q.pending.size() >= cfg_.batch_size;
        buffered = true;
      }
    }
    ops_enqueued_.inc();
    if (buffered) queue_depth_.add(1);
    if (!buffered) {
      // Post-shutdown: drain whatever is still pending for this shard and
      // commit this op behind it, all under the flush lock — an older
      // buffered write can never overtake it.
      mutex_guard serialize(q.flush_mu);
      auto [batch, oldest] = swap_out(q);
      batch.emplace_back(k, std::move(v));
      commit_batch(q, std::move(batch), oldest);
      return;
    }
    if (overflow) flush_shard(s);
  }

  // Routed by the pinned construction-time splitters, NOT the live
  // directory: the queue index must be stable across rebalances so every op
  // on a key — buffered or bulk — serializes on one flush lock.
  size_t queue_of(const K& k) const {
    return server_internal::shard_index(*routing_, k, entry_policy::comp);
  }

  // Drain the shard's buffer; returns (batch, enqueue time of its oldest
  // op — 0 when the batch is empty).
  std::pair<std::vector<op_t>, uint64_t> swap_out(shard_queue& q) {
    std::vector<op_t> batch;
    batch.reserve(cfg_.batch_size);
    uint64_t oldest = 0;
    {
      mutex_guard lock(q.buffer_mu);
      batch.swap(q.pending);
      oldest = q.oldest_ns;
      q.oldest_ns = 0;
    }
    queue_depth_.add(-static_cast<int64_t>(batch.size()));
    return {std::move(batch), oldest};
  }

  // Coalesce and apply one batch to shard s. The caller-holds-q.flush_mu
  // contract is an annotation, not just this comment: calling it unlocked
  // (which would let a later batch overtake this one) fails to compile
  // under clang -Wthread-safety.
  void commit_batch(shard_queue& q, std::vector<op_t> batch,
                    uint64_t oldest_ns = 0) PAM_REQUIRES(q.flush_mu) {
    (void)q;
    if (batch.empty()) return;
    obs::span flush_span("combiner.flush");
    batch_ops_.record(batch.size());
    if (oldest_ns != 0) {
      enqueue_to_flush_ns_.record(obs::now_ns() - oldest_ns);
    }
    auto [upserts, deletes] = coalesce(std::move(batch));
    size_t ops = upserts.size() + deletes.size();
    sink_and_apply(std::move(upserts), std::move(deletes));
    ops_committed_.inc(ops);
    batches_flushed_.inc();
  }

  // The one commit step every write takes, always under the flush locks of
  // the queues its keys route to: offer the batch to the sink, then apply
  // it. The log therefore sees each queue's batches in the same order
  // readers will, and a sink failure keeps the batch out of the target
  // entirely — it was never acked, so losing it is correct.
  void sink_and_apply(std::vector<entry_t> upserts, std::vector<K> deletes) {
    if (cfg_.batch_sink) {
      try {
        cfg_.batch_sink(upserts, deletes);
      } catch (...) {
        sink_failures_.inc();
        throw;
      }
    }
    // Apply through the live-directory bulk path: the target partitions
    // each list against whatever directory is current and transparently
    // re-routes around a concurrent rebalance. Upserts apply before
    // deletes; a coalesced batch puts each key in only one of the two.
    if (!upserts.empty()) target_.multi_insert(std::move(upserts));
    if (!deletes.empty()) target_.multi_delete(std::move(deletes));
  }

  // The lock-accumulating walk behind quiesced() and commit_bulk(): flush
  // queue idx[i] under its flush lock, keep the lock, recurse to i+1, and
  // run fn once every listed lock is held. `idx` ascends, so every
  // multi-lock holder takes flush locks in one global order. Recursion
  // keeps each acquisition lexical, so clang's thread-safety analysis
  // tracks the whole dynamic lock set.
  template <typename Fn>
  void drain_locked(const std::vector<size_t>& idx, size_t i, Fn& fn) {
    if (i == idx.size()) {
      fn();
      return;
    }
    shard_queue& q = *queues_[idx[i]];
    mutex_guard serialize(q.flush_mu);
    auto [batch, oldest] = swap_out(q);
    commit_batch(q, std::move(batch), oldest);
    drain_locked(idx, i + 1, fn);
  }

  void flush_shard(size_t s) {
    shard_queue& q = *queues_[s];
    // flush_mu spans swap-out and commit: batches of this shard apply in
    // enqueue order, which is what makes last-writer-wins hold across
    // batch boundaries (no later batch overtakes an earlier one).
    mutex_guard serialize(q.flush_mu);
    auto [batch, oldest] = swap_out(q);
    commit_batch(q, std::move(batch), oldest);
  }

  // Keep only the latest op per key (stable sort by key preserves enqueue
  // order within equal keys), then split survivors into the multi_insert
  // and multi_delete arguments. Each key ends up in exactly one of the two,
  // so the flush may apply them in either order.
  static std::pair<std::vector<entry_t>, std::vector<K>> coalesce(
      std::vector<op_t> batch) {
    std::stable_sort(batch.begin(), batch.end(),
                     [](const op_t& a, const op_t& b) {
                       return entry_policy::comp(a.first, b.first);
                     });
    std::vector<entry_t> upserts;
    std::vector<K> deletes;
    for (size_t i = 0; i < batch.size(); i++) {
      if (i + 1 < batch.size() &&
          !entry_policy::comp(batch[i].first, batch[i + 1].first))
        continue;  // a later op on the same key supersedes this one
      if (batch[i].second.has_value())
        upserts.emplace_back(std::move(batch[i].first), std::move(*batch[i].second));
      else
        deletes.push_back(std::move(batch[i].first));
    }
    return {std::move(upserts), std::move(deletes)};
  }

  void flusher_loop() {
    unique_guard lock(flusher_mu_);
    while (!stop_) {
      flusher_cv_.wait_for(lock, cfg_.flush_interval);
      if (stop_) break;
      lock.unlock();
      try {
        flush_all();
      } catch (...) {
        // A batch_sink failure on the background thread must not terminate
        // the process: the batch was dropped (counted in sink_failures_),
        // the WAL writer is dead, and the owner observes it via failed().
      }
      lock.lock();
    }
  }

  sharded_map<Map>& target_;
  const config cfg_;
  // The construction-time splitter directory, pinned: the stable bucketing
  // for queues_ (whose count never changes) while the target's live
  // directory rebalances freely.
  std::shared_ptr<const std::vector<K>> routing_;
  std::vector<std::unique_ptr<shard_queue>> queues_;

  // Registry-backed instrumentation, read through the metrics scrape
  // (kv_store::metrics()). These are per-instance members — two combiners
  // register under the same names and the scrape sums them
  // Prometheus-style. Bulk commits count only in sink_failures_.
  obs::counter ops_enqueued_{"pam_combiner_ops_enqueued_total"};
  obs::counter ops_committed_{"pam_combiner_ops_committed_total"};
  obs::counter batches_flushed_{"pam_combiner_batches_flushed_total"};
  obs::counter sink_failures_{"pam_combiner_sink_failures_total"};
  obs::gauge queue_depth_{"pam_combiner_queue_depth"};
  obs::histogram batch_ops_{"pam_combiner_batch_ops"};
  obs::histogram enqueue_to_flush_ns_{"pam_combiner_enqueue_to_flush_ns"};

  std::thread flusher_;
  mutex flusher_mu_;
  // _any: waits on the annotated pam::unique_guard (std::condition_variable
  // is hardwired to std::unique_lock<std::mutex>, which the analysis cannot
  // see through).
  std::condition_variable_any flusher_cv_;
  bool stop_ PAM_GUARDED_BY(flusher_mu_) = false;
  // Set (once) by shutdown() before its final drain; read by enqueue under
  // the buffer lock to route post-shutdown ops onto the direct path.
  std::atomic<bool> closed_{false};
};

}  // namespace pam
