// Serving-layer example: a concurrent key-value server built from the
// src/server/ subsystem — a sharded_map behind a write_combiner, the
// production shape of the paper's §4 concurrency pattern.
//
//   ./example_kv_server
//
// Scenario: a page-view counter service. Ingest threads stream view events
// (point upserts that the combiner coalesces into per-shard multi_insert
// batches); analytics threads concurrently take consistent cross-shard cuts
// and run stitched range / augmented-sum queries, never blocking ingest.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "pam/pam.h"
#include "server/kv_store.h"

using counter_map = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;

int main() {
  // Seed the store with an existing corpus of 200k pages, sharded 8 ways at
  // the key-space quantiles of the initial distribution.
  std::vector<counter_map::entry_t> seed;
  for (uint64_t i = 0; i < 200000; i++)
    seed.push_back({pam::hash64(i) % 1000000, 1});
  pam::kv_store<counter_map> store(
      counter_map(std::move(seed),
                  [](uint64_t a, uint64_t b) { return a + b; }),
      {.num_shards = 8,
       .combiner = {.batch_size = 512,
                    .flush_interval = std::chrono::milliseconds(2)}});
  std::printf("seeded: %zu pages across %zu shards\n", store.size(),
              store.shards().num_shards());

  // Ingest: four client threads stream view events. Each put is one cheap
  // enqueue; the combiner commits them as per-shard bulk merges.
  std::atomic<bool> done{false};
  std::vector<std::thread> ingest;
  for (int t = 0; t < 4; t++) {
    ingest.emplace_back([&, t] {
      pam::random_gen g(t);
      for (int i = 0; i < 50000; i++) {
        uint64_t page = g.next() % 1000000;
        store.put(page, 1);  // overwrite-as-latest; see note below
      }
    });
  }

  // Analytics: consistent cuts + stitched range queries while ingest runs.
  std::thread analytics([&] {
    while (!done.load()) {
      auto snap = store.snapshot();  // O(shards) consistent cut
      uint64_t hot = snap.count_range(0, 99999);
      uint64_t views = snap.aug_range(0, 999999);
      std::printf("  analytics: %zu pages, %llu in hot range, %llu total "
                  "counter mass\n",
                  snap.size(), (unsigned long long)hot,
                  (unsigned long long)views);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (auto& t : ingest) t.join();
  done.store(true);
  analytics.join();
  store.flush();  // barrier: every ingested event is committed

  // Ingest counts come from the metrics scrape (all zero in a
  // PAM_METRICS=OFF build, which records nothing).
  uint64_t enqueued = 0, committed = 0, batches = 0;
  for (const auto& c : store.metrics().counters) {
    if (c.name == "pam_combiner_ops_enqueued_total") enqueued += c.value;
    if (c.name == "pam_combiner_ops_committed_total") committed += c.value;
    if (c.name == "pam_combiner_batches_flushed_total") batches += c.value;
  }
  std::printf("ingest: %llu ops enqueued -> %llu committed in %llu batches "
              "(avg %.0f ops/batch)\n",
              (unsigned long long)enqueued, (unsigned long long)committed,
              (unsigned long long)batches,
              batches ? double(committed) / double(batches) : 0.0);

  // Top page in a key range via the stitched views, lazily (no copies).
  auto snap = store.snapshot();
  uint64_t best_key = 0, best_views = 0;
  snap.for_each_range(0, 9999, [&](uint64_t k, uint64_t v) {
    if (v > best_views) { best_views = v; best_key = k; }
  });
  std::printf("final: %zu pages; hottest page in [0, 10^4] is %llu\n",
              store.size(), (unsigned long long)best_key);

  // Note: put() is last-writer-wins. For additive counters, batch the
  // deltas and use put_batch-style merges with a combine function via
  // sharded_map::update_shard — the coalescing layer is value-agnostic.
  return 0;
}
