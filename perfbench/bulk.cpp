// bulk_table3: the paper's Table 3 analytics on a sum-augmented
// range_sum_map of n = 2^22 entries, with no server in the way.
//
// Each repetition times five bulk calls, on the default pool of workers:
//   build         range_sum_map from n unsorted entries
//   union         map_union(A, B), |A| = |B| = n, half the keys shared
//   union_small   map_union(A, Bs), |Bs| = n/1000
//   multi_insert  n unsorted entries into A, a quarter of them new keys
//   aug_batch     parallel_for over n/4 aug_range queries on A
// and four point probes from one thread, each call timed on its own: find,
// insert, a 64-entry multi_insert (a batch commit) and aug_range. Every
// result is checked against references computed once during set-up.
#include <algorithm>
#include <tuple>

#include "apps/range_sum.h"
#include "common.h"

namespace bench {
namespace {

using Map = pam::range_sum_map;
using entry_t = Map::entry_t;

constexpr size_t kMinReps = 4;
constexpr size_t kT1Reps = 3;
constexpr size_t kFindProbes = 4096;
constexpr size_t kInsertProbes = 1024;
constexpr size_t kCommitProbes = 1024;
constexpr size_t kCommitBatch = 64;
constexpr size_t kRangeProbes = 4096;

double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(double ns) { return ns / 1e3; }

}  // namespace

void run_bulk(const args& a, report& r) {
  const size_t n = a.tiny ? (size_t{1} << 14) : (size_t{1} << 22);
  const size_t n_small = std::max<size_t>(1, n / 1000), q_n = n / 4;
  const uint64_t salt = pam::hash64(a.seed * 0x9e3779b97f4a7c15ULL + 3);
  const uint64_t vsalt = pam::hash64(a.seed + 0x7f4a7c15);
  auto key = [&](uint64_t rank) { return pam::hash64(rank + salt); };
  auto val = [&](uint64_t rank) { return 1 + pam::hash64(rank ^ vsalt) % 1000000; };
  auto val2 = [&](uint64_t rank) { return 1 + pam::hash64(rank ^ ~vsalt) % 1000000; };
  const int workers = pam::num_workers();
  std::printf("workload bulk_table3: n=%zu, n/1000=%zu, %zu aug_range queries per batch, "
              "%d workers\n", n, n_small, q_n, workers);

  // ---------------------------------------------------- input generation --
  // Ranks: A = [0, n), B = [n/2, 3n/2), Bs = {i * 1999 mod 2n}, multi-insert
  // batch = [3n/4, 7n/4) with fresh values; probes use ranks >= 2n.
  auto gen = [&](size_t count, auto rank_of, auto value_of) {
    std::vector<entry_t> v(count);
    pam::parallel_for(0, count, [&](size_t i) {
      uint64_t rk = rank_of(i);
      v[i] = {key(rk), value_of(rk)};
    });
    return v;
  };
  const auto ea = gen(n, [](size_t i) { return i; }, val);
  const auto eb = gen(n, [&](size_t i) { return n / 2 + i; }, val);
  const auto es = gen(n_small, [&](size_t i) { return (i * 1999) % (2 * n); }, val);
  const auto em = gen(n, [&](size_t i) { return 3 * n / 4 + i; }, val2);
  std::vector<uint64_t> q_lo(q_n);
  pam::parallel_for(0, q_n, [&](size_t i) { q_lo[i] = pam::hash64(salt ^ (i * 7 + 1)); });
  const uint64_t window = (~uint64_t{0} / n) * 64;  // ~64 entries of A
  const uint64_t fresh = 4 * static_cast<uint64_t>(n);
  const auto e_ins = gen(kInsertProbes, [&](size_t i) { return fresh + i; }, val);
  std::vector<std::vector<entry_t>> e_commit;
  for (size_t b = 0; b < kCommitProbes; b++)
    e_commit.push_back(gen(kCommitBatch, [&](size_t i) { return fresh + kInsertProbes + b * kCommitBatch + i; }, val));
  std::vector<uint64_t> find_rank(kFindProbes);
  for (size_t i = 0; i < kFindProbes; i++)  // half present, half absent
    find_rank[i] = (i % 2 == 0) ? pam::hash64(salt + i) % n : 2 * n + i;

  // --------------------------------------------------------------- set-up --
  Map A, B, Bs;
  std::vector<double> setup_s;
  while (more_setups(setup_s)) {
    A = Map();
    B = Map();
    Bs = Map();
    pam::epoch::drain();
    std::vector<entry_t> ca = ea, cb = eb, cs = es;
    uint64_t t0 = now_ns();
    A = Map(std::move(ca));
    B = Map(std::move(cb));
    Bs = Map(std::move(cs));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // References, from the entry lists alone: sorted keys of A with prefix
  // sums answer every range query independently of the tree.
  auto sum_of = [](const std::vector<entry_t>& v) {
    uint64_t s = 0;
    for (const auto& e : v) s += e.second;
    return s;
  };
  const uint64_t sum_a = sum_of(ea), sum_b = sum_of(eb), sum_s = sum_of(es), sum_m = sum_of(em);
  size_t s_outside_a = 0;
  for (size_t i = 0; i < n_small; i++) s_outside_a += ((i * 1999) % (2 * n)) >= n ? 1 : 0;
  uint64_t a_below_m = 0;  // A's values on ranks the multi-insert leaves alone
  for (uint64_t rk = 0; rk < 3 * n / 4; rk++) a_below_m += val(rk);
  struct ref_t {
    size_t size;
    uint64_t aug;
  };
  const ref_t ref_build{n, sum_a};
  const ref_t ref_union{3 * n / 2, sum_a + sum_b};
  const ref_t ref_union_small{n + s_outside_a, sum_a + sum_s};
  const ref_t ref_mi{7 * n / 4, a_below_m + sum_m + (a.corrupt ? 1 : 0)};
  std::vector<entry_t> sorted_a = ea;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::vector<uint64_t> prefix(n + 1, 0);
  for (size_t i = 0; i < n; i++) prefix[i + 1] = prefix[i] + sorted_a[i].second;
  auto ref_range = [&](uint64_t lo, uint64_t hi) {
    auto cmp = [](const entry_t& e, uint64_t k) { return e.first < k; };
    size_t i = static_cast<size_t>(std::lower_bound(sorted_a.begin(), sorted_a.end(), lo, cmp) - sorted_a.begin());
    size_t j = static_cast<size_t>(std::upper_bound(sorted_a.begin(), sorted_a.end(), hi,
                                                    [](uint64_t k, const entry_t& e) { return k < e.first; }) -
                                   sorted_a.begin());
    return prefix[j] - prefix[i];
  };
  std::vector<uint64_t> q_ref(q_n);
  pam::parallel_for(0, q_n, [&](size_t i) { q_ref[i] = ref_range(q_lo[i], sat_add(q_lo[i], window)); });
  std::vector<uint64_t> probe_lo(kRangeProbes), probe_ref(kRangeProbes);
  for (size_t i = 0; i < kRangeProbes; i++) {
    probe_lo[i] = pam::hash64(vsalt + 31 * i);
    probe_ref[i] = ref_range(probe_lo[i], sat_add(probe_lo[i], window));
  }
  if (A.size() != n || A.aug_val() != sum_a) r.fail("set-up: map A");

  auto check = [&](const Map& m, const ref_t& ref, const char* what) {
    r.attempted++;
    if (m.size() != ref.size || m.aug_val() != ref.aug) r.fail(what);
  };
  auto plus = [](uint64_t x, uint64_t y) { return x + y; };

  // ---------------------------------------------------------- timed phase --
  std::vector<double> t_build[2], t_union[2], t_union_small[2], t_mi[2], t_aug[2];
  // Probe latencies of untraced repetitions: pooled for the median, and each
  // repetition's p99 so the tail is the median over repetitions (a burst of
  // host noise during one repetition does not set it).
  lat_hist h_find, h_ins, h_commit, h_range;
  std::vector<double> p99_find, p99_ins, p99_commit, p99_range;
  trace_buf tb(a.trace ? size_t{1} << 17 : 0);
  uint64_t calls = 0, wall_ns = 0;  // over untraced repetitions
  size_t reserved_max = 0, limbo_max = 0;
  const auto scrape0 = pam::obs::registry::get().scrape();
  std::vector<uint64_t> out(q_n);
  const uint64_t run_ns = static_cast<uint64_t>(a.seconds * 1e9);
  const uint64_t t_start = now_ns();
  size_t reps = 0;
  auto sample_alloc = [&] {
    if (!a.trace) return;
    reserved_max = std::max(reserved_max, pam::block_pool::reserved_bytes_all());
    limbo_max = std::max(limbo_max, pam::epoch::pending());
  };
  for (; reps < kMinReps || now_ns() - t_start < run_ns; reps++) {
    // Every repetition starts from the same allocator state: the previous
    // one's results go back to the OS first, so repetitions are alike
    // instead of drifting with pool fragmentation.
    pam::epoch::drain();
    pam::block_pool::trim_all();
    // In a traced run odd repetitions carry spans, even ones stay clean:
    // the two halves give the tracing overhead.
    const int h = (a.trace && reps % 2 == 1) ? 1 : 0;
    tb.set_enabled(h == 1);
    const uint64_t rep_t0 = now_ns();
    const uint32_t rep_sp = tb.begin(sp_rep);
    auto timed = [&](span_name s, auto&& f) {
      uint32_t sp = tb.begin(s, rep_sp);
      uint64_t t0 = now_ns();
      f();
      uint64_t d = now_ns() - t0;
      tb.end(sp);
      return d;
    };
    {
      std::vector<entry_t> copy = ea;
      Map m;
      t_build[h].push_back(ms(timed(sp_build, [&] { m = Map(std::move(copy)); })));
      sample_alloc();
      check(m, ref_build, "build");
    }
    {
      Map m;
      t_union[h].push_back(ms(timed(sp_union, [&] { m = Map::map_union(A, B, plus); })));
      sample_alloc();
      check(m, ref_union, "map_union(n, n)");
    }
    {
      Map m;
      t_union_small[h].push_back(ms(timed(sp_union_small, [&] { m = Map::map_union(A, Bs, plus); })));
      check(m, ref_union_small, "map_union(n, n/1000)");
    }
    {
      std::vector<entry_t> copy = em;
      Map m;
      t_mi[h].push_back(ms(timed(sp_multi_insert, [&] { m = Map::multi_insert(A, std::move(copy)); })));
      sample_alloc();
      check(m, ref_mi, "multi_insert");
    }
    t_aug[h].push_back(ms(timed(sp_aug_batch, [&] {
      pam::parallel_for(0, q_n, [&](size_t i) { out[i] = A.aug_range(q_lo[i], sat_add(q_lo[i], window)); });
    })));
    {
      uint64_t bad = 0;
      for (size_t i = 0; i < q_n; i++) bad += out[i] != q_ref[i] ? 1 : 0;
      r.attempted += q_n;
      if (bad != 0) r.fail("aug_range batch", bad);
    }
    tb.end(rep_sp);

    // Point probes (untraced repetitions feed the latency metrics).
    lat_hist rep_find, rep_ins, rep_commit, rep_range;
    uint64_t bad = 0;
    for (size_t i = 0; i < kFindProbes; i++) {
      uint64_t rk = find_rank[i];
      uint32_t sp = tb.begin(sp_find);
      uint64_t t0 = now_ns();
      auto v = A.find(key(rk));
      uint64_t d = now_ns() - t0;
      tb.end(sp);
      rep_find.record(d);
      if (rk < n ? (!v.has_value() || *v != val(rk)) : v.has_value()) bad++;
    }
    {
      Map c = A;
      for (const auto& e : e_ins) {
        uint64_t t0 = now_ns();
        c.insert_inplace(e.first, e.second);
        rep_ins.record(now_ns() - t0);
      }
      if (c.size() != n + kInsertProbes) bad++;
    }
    for (size_t b = 0; b < kCommitProbes; b++) {
      std::vector<entry_t> copy = e_commit[b];
      uint64_t t0 = now_ns();
      Map m = Map::multi_insert(A, std::move(copy));
      rep_commit.record(now_ns() - t0);
      if (m.size() != n + kCommitBatch) bad++;
    }
    for (size_t i = 0; i < kRangeProbes; i++) {
      uint32_t sp = tb.begin(sp_aug_range);
      uint64_t t0 = now_ns();
      uint64_t s = A.aug_range(probe_lo[i], sat_add(probe_lo[i], window));
      uint64_t d = now_ns() - t0;
      tb.end(sp);
      rep_range.record(d);
      if (s != probe_ref[i]) bad++;
    }
    const uint64_t probes = kFindProbes + kInsertProbes + kCommitProbes + kRangeProbes;
    r.attempted += probes;
    if (h == 0) {  // four bulk calls, each batch query and each probe call
      for (auto [pooled, rep, p99] : {std::tuple{&h_find, &rep_find, &p99_find},
                                      std::tuple{&h_ins, &rep_ins, &p99_ins},
                                      std::tuple{&h_commit, &rep_commit, &p99_commit},
                                      std::tuple{&h_range, &rep_range, &p99_range}}) {
        pooled->merge(*rep);
        p99->push_back(rep->quantile_ns(0.99));
      }
      calls += 4 + q_n + probes;
      wall_ns += now_ns() - rep_t0;
    }
    if (bad != 0) r.fail("point probes", bad);
  }
  const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
  const auto scrape1 = pam::obs::registry::get().scrape();
  tb.set_enabled(false);

  // Memory at the end of the run: live entries are A, B and Bs.
  pam::epoch::drain();
  pam::block_pool::trim_all();
  const double live = static_cast<double>(A.size() + B.size() + Bs.size());
  const double mem = static_cast<double>(pam::block_pool::reserved_bytes_all()) / live;

  std::printf("samples: %zu repetitions in %.2f s (%zu untraced); find %llu, insert %llu, "
              "commit %llu, aug_range %llu\n",
              reps, elapsed, t_union[0].size(),
              static_cast<unsigned long long>(h_find.count()),
              static_cast<unsigned long long>(h_ins.count()),
              static_cast<unsigned long long>(h_commit.count()),
              static_cast<unsigned long long>(h_range.count()));
  std::printf("get_* time find, put_p99 times insert, commit_* time a %zu-entry multi_insert, "
              "range_sum_* time aug_range, all on A from one thread\n", kCommitBatch);
  r.set("setup_s", median(setup_s), "s");
  r.set("ops_per_s", static_cast<double>(calls) / (static_cast<double>(wall_ns) / 1e9), "ops/s");
  r.set("get_p50_us", us(h_find.quantile_ns(0.5)), "us");
  r.set("get_p99_us", us(median(p99_find)), "us");
  r.set("put_p99_us", us(median(p99_ins)), "us");
  r.set("commit_p50_us", us(h_commit.quantile_ns(0.5)), "us");
  r.set("commit_p99_us", us(median(p99_commit)), "us");
  r.set("range_sum_p50_us", us(h_range.quantile_ns(0.5)), "us");
  r.set("range_sum_p99_us", us(median(p99_range)), "us");
  r.set("mem_bytes_per_entry", mem, "B");
  r.set("union_ms", median(t_union[0]), "ms");
  r.set("union_small_ms", median(t_union_small[0]), "ms");
  r.set("multi_insert_ms", median(t_mi[0]), "ms");
  r.set("build_ms", median(t_build[0]), "ms");
  r.set("aug_range_ms", median(t_aug[0]), "ms");

  if (!a.trace) return;

  // --------------------------------------------------- traced per-layer --
  std::printf("tracing overhead (traced minus untraced repetitions): union_ms %+.3f, build_ms %+.3f, "
              "multi_insert_ms %+.3f, aug_range_ms %+.3f\n",
              median(t_union[1]) - median(t_union[0]), median(t_build[1]) - median(t_build[0]),
              median(t_mi[1]) - median(t_mi[0]), median(t_aug[1]) - median(t_aug[0]));
  // Work: the same calls on one worker. Resizing happens only here, after
  // the timed phase, from the thread that owns worker 0.
  std::vector<double> t1_build, t1_union, t1_mi;
  pam::set_num_workers(1);
  for (size_t rep = 0; rep < kT1Reps; rep++) {
    std::vector<entry_t> copy = ea;
    uint64_t t0 = now_ns();
    Map m(std::move(copy));
    t1_build.push_back(ms(now_ns() - t0));
    check(m, ref_build, "build on 1 worker");
    t0 = now_ns();
    m = Map::map_union(A, B, plus);
    t1_union.push_back(ms(now_ns() - t0));
    check(m, ref_union, "map_union on 1 worker");
    copy = em;
    t0 = now_ns();
    m = Map::multi_insert(A, std::move(copy));
    t1_mi.push_back(ms(now_ns() - t0));
    check(m, ref_mi, "multi_insert on 1 worker");
  }
  pam::set_num_workers(workers);
  const double u1 = median(t1_union), b1 = median(t1_build), up = median(t_union[0]),
               bp = median(t_build[0]);
  std::printf("speedup bases: union T1 %.3f ms / Tp %.3f ms; build T1 %.3f ms / Tp %.3f ms "
              "(p = %d workers)\n", u1, up, b1, bp, workers);

  const span_stats st = summarize({&tb});
  const double ovh = span_overhead_ns();
  std::printf("spans: clock overhead %.1f ns per span (subtracted); %llu dropped\n", ovh,
              static_cast<unsigned long long>(tb.dropped()));
  for (uint32_t s = 0; s < sp_count; s++) {
    if (st.dur_ns[s].empty()) continue;
    std::printf("  span %-15s n=%-8zu p50 %12.0f ns  self p50 %12.0f ns\n", span_label(s),
                st.dur_ns[s].size(), quantile(st.dur_ns[s], 0.5), quantile(st.self_ns[s], 0.5));
  }
  write_trace(a.work_dir + "/trace-" + a.workload + ".csv", {&tb});
  auto net = [&](span_name s, double q) { return std::max(0.0, quantile(st.dur_ns[s], q) - ovh); };
  auto d = [&](const char* name) {
    return static_cast<double>(counter_of(scrape1, name) - counter_of(scrape0, name));
  };

  const char* no_server = "bulk_table3 runs the kernel with no server in the way";
  for (const char* m : {"server.combiner_coalesce_ratio", "server.cut_retry_ratio",
                        "server.cut_fallback_ratio", "server.get_parts_over_get_p50"})
    r.na(m, "ratio", no_server);
  r.na("server.combiner_batch_ops_p50", "ops", no_server);
  for (const char* m : {"server.combiner_queue_wait_p99_ns", "server.route_ns",
                        "server.shard_snapshot_ns", "server.cut_p50_ns", "server.cut_p99_ns"})
    r.na(m, "ns", no_server);
  r.set_layer("commit_p99_us", us(median(p99_commit)), "us");
  r.set_layer("pam.find_p50_ns", net(sp_find, 0.5), "ns");
  r.set_layer("pam.find_p99_ns", net(sp_find, 0.99), "ns");
  r.set_layer("pam.aug_range_p50_ns", net(sp_aug_range, 0.5), "ns");
  r.set_layer("pam.union_t1_ms", u1, "ms");
  r.set_layer("pam.build_t1_ms", b1, "ms");
  r.set_layer("pam.multi_insert_t1_ms", median(t1_mi), "ms");
  r.set_layer("parallel.union_speedup", u1 / up, "x");
  r.set_layer("parallel.build_speedup", b1 / bp, "x");
  const double forks = d("pam_sched_forks_total");
  r.set_layer("parallel.steal_ratio", forks > 0 ? d("pam_sched_steals_total") / forks : 0, "ratio");
  r.set_layer("parallel.forks_per_op", forks / static_cast<double>(5 * reps), "forks/op");
  const char* no_store = "bulk_table3 has no durability";
  r.na("store.wal_append_p50_ns", "ns", no_store);
  r.na("store.wal_fsync_p50_ns", "ns", no_store);
  r.na("store.wal_fsync_p99_ns", "ns", no_store);
  r.na("store.wal_group_commit_ops_p50", "ops", no_store);
  r.na("store.wal_bytes_per_user_byte", "B/B", no_store);
  r.na("store.checkpoint_ms", "ms", no_store);
  r.na("store.checkpoint_bytes_per_entry", "B", no_store);
  r.set_layer("alloc.limbo_depth_max", static_cast<double>(limbo_max), "count");
  r.set_layer("alloc.epoch_advances_per_s", d("pam_epoch_advances_total") / elapsed, "1/s");
  r.set_layer("alloc.reserved_peak_bytes_per_entry", static_cast<double>(reserved_max) / live, "B");
}

}  // namespace bench
