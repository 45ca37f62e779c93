// The two serving workloads: closed-loop YCSB clients against a kv_store.
//
//   ycsb_a_durable   1M keys, zipf 0.99, 50% get / 50% put, durable: each
//                    client flush()es after every group of its puts, and
//                    client 0 checkpoints once per slice of the timed
//                    phase, at a fixed op count.
//   ycsb_b_rangesum  16M keys, uniform, 90% get / 5% range sum / 5% put,
//                    in memory, no client flushes.
//
// Keys are hashed ranks: key(r) = hash64(r + salt), a bijection, so every
// rank names a distinct key. The preload holds the even ranks of a universe
// of 2N ranks. Client c writes only ranks congruent to c modulo the client
// count, so the final contents are the preload overlaid with each client's
// last write per key, whatever the interleaving.
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/range_sum.h"
#include "common.h"
#include "server/kv_store.h"
#include "util/zipf.h"

namespace bench {
namespace {

using Map = pam::range_sum_map;
using store_t = pam::kv_store<Map>;
using entry_t = Map::entry_t;

struct params {
  bool durable = false;
  size_t preload = 0;        // N: preloaded entries (even ranks of 2N)
  double zipf_theta = 0;     // 0 = uniform keys
  unsigned get_pct = 0;      // the rest after get and range are puts
  unsigned range_pct = 0;
  size_t flush_every = 0;    // a client flush() after this many of its puts
  size_t ckpt_every = 0;     // client 0 checkpoints at this op of each slice
  unsigned ring_bits = 20;   // per-client op ring: 2^ring_bits ops
  uint64_t window_ranks = 0; // range-sum window width, in universe ranks
};

enum op_kind : uint32_t { k_get = 0, k_put = 1, k_range = 2 };

// One pre-generated client operation. For a range sum `key` is the window's
// low key; for a put the written value is `val` plus the ring pass number.
struct op {
  uint64_t key;
  uint32_t rank;
  uint32_t kind_val;  // kind in the top 2 bits, value in the low 30
  op_kind kind() const { return static_cast<op_kind>(kind_val >> 30); }
  uint32_t val() const { return kind_val & ((1u << 30) - 1); }
};

constexpr size_t kShards = 16;
constexpr size_t kDecomposeEvery = 128;  // traced gets split into layers
constexpr size_t kRangeSpanEvery = 16;    // traced range sums carrying spans
constexpr size_t kSampleEvery = 4096;   // traced limbo / pool samples
constexpr size_t kVerifyRangeEvery = 64;
constexpr size_t kRangeProbes = 500000;  // ~2 s of range sums on A
constexpr size_t kCommitProbes = 10000;  // ~2 s of flush() barriers on B
constexpr size_t kProbeGroup = 16;      // puts per flush in the commit probe
constexpr size_t kSegments = 10;       // timed-phase slices, probes between

struct keyspace {
  uint64_t salt;
  uint64_t key(uint64_t rank) const { return pam::hash64(rank + salt); }
  static uint32_t value(uint64_t rank, uint64_t salt2) {
    return static_cast<uint32_t>(1 + pam::hash64(rank ^ salt2) % 1000000);
  }
};

// One histogram and one op count per slice of the timed phase.
struct client_result {
  explicit client_result(size_t slices)
      : get(slices), put(slices), commit(slices), range(slices), ops(slices, 0) {}
  std::vector<lat_hist> get, put, commit, range;
  std::vector<uint64_t> ops;
  uint64_t completed = 0;      // ops issued, in ring order
  uint64_t puts = 0;
  uint64_t errors = 0;
  std::vector<double> ckpt_ms;
  size_t limbo_max = 0;
  size_t reserved_max = 0;
  trace_buf trace;
};

double us(double ns) { return ns / 1e3; }

}  // namespace

void run_serving(const args& a, report& r) {
  params p;
  if (a.workload == "ycsb_a_durable") {
    p.durable = true;
    p.preload = a.tiny ? (1u << 14) : (1u << 20);
    p.zipf_theta = 0.99;
    p.get_pct = 50;
    p.flush_every = 64;
    p.ckpt_every = a.tiny ? (1u << 10) : (1u << 16);
    p.ring_bits = a.tiny ? 14 : 20;
  } else {
    p.preload = a.tiny ? (1u << 16) : (1u << 24);
    p.get_pct = 90;
    p.range_pct = 5;
    p.ring_bits = a.tiny ? 14 : 21;
    p.window_ranks = 2048;  // ~1024 preloaded entries per window
  }
  // Clients leave two cores free: one for the combiner's flusher, one for
  // the default pool's idle workers, which wake and spin looking for work.
  // With only one spare core the box is oversubscribed and the p99 of
  // whichever client shares a core with them flips between runs.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t C = std::min<size_t>(3, hw > 3 ? hw - 2 : 1);
  const uint64_t N = p.preload, U = 2 * N;
  const keyspace ks{pam::hash64(a.seed * 0x9e3779b97f4a7c15ULL + 17)};
  const uint64_t vsalt = pam::hash64(a.seed + 0x5bd1e995);
  const uint64_t window_keys =
      p.window_ranks == 0 ? 0 : (~uint64_t{0} / U) * p.window_ranks;
  std::printf("workload %s: %zu preloaded u64 keys in %zu shards, %zu closed-loop clients, "
              "durable=%d, zipf=%.2f, mix get/range/put = %u/%u/%u\n",
              a.workload.c_str(), static_cast<size_t>(N), kShards, C, p.durable ? 1 : 0,
              p.zipf_theta, p.get_pct, p.range_pct, 100 - p.get_pct - p.range_pct);

  // ---------------------------------------------------- input generation --
  std::vector<entry_t> preload(N);
  pam::parallel_for(0, N, [&](size_t i) {
    preload[i] = {ks.key(2 * i), keyspace::value(2 * i, vsalt)};
  });
  const size_t R = size_t{1} << p.ring_bits;
  std::vector<std::vector<op>> rings(C, std::vector<op>(R));
  {
    std::vector<std::thread> gens;
    for (size_t c = 0; c < C; c++) {
      gens.emplace_back([&, c] {
        const uint64_t cs = pam::hash64(a.seed * 1000003 + c);
        std::optional<pam::zipf_generator> z;
        if (p.zipf_theta > 0) z.emplace(U, p.zipf_theta, cs);
        for (size_t j = 0; j < R; j++) {
          uint64_t h = pam::hash64(cs + 0x1234567 * (j + 1));
          unsigned pct = static_cast<unsigned>(h % 100);
          uint64_t h2 = pam::hash64(h);
          op o{};
          if (pct < p.get_pct) {
            // A draws from the whole universe (misses allowed); B reads
            // preloaded keys only, as YCSB-B does.
            uint64_t rank = z ? (*z)() : 2 * (h2 % N);
            o = {ks.key(rank), static_cast<uint32_t>(rank), k_get << 30};
          } else if (pct < p.get_pct + p.range_pct) {
            o = {h2, 0, k_range << 30};
          } else {
            uint64_t rank = z ? (*z)() : h2 % U;
            rank = rank - rank % C + c;
            if (rank >= U) rank -= C;
            uint32_t v = static_cast<uint32_t>(1 + pam::hash64(h2 ^ vsalt) % 1000000);
            o = {ks.key(rank), static_cast<uint32_t>(rank), (k_put << 30) | v};
          }
          rings[c][j] = o;
        }
      });
    }
    for (auto& t : gens) t.join();
  }
  // Probe inputs: range windows for A, fresh keys (ranks >= U) for B's
  // commit probe, and the kernel-probe maps over further fresh ranks.
  std::vector<uint64_t> probe_lo(kRangeProbes);
  for (size_t i = 0; i < kRangeProbes; i++) probe_lo[i] = pam::hash64(vsalt + 77 * i);
  const uint64_t probe_window = (~uint64_t{0} / U) * 2048;
  const size_t small_n = std::max<size_t>(1, N / 1000), mi_n = N / 4;
  std::vector<entry_t> small_e(small_n), mi_e(mi_n);
  const uint64_t fresh_base = uint64_t{1} << 40;
  for (size_t i = 0; i < small_n; i++)
    small_e[i] = {ks.key(fresh_base + i), keyspace::value(fresh_base + i, vsalt)};
  pam::parallel_for(0, mi_n, [&](size_t i) {
    uint64_t rk = 2 * fresh_base + i;
    mi_e[i] = {ks.key(rk), keyspace::value(rk, vsalt)};
  });
  const size_t aug_q = std::min<size_t>(N / 4, size_t{1} << 20);
  std::vector<uint64_t> aug_lo(aug_q);
  pam::parallel_for(0, aug_q, [&](size_t i) { aug_lo[i] = pam::hash64(vsalt ^ (i + 1) * 31); });
  const uint64_t aug_window = (~uint64_t{0} / U) * 128;

  // --------------------------------------------------------------- set-up --
  namespace fs = std::filesystem;
  const std::string wal_dir = a.work_dir + "/wal-" + a.workload;
  auto make_opts = [&] {
    store_t::options o;
    o.num_shards = kShards;
    if (p.durable) o.durability = pam::store::durability_options{wal_dir};
    return o;
  };
  std::unique_ptr<store_t> store;
  std::vector<double> setup_s, build_ms;
  while (more_setups(setup_s)) {
    store.reset();
    store_t::trim_memory();
    if (p.durable) fs::remove_all(wal_dir);
    std::vector<entry_t> copy = preload;
    uint64_t t0 = now_ns();
    Map m(std::move(copy));
    uint64_t t1 = now_ns();
    store = std::make_unique<store_t>(std::move(m), make_opts());
    uint64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  if (store->size() != N) r.fail("preloaded store size");

  // ---------------------------------------------------------- timed phase --
  // The timed phase runs in kSegments slices. Between slices the clients
  // wait while the main thread runs one slice of this workload's probes, so
  // probes and client ops sample the same stretch of time on a shared host.
  // In a traced run the second half of the slices carries spans.
  std::vector<std::unique_ptr<client_result>> res;
  for (size_t c = 0; c < C; c++) {
    res.push_back(std::make_unique<client_result>(kSegments));
    res.back()->trace = trace_buf(a.trace ? (size_t{1} << 19) : 0);
  }
  auto traced_seg = [&](size_t seg) { return a.trace && seg >= kSegments / 2 ? 1 : 0; };
  const uint64_t seg_ns = static_cast<uint64_t>(a.seconds * 1e9) / kSegments;
  std::mutex seg_mu;
  std::condition_variable seg_cv;
  size_t seg_started = 0, seg_finished = 0;  // guarded by seg_mu
  uint64_t seg_deadline = 0;                 // guarded by seg_mu
  auto client = [&](size_t c) {
    client_result& cr = *res[c];
    const std::vector<op>& ring = rings[c];
    const size_t mask = R - 1;
    size_t puts_since_flush = 0, gets = 0, ranges = 0;
    uint64_t i = 0;
    for (size_t seg = 0; seg < kSegments; seg++) {
      uint64_t deadline;
      {
        std::unique_lock<std::mutex> lock(seg_mu);
        seg_cv.wait(lock, [&] { return seg_started > seg; });
        deadline = seg_deadline;
      }
      const int h = traced_seg(seg);
      cr.trace.set_enabled(h == 1);
      uint64_t seg_ops = 0, t = now_ns();
      while (true) {
        const op& o = ring[i & mask];
        const uint64_t pass = i >> p.ring_bits;
        try {
          switch (o.kind()) {
            case k_get: {
              std::optional<uint64_t> v;
              if (h == 1 && ++gets % kDecomposeEvery == 0) {
                trace_buf& tb = cr.trace;
                uint32_t sp = tb.begin(sp_get_decomposed);
                uint32_t s1 = tb.begin(sp_route, sp);
                size_t s = store->shards().shard_of(o.key);
                tb.end(s1);
                uint32_t s2 = tb.begin(sp_shard_snapshot, sp);
                Map m = store->shards().snapshot_shard(s);
                tb.end(s2);
                uint32_t s3 = tb.begin(sp_find, sp);
                v = m.find(o.key);
                tb.end(s3);
                tb.end(sp);
              } else {
                v = store->get(o.key);
              }
              if (o.rank % 2 == 0 && !v.has_value()) cr.errors++;  // preloaded keys never vanish
              uint64_t t2 = now_ns();
              cr.get[seg].record(t2 - t);
              t = t2;
              break;
            }
            case k_put: {
              store->put(o.key, o.val() + pass);
              cr.puts++;
              uint64_t t2 = now_ns();
              cr.put[seg].record(t2 - t);
              t = t2;
              if (p.flush_every != 0 && ++puts_since_flush == p.flush_every) {
                puts_since_flush = 0;
                uint32_t sp = cr.trace.begin(sp_flush);
                store->flush();
                cr.trace.end(sp);
                t2 = now_ns();
                cr.commit[seg].record(t2 - t);
                t = t2;
              }
              break;
            }
            case k_range: {
              trace_buf& tb = cr.trace;
              const bool traced = h == 1 && ++ranges % kRangeSpanEvery == 0;
              tb.set_enabled(traced);
              uint32_t sp = tb.begin(sp_range_sum);
              uint32_t s1 = tb.begin(sp_cut, sp);
              auto cut = store->snapshot();
              tb.end(s1);
              uint32_t s2 = tb.begin(sp_aug_range, sp);
              uint64_t sum = cut.aug_range(o.key, sat_add(o.key, window_keys));
              tb.end(s2);
              tb.end(sp);
              tb.set_enabled(h == 1);
              uint64_t t2 = now_ns();
              cr.range[seg].record(t2 - t);
              if (i % kVerifyRangeEvery == 0) {  // aug fold vs an in-order scan
                uint64_t scan = 0;
                cut.for_each_range(o.key, sat_add(o.key, window_keys),
                                   [&](uint64_t, uint64_t v) { scan += v; });
                if (scan != sum) cr.errors++;
                t2 = now_ns();
              }
              t = t2;
              break;
            }
          }
        } catch (const std::exception&) {
          cr.errors++;
          t = now_ns();
        }
        cr.ops[seg]++;
        i++;
        // One checkpoint per slice, at a fixed op of client 0, so every
        // slice carries the same background stall.
        if (p.ckpt_every != 0 && c == 0 && ++seg_ops == p.ckpt_every) {
          uint32_t sp = cr.trace.begin(sp_checkpoint);
          try {
            store->save_checkpoint();
          } catch (const std::exception&) {
            cr.errors++;
          }
          cr.trace.end(sp);
          uint64_t t2 = now_ns();
          cr.ckpt_ms.push_back(static_cast<double>(t2 - t) / 1e6);
          t = t2;
        }
        if (a.trace && c == 0 && i % kSampleEvery == 0) {
          cr.limbo_max = std::max(cr.limbo_max, pam::epoch::pending());
          cr.reserved_max = std::max(cr.reserved_max, pam::block_pool::reserved_bytes_all());
          t = now_ns();
        }
        if (t >= deadline) break;
      }
      if (seg + 1 == kSegments) {
        // The final flush is the client's last durable ack; it counts in
        // the timed phase.
        uint64_t t1 = now_ns();
        try {
          store->flush();
        } catch (const std::exception&) {
          cr.errors++;
        }
        cr.commit[seg].record(now_ns() - t1);
      }
      {
        std::lock_guard<std::mutex> lock(seg_mu);
        seg_finished++;
      }
      seg_cv.notify_all();
    }
    cr.completed = i;
  };

  // Probe state. Each slice runs 1/kSegments of the range-sum probe (A) or
  // of the commit probe (B); every other gap runs one kernel repetition.
  const bool commit_in_mix = p.flush_every != 0, range_in_mix = p.range_pct != 0;
  std::vector<lat_hist> probe(kSegments);
  trace_buf main_trace(a.trace ? size_t{1} << 17 : 0);
  uint64_t probe_rank = U;  // the commit probe writes fresh ranks from U up
  std::vector<double> union_ms, union_small_ms, mi_ms, aug_ms;
  const Map small(small_e);
  const uint64_t mi_sum = [&] {
    uint64_t s = 0;
    for (auto& e : mi_e) s += e.second;
    return s;
  }();
  std::vector<uint64_t> aug_out(aug_q);
  auto kernel_rep = [&] {
    store_t::trim_memory();  // each repetition starts from the same pools
    const Map whole = store->snapshot().merged();
    const uint64_t wsum = whole.aug_val(), wn = whole.size();
    auto plus = [](uint64_t x, uint64_t y) { return x + y; };
    uint64_t t0 = now_ns();
    Map m = Map::map_union(whole, whole, plus);
    union_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (m.size() != wn || m.aug_val() != 2 * wsum) r.fail("kernel probe: union(n, n)");
    m = Map();
    t0 = now_ns();
    m = Map::map_union(whole, small, plus);
    union_small_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (m.size() != wn + small.size() || m.aug_val() != wsum + small.aug_val())
      r.fail("kernel probe: union(n, n/1000)");
    m = Map();
    std::vector<entry_t> copy = mi_e;
    t0 = now_ns();
    m = Map::multi_insert(whole, std::move(copy));
    mi_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (m.size() != wn + mi_n || m.aug_val() != wsum + mi_sum) r.fail("kernel probe: multi_insert");
    m = Map();
    t0 = now_ns();
    pam::parallel_for(0, aug_q, [&](size_t q) {
      aug_out[q] = whole.aug_range(aug_lo[q], sat_add(aug_lo[q], aug_window));
    });
    aug_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    uint64_t bad = 0;
    for (size_t q = union_ms.size(); q < aug_q; q += 997) {  // spot-check by scanning
      uint64_t scan = 0;
      whole.view(aug_lo[q], sat_add(aug_lo[q], aug_window))
          .for_each([&](uint64_t, uint64_t v) { scan += v; });
      if (scan != aug_out[q]) bad++;
    }
    if (bad != 0) r.fail("kernel probe: aug_range batch vs scan", bad);
    r.attempted += 4;
  };
  auto probe_slice = [&](size_t seg) {
    if (!range_in_mix) {
      uint64_t bad = 0;
      for (size_t i = seg * kRangeProbes / kSegments; i < (seg + 1) * kRangeProbes / kSegments; i++) {
        uint64_t lo = probe_lo[i];
        main_trace.set_enabled(traced_seg(seg) == 1 && i % kRangeSpanEvery == 0);
        uint64_t t0 = now_ns();
        uint32_t sp = main_trace.begin(sp_range_sum);
        uint32_t s1 = main_trace.begin(sp_cut, sp);
        auto cut = store->snapshot();
        main_trace.end(s1);
        uint32_t s2 = main_trace.begin(sp_aug_range, sp);
        uint64_t sum = cut.aug_range(lo, sat_add(lo, probe_window));
        main_trace.end(s2);
        main_trace.end(sp);
        probe[seg].record(now_ns() - t0);
        r.attempted++;
        if (i % kVerifyRangeEvery != 0) continue;
        uint64_t scan = 0;
        cut.for_each_range(lo, sat_add(lo, probe_window), [&](uint64_t, uint64_t v) { scan += v; });
        if (scan != sum) bad++;
      }
      if (bad != 0) r.fail("range-sum probe vs scan", bad);
    }
    if (!commit_in_mix) {
      for (size_t i = 0; i < kCommitProbes / kSegments; i++) {
        for (size_t j = 0; j < kProbeGroup; j++, probe_rank++)
          store->put(ks.key(probe_rank), keyspace::value(probe_rank, vsalt));
        uint64_t t0 = now_ns();
        store->flush();
        probe[seg].record(now_ns() - t0);
        r.attempted += kProbeGroup + 1;
      }
    }
    if (seg % 2 == 1) kernel_rep();
  };

  const auto scrape0 = store->metrics();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < C; c++) threads.emplace_back(client, c);
  std::vector<double> slice_s(kSegments);  // client time per slice, probes excluded
  for (size_t seg = 0; seg < kSegments; seg++) {
    const uint64_t t0 = now_ns();
    {
      std::lock_guard<std::mutex> lock(seg_mu);
      seg_deadline = t0 + seg_ns;
      seg_finished = 0;
      seg_started = seg + 1;
    }
    seg_cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(seg_mu);
      seg_cv.wait(lock, [&] { return seg_finished == C; });
    }
    slice_s[seg] = static_cast<double>(now_ns() - t0) / 1e9;
    try {
      probe_slice(seg);
    } catch (const std::exception& e) {
      std::printf("probe threw: %s\n", e.what());
      r.fail("probe threw");
    }
  }
  for (auto& t : threads) t.join();
  const auto scrape1 = store->metrics();

  uint64_t ops = 0, puts = 0;
  std::vector<double> ckpt_ms;
  size_t limbo_max = 0, reserved_max = 0;
  for (auto& cr : res) {
    for (uint64_t n : cr->ops) ops += n;
    puts += cr->puts;
    ckpt_ms.insert(ckpt_ms.end(), cr->ckpt_ms.begin(), cr->ckpt_ms.end());
    limbo_max = std::max(limbo_max, cr->limbo_max);
    reserved_max = std::max(reserved_max, cr->reserved_max);
    if (cr->errors != 0) r.fail("client op errors (missing preloaded key, range scan mismatch or exception)", cr->errors);
  }
  r.attempted += ops;

  // Each statistic of the timed phase is taken per slice (all clients
  // pooled), and the median over the untraced slices is reported: a disk or
  // CPU hiccup of a few seconds on a shared host hits a few slices and does
  // not decide the run. A traced run compares its traced slices with them.
  std::vector<size_t> plain_segs, traced_segs;
  for (size_t seg = 0; seg < kSegments; seg++)
    (traced_seg(seg) == 1 ? traced_segs : plain_segs).push_back(seg);
  using slice_hists = std::vector<lat_hist> client_result::*;
  auto slice_hist = [&](slice_hists kind, size_t seg) {
    lat_hist m;
    for (auto& cr : res) m.merge(((*cr).*kind)[seg]);
    return m;
  };
  auto over_slices = [&](const std::vector<size_t>& segs, auto&& per_slice) {
    std::vector<double> v;
    for (size_t seg : segs) v.push_back(per_slice(seg));
    return median(v);
  };
  auto lat = [&](slice_hists kind, double q, const std::vector<size_t>& segs = {}) {
    return over_slices(segs.empty() ? plain_segs : segs,
                       [&](size_t seg) { return slice_hist(kind, seg).quantile_ns(q); });
  };
  auto probe_lat = [&](double q) {
    return over_slices(plain_segs, [&](size_t seg) { return probe[seg].quantile_ns(q); });
  };
  auto throughput = [&](const std::vector<size_t>& segs) {
    return over_slices(segs, [&](size_t seg) {
      uint64_t n = 0;
      for (auto& cr : res) n += cr->ops[seg];
      return static_cast<double>(n) / slice_s[seg];
    });
  };
  auto samples = [&](slice_hists kind) {
    uint64_t n = 0;
    for (size_t seg : plain_segs) n += slice_hist(kind, seg).count();
    return n;
  };
  const double ops_per_s = throughput(plain_segs);

  // ------------------------------------------------------- output checks --
  // Expected contents: the preload overlaid with each client's last write,
  // plus the commit probe's fresh keys.
  std::vector<uint32_t> expect(U, 0);  // by rank; 0 = absent (values are >= 1)
  for (uint64_t i = 0; i < N; i++) expect[2 * i] = static_cast<uint32_t>(preload[i].second);
  for (size_t c = 0; c < C; c++) {
    const auto& ring = rings[c];
    for (uint64_t i = 0; i < res[c]->completed; i++) {
      const op& o = ring[i & (R - 1)];
      if (o.kind() == k_put) expect[o.rank] = o.val() + static_cast<uint32_t>(i >> p.ring_bits);
    }
  }
  uint64_t exp_n = 0, exp_sum = 0, exp_fp = 0;
  for (uint64_t rk = 0; rk < probe_rank; rk++) {
    uint64_t v = rk < U ? expect[rk] : keyspace::value(rk, vsalt);
    if (v == 0) continue;
    exp_n++;
    exp_sum += v;
    exp_fp += entry_fp(ks.key(rk), v);
  }
  if (a.corrupt) exp_sum += 1;
  auto check_contents = [&](const store_t& s, const char* what) {
    auto cut = s.snapshot();
    uint64_t n = 0, sum = 0, fp = 0;
    cut.for_each([&](uint64_t k, uint64_t v) {
      n++;
      sum += v;
      fp += entry_fp(k, v);
    });
    uint64_t aug = cut.aug_range(0, ~uint64_t{0});
    r.attempted += 4;
    if (n != exp_n) r.fail((std::string(what) + ": entry count").c_str());
    if (fp != exp_fp) r.fail((std::string(what) + ": entry fingerprint").c_str());
    if (sum != exp_sum) r.fail((std::string(what) + ": value sum").c_str());
    if (aug != exp_sum) r.fail((std::string(what) + ": aug sum").c_str());
  };
  check_contents(*store, "final contents");
  {
    uint64_t bad = 0;
    for (size_t i = 0; i < 1000; i++) {
      uint64_t rk = pam::hash64(vsalt + i) % U;
      auto v = store->get(ks.key(rk));
      uint64_t want = expect[rk];
      if (want == 0 ? v.has_value() : (!v.has_value() || *v != want)) bad++;
    }
    r.attempted += 1000;
    if (bad != 0) r.fail("point reads of final contents", bad);
  }

  {
    uint64_t bad = 0;
    for (uint64_t q = U; q < probe_rank; q++) {
      auto v = store->get(ks.key(q));
      if (!v.has_value() || *v != keyspace::value(q, vsalt)) bad++;
    }
    if (bad != 0) r.fail("commit probe read-back", bad);
  }
  // Commit and range-sum latencies come from the mix where it issues them,
  // otherwise from this workload's probe.
  uint64_t probe_n = 0;
  for (size_t seg : plain_segs) probe_n += probe[seg].count();
  const uint64_t commit_n = commit_in_mix ? samples(&client_result::commit) : probe_n;
  const uint64_t range_n = range_in_mix ? samples(&client_result::range) : probe_n;
  const double commit_p50 = commit_in_mix ? lat(&client_result::commit, 0.5) : probe_lat(0.5);
  const double commit_p99 = commit_in_mix ? lat(&client_result::commit, 0.99) : probe_lat(0.99);
  const double range_p50 = range_in_mix ? lat(&client_result::range, 0.5) : probe_lat(0.5);
  const double range_p99 = range_in_mix ? lat(&client_result::range, 0.99) : probe_lat(0.99);
  const double get_p50 = lat(&client_result::get, 0.5);

  // Memory, at the end of the run.
  store_t::trim_memory();
  const size_t live = store->size();
  const double mem_per_entry =
      static_cast<double>(pam::block_pool::reserved_bytes_all()) / static_cast<double>(live);

  // ------------------------------------------------------ recovery check --
  if (p.durable) {
    store.reset();  // every client op was acked by a flush() before this
    uint64_t t0 = now_ns();
    store_t::recovery_stats rs;
    try {
      store_t rec = store_t::recover(pam::store::durability_options{wal_dir}, make_opts(), &rs);
      std::printf("recovery: %.1f ms, %llu checkpoint files, %llu WAL records replayed\n",
                  static_cast<double>(now_ns() - t0) / 1e6,
                  static_cast<unsigned long long>(rs.checkpoint_files),
                  static_cast<unsigned long long>(rs.wal_records));
      if (!rs.recovered) r.fail("recovery found nothing durable");
      check_contents(rec, "recovered contents");
    } catch (const std::exception& e) {
      std::printf("recovery threw: %s\n", e.what());
      r.fail("recovery threw");
    }
    fs::remove_all(wal_dir);
  }

  // ------------------------------------------------------------- metrics --
  std::printf("samples: get %llu, put %llu, commit %llu, range_sum %llu; "
              "ops %llu over %.3f s; %zu checkpoints\n",
              static_cast<unsigned long long>(samples(&client_result::get)),
              static_cast<unsigned long long>(samples(&client_result::put)),
              static_cast<unsigned long long>(commit_n),
              static_cast<unsigned long long>(range_n),
              static_cast<unsigned long long>(ops), a.seconds, ckpt_ms.size());
  std::printf("ops_per_s per slice:");
  for (size_t seg = 0; seg < kSegments; seg++)
    std::printf(" %.0f", throughput({seg}));
  std::printf("\n");
  if (p.flush_every == 0) std::printf("commit_* come from the flush() probe between slices\n");
  if (p.range_pct == 0) std::printf("range_sum_* come from the range-sum probe between slices\n");
  std::printf("union/multi_insert/aug_range come from the kernel probe on the contents between "
              "slices (n=%zu at the end); build_ms is the map build inside set-up\n", live);
  r.set("setup_s", median(setup_s), "s");
  r.set("ops_per_s", ops_per_s, "ops/s");
  r.set("get_p50_us", us(get_p50), "us");
  r.set("get_p99_us", us(lat(&client_result::get, 0.99)), "us");
  r.set("put_p99_us", us(lat(&client_result::put, 0.99)), "us");
  r.set("commit_p50_us", us(commit_p50), "us");
  r.set("commit_p99_us", us(commit_p99), "us");
  r.set("range_sum_p50_us", us(range_p50), "us");
  r.set("range_sum_p99_us", us(range_p99), "us");
  r.set("mem_bytes_per_entry", mem_per_entry, "B");
  r.set("union_ms", median(union_ms), "ms");
  r.set("union_small_ms", median(union_small_ms), "ms");
  r.set("multi_insert_ms", median(mi_ms), "ms");
  r.set("build_ms", median(build_ms), "ms");
  r.set("aug_range_ms", median(aug_ms), "ms");

  if (!a.trace) return;

  // --------------------------------------------------- traced per-layer --
  std::printf("tracing overhead (traced slices minus untraced slices): ops_per_s %+.0f, "
              "get_p50_us %+.4f, put_p99_us %+.4f, commit_p50_us %+.3f, range_sum_p50_us %+.3f\n",
              throughput(traced_segs) - ops_per_s,
              us(lat(&client_result::get, 0.5, traced_segs) - get_p50),
              us(lat(&client_result::put, 0.99, traced_segs) - lat(&client_result::put, 0.99)),
              us(lat(&client_result::commit, 0.5, traced_segs) - lat(&client_result::commit, 0.5)),
              us(lat(&client_result::range, 0.5, traced_segs) - lat(&client_result::range, 0.5)));
  std::vector<const trace_buf*> bufs;
  for (auto& cr : res) bufs.push_back(&cr->trace);
  bufs.push_back(&main_trace);
  const span_stats st = summarize(bufs);
  const double ovh = span_overhead_ns();
  auto net = [&](span_name s, double q) {
    return std::max(0.0, quantile(st.dur_ns[s], q) - ovh);
  };
  uint64_t dropped = 0;
  for (auto* b : bufs) dropped += b->dropped();
  std::printf("spans: clock overhead %.1f ns per span (subtracted); %llu dropped\n", ovh,
              static_cast<unsigned long long>(dropped));
  for (uint32_t s = 0; s < sp_count; s++) {
    if (st.dur_ns[s].empty()) continue;
    std::printf("  span %-15s n=%-8zu p50 %10.0f ns  p99 %10.0f ns  self p50 %10.0f ns\n",
                span_label(s), st.dur_ns[s].size(), quantile(st.dur_ns[s], 0.5),
                quantile(st.dur_ns[s], 0.99), quantile(st.self_ns[s], 0.5));
  }
  write_trace(a.work_dir + "/trace-" + a.workload + ".csv", bufs);

  auto d = [&](const char* name) {
    return static_cast<double>(counter_of(scrape1, name) - counter_of(scrape0, name));
  };
  auto hq = [&](const char* name, double q) {
    const auto* hv = hist_of(scrape1, name);
    if (hv == nullptr) return 0.0;
    return q == 0.5 ? hv->p50 : hv->p99;
  };
  const double enq = d("pam_combiner_ops_enqueued_total");
  r.set_layer("server.combiner_coalesce_ratio", enq > 0 ? d("pam_combiner_ops_committed_total") / enq : 0, "ratio");
  r.set_layer("server.combiner_batch_ops_p50", hq("pam_combiner_batch_ops", 0.5), "ops");
  r.set_layer("server.combiner_queue_wait_p99_ns", hq("pam_combiner_enqueue_to_flush_ns", 0.99), "ns");
  const double route = net(sp_route, 0.5), snap = net(sp_shard_snapshot, 0.5),
               find50 = net(sp_find, 0.5);
  r.set_layer("server.route_ns", route, "ns");
  r.set_layer("server.shard_snapshot_ns", snap, "ns");
  r.set_layer("server.get_parts_over_get_p50", (route + snap + find50) / get_p50, "ratio");
  std::printf("get decomposition: route %.0f + shard_snapshot %.0f + find %.0f = %.0f ns vs get_p50 %.0f ns\n",
              route, snap, find50, route + snap + find50, get_p50);
  r.set_layer("server.cut_p50_ns", net(sp_cut, 0.5), "ns");
  r.set_layer("server.cut_p99_ns", net(sp_cut, 0.99), "ns");
  const double cuts = d("pam_cut_attempts_total");
  r.set_layer("server.cut_retry_ratio", cuts > 0 ? d("pam_cut_retries_total") / cuts : 0, "ratio");
  r.set_layer("server.cut_fallback_ratio", cuts > 0 ? d("pam_cut_writer_fallbacks_total") / cuts : 0, "ratio");
  r.set_layer("pam.find_p50_ns", find50, "ns");
  r.set_layer("pam.find_p99_ns", net(sp_find, 0.99), "ns");
  r.set_layer("pam.aug_range_p50_ns", net(sp_aug_range, 0.5), "ns");
  r.set_layer("commit_p99_us", us(commit_p99), "us");
  const char* no_t1 = "T1 runs are part of bulk_table3 only";
  r.na("pam.union_t1_ms", "ms", no_t1);
  r.na("pam.build_t1_ms", "ms", no_t1);
  r.na("pam.multi_insert_t1_ms", "ms", no_t1);
  r.na("parallel.union_speedup", "x", no_t1);
  r.na("parallel.build_speedup", "x", no_t1);
  const char* no_fork = "client threads are outside the worker pool, so the serving path forks no tasks";
  r.na("parallel.steal_ratio", "ratio", no_fork);
  r.na("parallel.forks_per_op", "forks/op", no_fork);
  if (p.durable) {
    r.set_layer("store.wal_append_p50_ns", hq("pam_wal_append_ns", 0.5), "ns");
    r.set_layer("store.wal_fsync_p50_ns", hq("pam_wal_fsync_ns", 0.5), "ns");
    r.set_layer("store.wal_fsync_p99_ns", hq("pam_wal_fsync_ns", 0.99), "ns");
    r.set_layer("store.wal_group_commit_ops_p50", hq("pam_wal_group_commit_ops", 0.5), "ops");
    r.set_layer("store.wal_bytes_per_user_byte", d("pam_wal_bytes_total") / (16.0 * static_cast<double>(puts)), "B/B");
    r.set_layer("store.checkpoint_ms", median(ckpt_ms), "ms");
    const double ck = d("pam_ckpt_total");
    r.set_layer("store.checkpoint_bytes_per_entry",
                ck > 0 ? d("pam_ckpt_bytes_total") / ck / static_cast<double>(live) : 0, "B");
  } else {
    const char* why = "this workload runs without durability";
    r.na("store.wal_append_p50_ns", "ns", why);
    r.na("store.wal_fsync_p50_ns", "ns", why);
    r.na("store.wal_fsync_p99_ns", "ns", why);
    r.na("store.wal_group_commit_ops_p50", "ops", why);
    r.na("store.wal_bytes_per_user_byte", "B/B", why);
    r.na("store.checkpoint_ms", "ms", why);
    r.na("store.checkpoint_bytes_per_entry", "B", why);
  }
  r.set_layer("alloc.limbo_depth_max", static_cast<double>(limbo_max), "count");
  r.set_layer("alloc.epoch_advances_per_s", d("pam_epoch_advances_total") / a.seconds, "1/s");
  r.set_layer("alloc.reserved_peak_bytes_per_entry", static_cast<double>(reserved_max) / static_cast<double>(live), "B");
}

}  // namespace bench
