// Parallel bulk algorithms: union / intersect / difference, filter, build,
// multi-insert / multi-delete, mapReduce, and parallel tree <-> array
// conversion. These are the operations the paper parallelizes with
// fork-join over the tree structure (Figure 2); the work/span bounds are
// those of Table 2.
//
// With blocked leaves enabled the bulk operations work block-at-a-time:
// when a recursion bottoms out at two flat leaf blocks the result is a
// plain sorted-array merge into fresh blocks, and the traversal/projection
// passes stream whole blocks instead of chasing per-entry pointers.
//
// The fork-join granularity knob (par_cutoff) lives in parallel/parallel.h
// with the rest of the runtime knob family.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "pam/tree_ops.h"
#include "parallel/merge_sort.h"
#include "parallel/parallel.h"
#include "parallel/sequence_ops.h"

namespace pam {

template <typename Entry, typename Balance>
struct map_ops : tree_ops<Entry, Balance> {
  using TO = tree_ops<Entry, Balance>;
  using NM = typename TO::NM;
  using node = typename TO::node;
  using K = typename TO::K;
  using V = typename TO::V;
  using entry_t = typename TO::entry_t;
  using lblock = typename TO::lblock;
  using lstore = typename TO::lstore;

  using TO::cnt;
  using TO::dec;
  using TO::expose_own;
  using TO::is_chunk;
  using TO::is_chunk_leaf;
  using TO::join;
  using TO::join2;
  using TO::less;
  using TO::make_single;
  using TO::size;
  using TO::split;

  // --------------------------------------------------------- set algebra --

  // The one split-join recursion behind union, intersect and difference
  // (paper Figure 2), selected by which of the three kinds of key it keeps:
  // keys only in a (KeepA), only in b (KeepB), in both (KeepBoth; the
  // value becomes comb(value_in_a, value_in_b)). Consumes both. Work
  // O(m log(n/m + 1)); two leaf blocks meet in one sorted-array merge.
  template <bool KeepA, bool KeepB, bool KeepBoth, typename Comb>
  static node* merge(node* a, node* b, const Comb& comb) {
    if (a == nullptr || b == nullptr) {
      node* rest = a != nullptr ? a : b;
      if (a != nullptr ? KeepA : KeepB) return rest;
      dec(rest);
      return nullptr;
    }
    if (is_chunk_leaf(a) && is_chunk_leaf(b)) {
      return merge_blocks<KeepA, KeepB, KeepBoth>(a, b, comb);
    }
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        total >= par_cutoff(),
        [&] { l = merge<KeepA, KeepB, KeepBoth>(sp.left, l2, comb); },
        [&] { r = merge<KeepA, KeepB, KeepBoth>(sp.right, r2, comb); });
    bool keep = sp.mid != nullptr ? KeepBoth : KeepB;
    if (sp.mid != nullptr) {
      if constexpr (KeepBoth) m2->value = comb(sp.mid->value, m2->value);
      dec(sp.mid);
    }
    if (keep) return join(l, m2, r);
    dec(m2);
    return join2(l, r);
  }

  // UNION(a, b, comb): all keys of either map; a key in both gets
  // comb(value_in_a, value_in_b). Consumes both.
  template <typename Comb>
  static node* union_(node* a, node* b, const Comb& comb) {
    return merge<true, true, true>(a, b, comb);
  }

  // Plain union: on a duplicate key the second map's value wins.
  static node* union_(node* a, node* b) {
    return union_(a, b, [](const V&, const V& vb) { return vb; });
  }

  // INTERSECT(a, b, comb): keys in both maps, values combined by comb.
  template <typename Comb>
  static node* intersect(node* a, node* b, const Comb& comb) {
    return merge<false, false, true>(a, b, comb);
  }

  // DIFFERENCE(a, b): entries of a whose key is not in b.
  static node* difference(node* a, node* b) {
    return merge<true, false, false>(a, b, [](const V& va, const V&) { return va; });
  }

  // One two-pointer merge over sorted unique runs, shared by every
  // block-at-a-time base case: `a` is a run of entries, `b` a run of any
  // sorted type keyed by key_of_b; each element lands in exactly one of
  // on_a (key only in a), on_b (key only in b), on_both (key in both).
  template <typename BT, typename KeyOfB, typename OnA, typename OnB,
            typename OnBoth>
  static void merge_runs(const entry_t* a, size_t na, const BT* b, size_t nb,
                         const KeyOfB& key_of_b, const OnA& on_a, const OnB& on_b,
                         const OnBoth& on_both) {
    size_t i = 0, j = 0;
    while (i < na && j < nb) {
      if (less(a[i].first, key_of_b(b[j]))) {
        on_a(a[i++]);
      } else if (less(key_of_b(b[j]), a[i].first)) {
        on_b(b[j++]);
      } else {
        on_both(a[i], b[j]);
        i++;
        j++;
      }
    }
    for (; i < na; i++) on_a(a[i]);
    for (; j < nb; j++) on_b(b[j]);
  }

  static const K& entry_key(const entry_t& e) { return e.first; }

  // merge's block-at-a-time base case: one sorted-array merge keeping the
  // selected kinds of key, then a balanced rebuild into fresh blocks.
  template <bool KeepA, bool KeepB, bool KeepBoth, typename Comb>
  static node* merge_blocks(node* a, node* b, const Comb& comb) {
    auto av = NM::read_block(a->blk);
    auto bv = NM::read_block(b->blk);
    std::vector<entry_t> out;
    out.reserve(av.size() + (KeepB ? bv.size() : 0));
    merge_runs(
        av.data(), av.size(), bv.data(), bv.size(), entry_key,
        [&](const entry_t& e) {
          if constexpr (KeepA) out.push_back(e);
        },
        [&](const entry_t& e) {
          if constexpr (KeepB) out.push_back(e);
        },
        [&](const entry_t& ea, const entry_t& eb) {
          if constexpr (KeepBoth) {
            out.emplace_back(ea.first, comb(ea.second, eb.second));
          }
        });
    node* r = TO::from_sorted_unique(out.data(), out.size());
    dec(a);
    dec(b);
    return r;
  }

  // -------------------------------------------------------------- filter --

  // The default prune hook of filter: never drop a subtree unvisited.
  struct no_prune {
    bool operator()(const node*) const { return false; }
  };

  // FILTER(t, pred): entries satisfying pred(k, v). Consumes t. A subtree
  // for which prune(subtree) holds is dropped without being visited (the
  // hook aug_filter sets). Work O(n), span O(log^2 n) (paper Figure 2).
  template <typename Pred, typename Prune = no_prune>
  static node* filter(node* t, const Pred& pred, const Prune& prune = {}) {
    if (t == nullptr) return nullptr;
    if (prune(t)) {
      dec(t);
      return nullptr;
    }
    if (is_chunk_leaf(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      std::vector<entry_t> keep;
      for (size_t i = 0; i < bv.size(); i++) {
        if (pred(es[i].first, es[i].second)) keep.push_back(es[i]);
      }
      node* r = TO::from_sorted_unique(keep.data(), keep.size());
      dec(t);
      return r;
    }
    size_t n = t->size;
    node *l, *m, *r;
    expose_own(t, l, m, r);
    node* l2 = nullptr;
    node* r2 = nullptr;
    par_do_if(
        n >= par_cutoff(), [&] { l2 = filter(l, pred, prune); },
        [&] { r2 = filter(r, pred, prune); });
    if (pred(m->key, m->value)) return join(l2, m, r2);
    dec(m);
    return join2(l2, r2);
  }

  // --------------------------------------------------------------- build --

  // BUILD(seq, comb): parallel sort by key, fold duplicate keys
  // left-to-right with comb, then balanced construction.
  // Work O(n log n), span O(log n) given the sort (paper Table 2).
  template <typename Comb>
  static node* build(std::vector<entry_t> v, const Comb& comb) {
    parallel_sort(v.data(), v.size(),
                  [](const entry_t& x, const entry_t& y) { return less(x.first, y.first); });
    std::vector<entry_t> u = combine_sorted_runs(
        v, [](const K& x, const K& y) { return less(x, y); }, comb);
    return TO::from_sorted_unique(u.data(), u.size());
  }

  static node* build(std::vector<entry_t> v) {
    return build(std::move(v), [](const V&, const V& nv) { return nv; });
  }

  // ---------------------------------------------- multi-insert / delete --

  // The one sorted-batch recursion behind MULTIINSERT and MULTIDELETE: split
  // the sorted duplicate-free batch around the root key and recurse on both
  // sides in parallel. With Insert the batch holds entries, upserted (an
  // existing entry gets comb(old, new)); without, it holds keys, removed.
  // Work O(m log(n/m + 1)) like union. A leaf block absorbs its part of the
  // batch in one array merge.
  template <bool Insert, typename Item, typename Comb>
  static node* apply_sorted(node* t, const Item* a, size_t n, const Comb& comb) {
    auto key_of = [](const Item& x) -> const K& {
      if constexpr (Insert) {
        return x.first;
      } else {
        return x;
      }
    };
    if (n == 0) return t;
    if (t == nullptr) {
      if constexpr (Insert) return TO::from_sorted_unique(a, n);
      return nullptr;
    }
    if (is_chunk_leaf(t)) {
      auto tv = NM::read_block(t->blk);
      std::vector<entry_t> out;
      out.reserve(tv.size() + (Insert ? n : 0));
      merge_runs(
          tv.data(), tv.size(), a, n, key_of,
          [&](const entry_t& e) { out.push_back(e); },
          [&](const Item& upd) {
            if constexpr (Insert) out.push_back(upd);
          },
          [&](const entry_t& old, const Item& upd) {
            if constexpr (Insert) {
              out.emplace_back(old.first, comb(old.second, upd.second));
            }
          });
      node* r = TO::from_sorted_unique(out.data(), out.size());
      dec(t);
      return r;
    }
    node *l, *m, *r;
    expose_own(t, l, m, r);
    size_t idx = std::lower_bound(a, a + n, m->key,
                                  [&](const Item& x, const K& k) {
                                    return less(key_of(x), k);
                                  }) -
                 a;
    bool hit = idx < n && !less(m->key, key_of(a[idx]));
    node* nl = nullptr;
    node* nr = nullptr;
    par_do_if(
        size(l) + size(r) + n >= par_cutoff(),
        [&] { nl = apply_sorted<Insert>(l, a, idx, comb); },
        [&] { nr = apply_sorted<Insert>(r, a + idx + hit, n - idx - hit, comb); });
    if (hit) {
      if constexpr (Insert) {
        m->value = comb(m->value, a[idx].second);
      } else {
        dec(m);
        return join2(nl, nr);
      }
    }
    return join(nl, m, nr);
  }

  // MULTIINSERT(t, updates, comb): duplicate update keys are folded
  // left-to-right first, then merged into the map; an existing entry gets
  // comb(old_in_map, folded_update).
  template <typename Comb>
  static node* multi_insert(node* t, std::vector<entry_t> updates, const Comb& comb) {
    parallel_sort(updates.data(), updates.size(),
                  [](const entry_t& x, const entry_t& y) { return less(x.first, y.first); });
    std::vector<entry_t> u = combine_sorted_runs(
        updates, [](const K& x, const K& y) { return less(x, y); }, comb);
    return apply_sorted<true>(t, u.data(), u.size(), comb);
  }

  static node* multi_insert(node* t, std::vector<entry_t> updates) {
    return multi_insert(t, std::move(updates),
                        [](const V&, const V& nv) { return nv; });
  }

  static node* multi_delete(node* t, std::vector<K> keys) {
    parallel_sort(keys.data(), keys.size(),
                  [](const K& a, const K& b) { return less(a, b); });
    keys.erase(std::unique(keys.begin(), keys.end(),
                           [](const K& a, const K& b) {
                             return !less(a, b) && !less(b, a);
                           }),
               keys.end());
    return apply_sorted<false>(t, keys.data(), keys.size(), [](const V& v, const V&) {
      return v;
    });
  }

  // ----------------------------------------------------------- mapReduce --

  // MAPREDUCE(t, g', f', id): fold g'(k, v) over all entries with the
  // associative f', in parallel over the tree structure (paper Figure 2).
  // Leaf blocks fold with a tight sequential scan.
  template <typename M, typename R, typename B>
  static B map_reduce(const node* t, const M& g2, const R& f2, const B& id) {
    if (t == nullptr) return id;
    if (t->size < par_cutoff()) {
      B lv = map_reduce(t->left, g2, f2, id);
      lv = fold_own(t, g2, f2, std::move(lv));
      B rv = map_reduce(t->right, g2, f2, id);
      return f2(lv, rv);
    }
    B lv = id;
    B rv = id;
    par_do([&] { lv = map_reduce(t->left, g2, f2, id); },
           [&] { rv = map_reduce(t->right, g2, f2, id); });
    lv = fold_own(t, g2, f2, std::move(lv));
    return f2(lv, rv);
  }

  // Batch lookup: out[i] = value at keys[i] (or nullopt), all lookups in
  // parallel. Borrows t; O(m log n) work, O(log n) span. Honors the same
  // granularity knob as the tree recursions so the ablation sweep covers it.
  static void multi_find(const node* t, const K* keys, size_t m,
                         std::optional<V>* out) {
    parallel_for(0, m, [&](size_t i) { out[i] = TO::find(t, keys[i]); },
                 par_cutoff());
  }

  // Same-shape value transform (the paper's `map`): a new tree with
  // identical keys and structure, value' = f(k, v), augmented values
  // recomputed bottom-up. Borrows t; O(n) work, O(log n) span. Chunk nodes
  // map onto fresh blocks of the same count.
  template <typename F>
  static node* map_values(const node* t, const F& f) {
    if (t == nullptr) return nullptr;
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        t->size >= par_cutoff(), [&] { l = map_values(t->left, f); },
        [&] { r = map_values(t->right, f); });
    node* m;
    if (is_chunk(t)) {
      if constexpr (NM::flat_layout) {
        const entry_t* es = t->blk->entries();
        uint32_t c = t->blk->count;
        lblock* nb = lstore::allocate(c);
        entry_t* out = nb->entries();
        for (uint32_t i = 0; i < c; i++) {
          new (&out[i]) entry_t(es[i].first, f(es[i].first, es[i].second));
        }
        lstore::seal(nb);
        m = NM::make_chunk(nb);
      } else {
        auto bv = NM::read_block(t->blk);
        std::vector<entry_t> tmp(bv.data(), bv.data() + bv.size());
        for (entry_t& e : tmp) e.second = f(e.first, e.second);
        m = NM::make_chunk(
            lstore::build(tmp.data(), static_cast<uint32_t>(tmp.size())));
      }
    } else {
      m = make_single(t->key, f(t->key, t->value));
    }
    m->bal = t->bal;  // identical shape => identical balance metadata
    m->left = l;
    m->right = r;
    NM::update(m);
    return m;
  }

  // ----------------------------------------------------------- traversal --

  // Sequential in-order visit: f(key, value).
  template <typename F>
  static void foreach_inorder(const node* t, const F& f) {
    if (t == nullptr) return;
    foreach_inorder(t->left, f);
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < bv.size(); i++) f(es[i].first, es[i].second);
    } else {
      f(t->key, t->value);
    }
    foreach_inorder(t->right, f);
  }

  // Parallel in-order projection into out[0, size(t)): out[i] = f(k_i, v_i)
  // for the i-th entry in key order. One pass, no intermediate entry array;
  // leaf blocks stream straight into the output.
  template <typename Out, typename F>
  static void project_to_array(const node* t, Out* out, const F& f) {
    if (t == nullptr) return;
    size_t ls = size(t->left);
    size_t c = cnt(t);
    par_do_if(
        t->size >= par_cutoff(), [&] { project_to_array(t->left, out, f); },
        [&] { project_to_array(t->right, out + ls + c, f); });
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < c; i++) out[ls + i] = f(es[i].first, es[i].second);
    } else {
      out[ls] = f(t->key, t->value);
    }
  }

  // Parallel in-order materialization into out[0, size(t)).
  static void to_array(const node* t, entry_t* out) {
    project_to_array(t, out,
                     [](const K& k, const V& v) { return entry_t(k, v); });
  }

 private:
  // Fold t's own entries (1 for a plain node, the whole block for a chunk)
  // into acc with f2(acc, g2(k, v)).
  template <typename M, typename R, typename B>
  static B fold_own(const node* t, const M& g2, const R& f2, B acc) {
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < bv.size(); i++) {
        acc = f2(acc, g2(es[i].first, es[i].second));
      }
      return acc;
    }
    return f2(acc, g2(t->key, t->value));
  }
};

}  // namespace pam
