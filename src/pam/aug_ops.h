// Operations specific to augmented maps (below the dashed line of the
// paper's Figure 1): constant-time whole-map sums, logarithmic prefix and
// range sums, pruned filtering, and projected range sums. These are the
// functions whose efficiency the augmentation exists for (paper Table 2).
//
// Blocked leaves: a chunk node contributes its block's cached augmented
// value when the whole block is inside the query; only the (at most two)
// boundary blocks are partially folded entry-by-entry, so the O(log n)
// bounds become O(log n + B) with a tiny constant.
#pragma once

#include <cstddef>

#include "pam/map_ops.h"

namespace pam {

template <typename Entry, typename Balance>
struct aug_ops : map_ops<Entry, Balance> {
  using MO = map_ops<Entry, Balance>;
  using NM = typename MO::NM;
  using node = typename MO::node;
  using K = typename MO::K;
  using A = typename MO::A;
  using traits = typename MO::traits;
  using entry_t = typename MO::entry_t;

  using MO::aug_of;

  static_assert(true, "instantiating any member requires an augmented Entry");

  // AUGVAL(t) = A(t): the augmented value of the whole map, O(1) because it
  // is cached at the root.
  static A aug_val(const node* t) { return aug_of(t); }

  // Aug policy of the range walk (tree_ops::walk): cached augmented values
  // for whole subtrees and whole blocks; partial boundary blocks take the
  // same grouped fold that seals blocks (entry_traits.h).
  struct aug_sum {
    using result = A;
    static A empty() { return traits::identity(); }
    static A whole(const node* t) { return aug_of(t); }
    static A chunk(A l, const node* t, const entry_t* es, size_t i, size_t j,
                   size_t c, A r) {
      A acc = (i == 0 && j == c) ? t->blk->aug : fold_entries_assoc<traits>(es, i, j);
      if (i == 0) acc = traits::combine(l, acc);
      if (j == c) acc = traits::combine(acc, r);
      return acc;
    }
    static A entry(A l, const node* t, A r) {
      return traits::combine(l, traits::combine(traits::base(t->key, t->value), r));
    }
  };

  // The augmented value of the entries with lo <= key <= hi, a null bound
  // being absent. O(log n), allocation-free.
  static A aug_between(const node* t, const K* lo, const K* hi) {
    return MO::range_walk(t, lo, hi, aug_sum{});
  }

  // AUGLEFT(t, k): augmented value of all entries with key <= k
  // (paper Figure 2; its code includes the boundary key). O(log n).
  static A aug_left(const node* t, const K& k) { return aug_between(t, nullptr, &k); }

  // Augmented value of all entries with key >= k. O(log n).
  static A aug_right(const node* t, const K& k) { return aug_between(t, &k, nullptr); }

  // AUGRANGE(t, lo, hi): augmented value of entries with lo <= key <= hi,
  // equivalent to aug_val(range(t, lo, hi)) but O(log n) and allocation-free.
  static A aug_range(const node* t, const K& lo, const K& hi) {
    return aug_between(t, &lo, &hi);
  }

  // AUGFILTER(t, h): equivalent to filter with h(g(k, v)) as the predicate,
  // valid when h(a) || h(b) == h(f(a, b)); whole subtrees whose augmented
  // value fails h are pruned without being visited. Consumes t.
  // Work O(k log(n/k + 1)) for k survivors, span O(log^2 n).
  template <typename Pred>
  static node* aug_filter(node* t, const Pred& h) {
    return MO::filter(
        t, [&](const K& k, const auto& v) { return h(traits::base(k, v)); },
        [&](const node* s) { return !h(s->aug); });
  }

  // AUGPROJECT(g2, f2, t, lo, hi) = g2(aug_range(t, lo, hi)), computed as the
  // f2-sum of g2 over the O(log n) canonical subtrees covering [lo, hi]
  // (whole blocks included; partial boundary blocks fold g2 per entry).
  // Requires f2(g2(a), g2(b)) == g2(f(a, b)) (paper Section 3); the point is
  // that g2 may project a large A (e.g. an inner map) down to a small B
  // without materializing f over inner structures.
  template <typename G2, typename F2, typename B>
  static B aug_project(const node* t, const G2& g2, const F2& f2, const B& id,
                       const K& lo, const K& hi) {
    return MO::range_walk(t, &lo, &hi, projection<G2, F2, B>{g2, f2, id});
  }

 private:
  // Projection policy of the range walk: g2 of cached augmented values,
  // summed with f2.
  template <typename G2, typename F2, typename B>
  struct projection {
    using result = B;
    const G2& g2;
    const F2& f2;
    const B& id;
    B empty() const { return id; }
    B whole(const node* t) const { return t == nullptr ? id : g2(t->aug); }
    B chunk(B l, const node* t, const entry_t* es, size_t i, size_t j, size_t c,
            B r) const {
      B acc = id;
      if (i == 0 && j == c) {
        acc = g2(t->blk->aug);
      } else {
        for (size_t x = i; x < j; x++) {
          acc = f2(acc, g2(traits::base(es[x].first, es[x].second)));
        }
      }
      if (i == 0) acc = f2(l, acc);
      if (j == c) acc = f2(acc, r);
      return acc;
    }
    B entry(B l, const node* t, B r) const {
      return f2(f2(l, g2(traits::base(t->key, t->value))), r);
    }
  };
};

}  // namespace pam
