// Tests for the utility layer: hashing, PRNG, Zipf sampling, env knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "util/env.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

TEST(Hash64, DeterministicAndWellMixed) {
  EXPECT_EQ(pam::hash64(42), pam::hash64(42));
  EXPECT_NE(pam::hash64(42), pam::hash64(43));
  // Avalanche smoke check: flipping one input bit flips ~half the output.
  int total_flips = 0;
  for (int bit = 0; bit < 64; bit += 7) {
    uint64_t a = pam::hash64(0x12345678), b = pam::hash64(0x12345678ull ^ (1ull << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  double avg = total_flips / 10.0;
  EXPECT_GT(avg, 20.0);
  EXPECT_LT(avg, 44.0);
}

TEST(RandomGen, StreamsAreReproducibleAndIndependent) {
  pam::random_gen a(5), b(5), c(6);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  // fork() derives decorrelated streams
  pam::random_gen base(9);
  auto f1 = base.fork(1), f2 = base.fork(2);
  EXPECT_NE(f1.next(), f2.next());
  // ith() is a pure function
  pam::random_gen d(11);
  EXPECT_EQ(d.ith(100), pam::random_gen(11).ith(100));
}

TEST(RandomGen, BoundedAndDoubleRanges) {
  pam::random_gen g(3);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(g.next_bounded(17), 17u);
    double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomPermutation, IsAPermutation) {
  auto p = pam::random_permutation(1000, 5);
  std::set<uint64_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 999u);
  // not the identity (astronomically unlikely)
  bool identity = true;
  for (size_t i = 0; i < p.size(); i++)
    if (p[i] != i) identity = false;
  EXPECT_FALSE(identity);
}

TEST(Zipf, RanksAreSkewedAndInRange) {
  pam::zipf_generator z(1000, 1.0, 42);
  std::map<size_t, size_t> freq;
  for (int i = 0; i < 200000; i++) {
    size_t r = z();
    ASSERT_LT(r, 1000u);
    freq[r]++;
  }
  // Zipf s=1: f(0)/f(9) ~ 10; allow wide slack.
  ASSERT_TRUE(freq.count(0));
  ASSERT_TRUE(freq.count(9));
  double ratio = static_cast<double>(freq[0]) / static_cast<double>(freq[9]);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 25.0);
}

TEST(Zipf, Deterministic) {
  pam::zipf_generator a(100, 1.2, 7), b(100, 1.2, 7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a(), b());
}

TEST(Zipf, FrequenciesMatchTheDistribution) {
  // Empirical rank frequencies must track p(r) = (1/(r+1)^s) / H_{n,s}.
  // With 500k samples the top ranks have tight expected counts; allow 15%
  // relative slack plus a small absolute floor for sampling noise.
  const size_t n = 200;
  const double s = 1.0;
  const int samples = 500000;
  pam::zipf_generator z(n, s, 99);
  std::vector<size_t> freq(n, 0);
  for (int i = 0; i < samples; i++) {
    size_t r = z();
    ASSERT_LT(r, n);
    freq[r]++;
  }
  double harmonic = 0.0;
  for (size_t r = 0; r < n; r++) harmonic += 1.0 / std::pow(double(r + 1), s);
  for (size_t r : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{10},
                   size_t{50}, size_t{100}}) {
    double expected = samples * (1.0 / std::pow(double(r + 1), s)) / harmonic;
    EXPECT_NEAR(double(freq[r]), expected, 0.15 * expected + 50)
        << "rank " << r;
  }
  // The whole distribution sums to the sample count (no out-of-range hits).
  size_t total = 0;
  for (size_t f : freq) total += f;
  EXPECT_EQ(total, size_t(samples));
}

TEST(Env, ParsesAndDefaults) {
  ::setenv("PAM_TEST_ENV_L", "123", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_L", 7), 123);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_MISSING", 7), 7);
  ::setenv("PAM_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(pam::env_double("PAM_TEST_ENV_D", 1.0), 2.5);
  ::unsetenv("PAM_TEST_ENV_L");
  ::unsetenv("PAM_TEST_ENV_D");
}

TEST(Env, RejectsGarbageAndOutOfRange) {
  // Unparseable values must fall back, not silently become 0.
  ::setenv("PAM_TEST_ENV_BAD", "abc", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_BAD", 7), 7);
  EXPECT_DOUBLE_EQ(pam::env_double("PAM_TEST_ENV_BAD", 1.5), 1.5);
  // Trailing garbage after a valid prefix is rejected too.
  ::setenv("PAM_TEST_ENV_BAD", "12abc", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_BAD", 7), 7);
  ::setenv("PAM_TEST_ENV_BAD", "2.5x", 1);
  EXPECT_DOUBLE_EQ(pam::env_double("PAM_TEST_ENV_BAD", 1.5), 1.5);
  // Surrounding whitespace is fine.
  ::setenv("PAM_TEST_ENV_BAD", " 42 ", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_BAD", 7), 42);
  // Out-of-range magnitudes fall back instead of saturating.
  ::setenv("PAM_TEST_ENV_BAD", "999999999999999999999999999999", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_BAD", 7), 7);
  ::setenv("PAM_TEST_ENV_BAD", "1e99999", 1);
  EXPECT_DOUBLE_EQ(pam::env_double("PAM_TEST_ENV_BAD", 1.5), 1.5);
  // Negatives still parse.
  ::setenv("PAM_TEST_ENV_BAD", "-3", 1);
  EXPECT_EQ(pam::env_long("PAM_TEST_ENV_BAD", 7), -3);
  ::unsetenv("PAM_TEST_ENV_BAD");
}

// The knob catalogue (env.h env_knobs) is the provenance record benches dump
// next to their JSON rows; its invariants are what make it greppable and
// mergeable. Completeness against the tree is enforced by pam_lint's
// env-catalogue rule, which scans every source for PAM_* reads.
TEST(Env, KnobCatalogueInvariants) {
  const auto& knobs = pam::env_knobs();
  ASSERT_FALSE(knobs.empty());
  for (size_t i = 0; i < knobs.size(); i++) {
    const auto& k = knobs[i];
    EXPECT_EQ(std::string(k.name).rfind("PAM_", 0), 0u)
        << k.name << ": catalogue is for PAM_* knobs only";
    EXPECT_NE(std::string(k.layer), "") << k.name;
    EXPECT_NE(std::string(k.fallback), "") << k.name;
    EXPECT_NE(std::string(k.what), "") << k.name;
    if (i > 0) {
      EXPECT_LT(std::string(knobs[i - 1].name), std::string(k.name))
          << "catalogue must stay sorted and duplicate-free at " << k.name;
    }
  }
}

TEST(Env, KnobValueReportsEnvironmentOrFallback) {
  pam::env_knob k{"PAM_TEST_ENV_KNOB", "test", "fallback-text", "a test knob"};
  ::unsetenv("PAM_TEST_ENV_KNOB");
  EXPECT_EQ(pam::env_knob_value(k), "fallback-text");
  ::setenv("PAM_TEST_ENV_KNOB", "live-value", 1);
  EXPECT_EQ(pam::env_knob_value(k), "live-value");
  // The catalogue reports what the environment literally says, even when the
  // point-of-use parser would reject it and fall back.
  ::setenv("PAM_TEST_ENV_KNOB", "12abc", 1);
  EXPECT_EQ(pam::env_knob_value(k), "12abc");
  ::unsetenv("PAM_TEST_ENV_KNOB");
}

TEST(ScaledSize, RespectsScaleEnv) {
  ::unsetenv("PAM_BENCH_SCALE");
  EXPECT_EQ(pam::scaled_size(1000), 1000u);
  ::setenv("PAM_BENCH_SCALE", "0.5", 1);
  EXPECT_EQ(pam::scaled_size(1000), 500u);
  ::setenv("PAM_BENCH_SCALE", "0.00001", 1);
  EXPECT_EQ(pam::scaled_size(1000), 1u);  // never scales to zero
  ::unsetenv("PAM_BENCH_SCALE");
}

TEST(Timer, MeasuresElapsedTime) {
  pam::timer t;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 2000000; i++) sink = sink + pam::hash64(i);
  double e = t.elapsed();
  EXPECT_GT(e, 0.0);
  t.reset();
  EXPECT_LT(t.elapsed(), e + 1.0);
}

}  // namespace
