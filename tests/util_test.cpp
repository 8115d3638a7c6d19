// Unit and property tests for util: civil time, RNG, the Mix64 mixer, the
// arena, codecs, statistics, and the worker pool behind the parallel
// pipeline/crawler.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/time.h"

namespace rev::util {
namespace {

// ---------------------------------------------------------------- time ----

TEST(Time, EpochIsZero) {
  EXPECT_EQ(MakeDate(1970, 1, 1), 0);
}

TEST(Time, KnownDates) {
  EXPECT_EQ(MakeDate(1970, 1, 2), kSecondsPerDay);
  EXPECT_EQ(MakeDate(2000, 1, 1), 946684800);
  EXPECT_EQ(MakeDate(2014, 4, 8), 1396915200);   // Heartbleed disclosure
  EXPECT_EQ(MakeDate(2015, 10, 28), 1445990400); // IMC'15
}

TEST(Time, RoundTripCivil) {
  for (int year : {1950, 1970, 1999, 2000, 2013, 2014, 2015, 2049, 2050}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 15, 28}) {
        const Timestamp ts = MakeDate(year, month, day) + 3600 * 7 + 125;
        const CivilTime ct = ToCivil(ts);
        EXPECT_EQ(ct.year, year);
        EXPECT_EQ(ct.month, month);
        EXPECT_EQ(ct.day, day);
        EXPECT_EQ(ct.hour, 7);
        EXPECT_EQ(ct.minute, 2);
        EXPECT_EQ(ct.second, 5);
        EXPECT_EQ(ToTimestamp(ct), ts);
      }
    }
  }
}

TEST(Time, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_TRUE(IsLeapYear(2012));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2015));
  EXPECT_EQ(DaysInMonth(2012, 2), 29);
  EXPECT_EQ(DaysInMonth(2013, 2), 28);
  EXPECT_EQ(DaysInMonth(2013, 12), 31);
}

TEST(Time, DayOfWeek) {
  EXPECT_EQ(DayOfWeek(MakeDate(1970, 1, 1)), 4);   // Thursday
  EXPECT_EQ(DayOfWeek(MakeDate(2014, 4, 8)), 2);   // Tuesday
  EXPECT_EQ(DayOfWeek(MakeDate(2015, 3, 31)), 2);  // Tuesday
}

TEST(Time, FormatAndParse) {
  const Timestamp ts = MakeDate(2014, 10, 2);
  EXPECT_EQ(FormatDate(ts), "2014-10-02");
  EXPECT_EQ(FormatDateTime(ts + 3661), "2014-10-02T01:01:01Z");
  Timestamp parsed = 0;
  ASSERT_TRUE(ParseDate("2014-10-02", &parsed));
  EXPECT_EQ(parsed, ts);
}

TEST(Time, ParseRejectsMalformed) {
  Timestamp out;
  EXPECT_FALSE(ParseDate("2014-13-01", &out));
  EXPECT_FALSE(ParseDate("2014-02-30", &out));
  EXPECT_FALSE(ParseDate("20141002", &out));
  EXPECT_FALSE(ParseDate("2014-1-02", &out));
  EXPECT_FALSE(ParseDate("abcd-10-02", &out));
}

TEST(Time, MonthHelpers) {
  const Timestamp ts = MakeDate(2014, 7, 20) + 5000;
  EXPECT_EQ(StartOfMonth(ts), MakeDate(2014, 7, 1));
  EXPECT_EQ(StartOfDay(ts), MakeDate(2014, 7, 20));
  EXPECT_EQ(MonthIndex(ts), 2014 * 12 + 6);
}

TEST(Time, NegativeTimestamps) {
  const Timestamp ts = MakeDate(1969, 12, 31);
  EXPECT_LT(ts, 0);
  const CivilTime ct = ToCivil(ts);
  EXPECT_EQ(ct.year, 1969);
  EXPECT_EQ(ct.month, 12);
  EXPECT_EQ(ct.day, 31);
}

// ---------------------------------------------------------------- hash ----

TEST(Hash, Mix64MatchesSplitMix64Reference) {
  // Mix64 from state s is one splitmix64 draw, so stepping the state by the
  // golden increment replays the published seed-0 stream.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(kGolden), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(Mix64(2 * kGolden), 0x06c45d188009454full);
  // Rng seeds xoshiro256** from the same stream; these are the first
  // outputs of Rng(1), pinned so reseeding through Mix64 moves no bit.
  Rng rng(1);
  EXPECT_EQ(rng.Next(), 0xb3f2af6d0fc710c5ull);
  EXPECT_EQ(rng.Next(), 0x853b559647364ceaull);
  EXPECT_EQ(rng.Next(), 0x92f89756082a4514ull);
  EXPECT_EQ(rng.Next(), 0x642e1c7bc266a3a7ull);
}

// --------------------------------------------------------------- arena ----

// An oversized block gets a chunk of its own, inserted behind the current
// chunk, so the current chunk's tail still serves the next small copy; no
// copy moves, so every view handed out earlier keeps its bytes.
TEST(Arena, OversizedBlocksKeepTheCurrentTailAndEarlierViews) {
  Arena arena(64);
  std::vector<Bytes> sources;
  std::vector<BytesView> views;
  const auto copy = [&](std::size_t n, std::uint8_t fill) {
    sources.emplace_back(n, fill);
    views.push_back(arena.Copy(sources.back()));
    return views.back();
  };

  copy(100, 0x11);  // oversized into an empty arena
  EXPECT_EQ(arena.num_chunks(), 1u);
  const BytesView first_small = copy(16, 0x22);  // opens a regular chunk
  EXPECT_EQ(arena.num_chunks(), 2u);
  copy(200, 0x33);  // oversized behind the current chunk
  EXPECT_EQ(arena.num_chunks(), 3u);
  // The current chunk's tail is still in use: the next copy lands right
  // after the last small one.
  const BytesView second_small = copy(16, 0x44);
  EXPECT_EQ(arena.num_chunks(), 3u);
  EXPECT_EQ(second_small.data(), first_small.data() + 16);
  copy(40, 0x55);  // 16 + 16 + 40 > 64: a new regular chunk
  EXPECT_EQ(arena.num_chunks(), 4u);
  EXPECT_TRUE(arena.Copy({}).empty());
  EXPECT_EQ(arena.CopyString("tail"), "tail");
  EXPECT_EQ(arena.bytes_used(), 100u + 16 + 200 + 16 + 40 + 4);

  for (std::size_t i = 0; i < views.size(); ++i)
    EXPECT_EQ(Bytes(views[i].begin(), views[i].end()), sources[i]) << i;
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, Deterministic) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformDoubleRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(acc.Mean(), 10.0, 0.15);
  EXPECT_NEAR(acc.StdDev(), 3.0, 0.15);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  // Large-mean path.
  sum = 0;
  for (int i = 0; i < 2000; ++i) sum += static_cast<double>(rng.Poisson(200.0));
  EXPECT_NEAR(sum / 2000, 200.0, 3.0);
}

TEST(Rng, ZipfRange) {
  Rng rng(14);
  std::vector<std::uint64_t> counts(100, 0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.Zipf(100, 1.1);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  // Rank 0 dominates every other rank, and the tail is thin.
  for (std::size_t r = 1; r < 100; ++r) EXPECT_GE(counts[0], counts[r]);
  EXPECT_GT(counts[0], 10 * counts[50]);
}

TEST(Rng, WeightedIndex) {
  Rng rng(15);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(weights), 1u);
}

TEST(Rng, FillCoversBytes) {
  Rng rng(16);
  std::uint8_t buf[37] = {};
  rng.Fill(buf, sizeof(buf));
  int nonzero = 0;
  for (std::uint8_t b : buf)
    if (b) ++nonzero;
  EXPECT_GT(nonzero, 20);
}

TEST(Rng, ForkIndependence) {
  Rng parent(17);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  EXPECT_NE(a.Next(), b.Next());
}

// ----------------------------------------------------------------- hex ----

TEST(Hex, EncodeDecode) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(HexEncode(data), "0001abff");
  auto decoded = HexDecode("0001abff");
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, data);
  decoded = HexDecode("0001ABFF");
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, data);
}

TEST(Hex, DecodeRejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc"));    // odd length
  EXPECT_FALSE(HexDecode("zz"));     // bad digit
}

TEST(Hex, EmptyRoundTrip) {
  EXPECT_EQ(HexEncode({}), "");
  auto decoded = HexDecode("");
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->empty());
}

TEST(Base64, KnownVectors) {
  EXPECT_EQ(Base64Encode(ToBytes("")), "");
  EXPECT_EQ(Base64Encode(ToBytes("f")), "Zg==");
  EXPECT_EQ(Base64Encode(ToBytes("fo")), "Zm8=");
  EXPECT_EQ(Base64Encode(ToBytes("foo")), "Zm9v");
  EXPECT_EQ(Base64Encode(ToBytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeKnownVectors) {
  auto decoded = Base64Decode("Zm9vYmFy");
  ASSERT_TRUE(decoded);
  EXPECT_EQ(ToString(*decoded), "foobar");
  decoded = Base64Decode("Zg==");
  ASSERT_TRUE(decoded);
  EXPECT_EQ(ToString(*decoded), "f");
}

TEST(Base64, DecodeRejectsBadInput) {
  EXPECT_FALSE(Base64Decode("Zg="));    // bad length
  EXPECT_FALSE(Base64Decode("Z===") != std::nullopt);
  EXPECT_FALSE(Base64Decode("Zm9$"));   // bad char
  EXPECT_FALSE(Base64Decode("=g=="));   // leading padding
}

class Base64RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Base64RoundTrip, RandomBuffers) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto len = static_cast<std::size_t>(GetParam());
  Bytes data(len);
  rng.Fill(data.data(), data.size());
  auto decoded = Base64Decode(Base64Encode(data));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, data);
  auto hex_decoded = HexDecode(HexEncode(data));
  ASSERT_TRUE(hex_decoded);
  EXPECT_EQ(*hex_decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 31, 32, 33, 100,
                                           255, 256, 1000));

// --------------------------------------------------------------- stats ----

TEST(Distribution, QuantilesUnweighted) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.Add(i);
  EXPECT_DOUBLE_EQ(d.Min(), 1);
  EXPECT_DOUBLE_EQ(d.Max(), 100);
  EXPECT_NEAR(d.Median(), 50, 1);
  EXPECT_NEAR(d.Quantile(0.9), 90, 1);
  EXPECT_NEAR(d.Mean(), 50.5, 1e-9);
}

TEST(Distribution, WeightsShiftQuantiles) {
  Distribution d;
  d.Add(1.0, 1.0);
  d.Add(100.0, 99.0);
  // Weighted median is pulled to the heavy value.
  EXPECT_DOUBLE_EQ(d.Median(), 100.0);
  EXPECT_NEAR(d.Mean(), (1.0 + 9900.0) / 100.0, 1e-9);
}

TEST(Distribution, CdfAt) {
  Distribution d;
  for (int i = 1; i <= 10; ++i) d.Add(i);
  EXPECT_DOUBLE_EQ(d.CdfAt(0), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(5), 0.5);
  EXPECT_DOUBLE_EQ(d.CdfAt(10), 1.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(100), 1.0);
}

TEST(Distribution, CdfSeriesMonotone) {
  Distribution d;
  Rng rng(20);
  for (int i = 0; i < 500; ++i) d.Add(rng.LogNormal(3, 2));
  const auto series = d.CdfSeries(20);
  ASSERT_EQ(series.size(), 20u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GT(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(Distribution, Empty) {
  Distribution d;
  EXPECT_TRUE(d.Empty());
  EXPECT_DOUBLE_EQ(d.Median(), 0);
  EXPECT_DOUBLE_EQ(d.CdfAt(10), 0);
}

TEST(Distribution, AllZeroWeightsIsEmptyForQuantiles) {
  // Regression: `target == 0` made the first `cum >= target` trivially true,
  // so a distribution holding only zero-weight samples returned its smallest
  // sample instead of behaving like an empty one.
  Distribution d;
  d.Add(42.0, 0.0);
  d.Add(7.0, 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 0);
  EXPECT_DOUBLE_EQ(d.Median(), 0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 0);
  // A single positive weight brings the quantiles back.
  d.Add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Median(), 10.0);
}

TEST(Accumulator, Welford) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_NEAR(acc.Variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(acc.Min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 9.0);
}

TEST(FitLine, ExactLinear) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r, 1.0, 1e-9);
}

TEST(FitLine, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLine({}, {}).slope, 0);
  EXPECT_DOUBLE_EQ(FitLine({1.0}, {2.0}).slope, 0);
  // Constant x: no fit possible.
  EXPECT_DOUBLE_EQ(FitLine({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0}).slope, 0);
}

TEST(HumanBytes, Formats) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(51.0 * 1024), "51.0 KB");
  EXPECT_EQ(HumanBytes(76.0 * 1024 * 1024), "76.0 MB");
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  EXPECT_GE(ThreadPool(0).threads(), 1u);
  EXPECT_EQ(ThreadPool(3).threads(), 3u);
}

// Workers claim ranges of max(1, count / (threads * 16)) indices: counts
// of one, just under and just over one range per claim slot, and a large
// prime leave no index run twice or skipped.
TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t slots = std::size_t{threads} * 16;
    for (const std::size_t count : {std::size_t{1}, slots - 1, slots + 1,
                                    std::size_t{10'000}, std::size_t{100'003}}) {
      std::vector<std::atomic<int>> visits(count);
      pool.ParallelFor(count, [&](std::size_t i) { ++visits[i]; });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(visits[i].load(), 1)
            << "index " << i << " of " << count << ", threads " << threads;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  // threads=1 is the exact serial path: no workers, caller's thread,
  // ascending order.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(100, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// A throw in the middle of a range is rethrown to the caller, skips the
// rest of that range and leaves the queued gauge where it started.
TEST(ThreadPool, PropagatesExceptions) {
  const obs::Gauge& queued =
      obs::MetricsRegistry::Global().GetGauge("threadpool.queued");
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 1'000;
    constexpr std::size_t kThrowAt = 137;
    const std::size_t grain = kCount / (threads * 16);
    const std::size_t range_end = (kThrowAt / grain + 1) * grain;
    ASSERT_GT(range_end, kThrowAt + 1);  // the throw is mid-range
    std::vector<std::atomic<int>> visits(kCount);
    EXPECT_THROW(
        pool.ParallelFor(kCount,
                         [&](std::size_t i) {
                           ++visits[i];
                           if (i == kThrowAt) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    EXPECT_EQ(visits[kThrowAt].load(), 1);
    for (std::size_t i = kThrowAt + 1; i < range_end; ++i)
      EXPECT_EQ(visits[i].load(), 0) << "index " << i << " threads " << threads;
    EXPECT_EQ(queued.Value(), 0);
    // The pool survives a failed batch and runs the next one normally.
    std::atomic<std::size_t> done{0};
    pool.ParallelFor(64, [&](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 64u);
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int batch = 0; batch < 50; ++batch)
    pool.ParallelFor(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 50u * (99u * 100u / 2u));
}

}  // namespace
}  // namespace rev::util
