// Unit tests for maestro::util — RNG determinism and distribution sanity,
// summary statistics, JSON round-trips, CSV formatting, tool logs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mu = maestro::util;

TEST(Rng, DeterministicAcrossInstances) {
  mu::Rng a{123};
  mu::Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  mu::Rng a{1};
  mu::Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  mu::Rng rng{7};
  mu::RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  mu::Rng rng{11};
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, RangeInclusive) {
  mu::Rng rng{3};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussMoments) {
  mu::Rng rng{5};
  mu::RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.gauss());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussShifted) {
  mu::Rng rng{5};
  mu::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gauss(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  mu::Rng rng{9};
  mu::RunningStats s;
  for (int i = 0; i < 30000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, GammaMeanMatchesShape) {
  mu::Rng rng{13};
  for (const double shape : {0.5, 1.0, 3.0, 9.0}) {
    mu::RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(rng.gamma(shape));
    EXPECT_NEAR(s.mean(), shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(Rng, BetaMean) {
  mu::Rng rng{17};
  mu::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.beta(2.0, 6.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  mu::Rng rng{21};
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    const auto idx = rng.weighted_index(w);
    ASSERT_LT(idx, w.size());
    ++counts[idx];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  mu::Rng rng{1};
  EXPECT_EQ(rng.weighted_index({0.0, 0.0}), 2u);
  EXPECT_EQ(rng.weighted_index({}), 0u);
}

TEST(Rng, ShufflePreservesElements) {
  mu::Rng rng{2};
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  mu::Rng rng{4};
  mu::Rng child = rng.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += rng.next() == child.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RunningStats, BasicMoments) {
  mu::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  mu::Rng rng{31};
  mu::RunningStats a;
  mu::RunningStats b;
  mu::RunningStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.gauss(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, PercentileAndMedian) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mu::median(xs), 3.0);
  EXPECT_DOUBLE_EQ(mu::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(mu::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(mu::percentile(xs, 50.0), 3.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(mu::pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(mu::pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs = {1, 2, 3};
  const std::vector<double> ys = {5, 5, 5};
  EXPECT_DOUBLE_EQ(mu::pearson(xs, ys), 0.0);
}

TEST(Stats, HistogramCountsAndRange) {
  const std::vector<double> xs = {0.1, 0.2, 0.5, 0.9};
  const auto h = mu::make_histogram(xs, 2, 0.0, 1.0);
  EXPECT_EQ(h.counts.size(), 2u);
  // Half-open bins: 0.5 belongs to the upper bin.
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.25);
}

TEST(Stats, NormalCdfKnownValues) {
  EXPECT_NEAR(mu::normal_cdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(mu::normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(mu::normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Stats, GaussianFitAcceptsGaussianData) {
  mu::Rng rng{41};
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.gauss(5.0, 1.5));
  const auto fit = mu::fit_gaussian(xs);
  EXPECT_NEAR(fit.mean, 5.0, 0.1);
  EXPECT_NEAR(fit.sigma, 1.5, 0.1);
  EXPECT_GT(fit.ks_pvalue, 0.01);  // should not reject normality
}

TEST(Stats, GaussianFitRejectsHeavyBimodal) {
  mu::Rng rng{43};
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.chance(0.5) ? rng.gauss(-6, 0.3) : rng.gauss(6, 0.3));
  const auto fit = mu::fit_gaussian(xs);
  EXPECT_LT(fit.ks_pvalue, 0.001);  // strongly non-normal
}

TEST(Stats, LineFitRecoversLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const auto f = mu::fit_line(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(mu::Json{42}.dump(), "42");
  EXPECT_EQ(mu::Json{true}.dump(), "true");
  EXPECT_EQ(mu::Json{nullptr}.dump(), "null");
  EXPECT_EQ(mu::Json{"hi"}.dump(), "\"hi\"");
}

TEST(Json, ObjectRoundTrip) {
  mu::JsonObject obj;
  obj["name"] = mu::Json{"x"};
  obj["v"] = mu::Json{1.5};
  obj["list"] = mu::Json{mu::JsonArray{mu::Json{1}, mu::Json{2}}};
  const std::string text = mu::Json{obj}.dump();
  const auto parsed = mu::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("name").as_string(), "x");
  EXPECT_DOUBLE_EQ(parsed->at("v").as_number(), 1.5);
  EXPECT_EQ(parsed->at("list").as_array().size(), 2u);
}

TEST(Json, EscapesSpecialCharacters) {
  const mu::Json j{std::string("a\"b\\c\nd")};
  const auto parsed = mu::Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd");
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(mu::Json::parse("{").has_value());
  EXPECT_FALSE(mu::Json::parse("[1,]").has_value());
  EXPECT_FALSE(mu::Json::parse("tru").has_value());
  EXPECT_FALSE(mu::Json::parse("{\"a\":1} extra").has_value());
  EXPECT_FALSE(mu::Json::parse("").has_value());
}

TEST(Json, DeeplyNestedInputIsRejectedNotACrash) {
  // 1 MiB of '[' fits in one server frame; unbounded recursion used to
  // overflow the stack on it.
  EXPECT_FALSE(mu::Json::parse(std::string(1 << 20, '[')).has_value());
  EXPECT_FALSE(mu::Json::parse(std::string(1 << 20, '{')).has_value());
  const std::size_t over = mu::Json::kMaxParseDepth + 1;
  EXPECT_FALSE(mu::Json::parse(std::string(over, '[') + std::string(over, ']')).has_value());
}

TEST(Json, NestingAtTheDepthLimitParses) {
  const std::size_t d = mu::Json::kMaxParseDepth;
  const auto arrays = mu::Json::parse(std::string(d, '[') + std::string(d, ']'));
  ASSERT_TRUE(arrays.has_value());
  const mu::Json* at = &*arrays;
  for (std::size_t i = 1; i < d; ++i) {
    ASSERT_TRUE(at->is_array());
    ASSERT_EQ(at->as_array().size(), 1u);
    at = &at->as_array().front();
  }
  EXPECT_TRUE(at->is_array());
  EXPECT_TRUE(at->as_array().empty());

  std::string objects;
  for (std::size_t i = 1; i < d; ++i) objects += "{\"k\":";
  objects += "{}" + std::string(d - 1, '}');
  EXPECT_TRUE(mu::Json::parse(objects).has_value());
}

TEST(Json, MissingKeyIsNull) {
  const auto parsed = mu::Json::parse("{\"a\":1}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->at("b").is_null());
}

TEST(Json, ParsesNestedStructures) {
  const auto parsed = mu::Json::parse(R"({"a":{"b":[1,2,{"c":true}]},"d":null})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->at("a").at("b").as_array()[2].at("c").as_bool());
  EXPECT_TRUE(parsed->at("d").is_null());
}

namespace {

// The writer as it was before dump_to(): one ostringstream per number and a
// fresh string per nested value. Kept here only as the byte oracle.
std::string oracle_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  std::ostringstream os;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    os << static_cast<std::int64_t>(d);
    return os.str();
  }
  os.precision(17);
  os << d;
  return os.str();
}

std::string oracle_escape(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string oracle_dump(const mu::Json& j) {
  switch (j.type()) {
    case mu::Json::Type::Null: return "null";
    case mu::Json::Type::Bool: return j.as_bool() ? "true" : "false";
    case mu::Json::Type::Number: return oracle_number(j.as_number());
    case mu::Json::Type::String: return oracle_escape(j.as_string());
    case mu::Json::Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < j.as_array().size(); ++i) {
        if (i) out.push_back(',');
        out += oracle_dump(j.as_array()[i]);
      }
      return out + "]";
    }
    case mu::Json::Type::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : j.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        out += oracle_escape(k) + ":" + oracle_dump(v);
      }
      return out + "}";
    }
  }
  return "null";
}

/// Doubles from every corner of the format: raw bit patterns (NaN and
/// infinities included), subnormals, signed zeros, integers on both sides of
/// the 1e15 integral cutoff and their neighbours, and ordinary magnitudes.
double oracle_double(mu::Rng& rng) {
  const std::uint64_t bits = rng.next();
  switch (rng.next() % 6) {
    case 0: return std::bit_cast<double>(bits);
    case 1: return std::bit_cast<double>(bits & 0x800fffffffffffffULL);  // subnormal
    case 2: {
      static constexpr double kEdges[] = {0.0, -0.0, 1e15, -1e15, 1e15 - 1, 1 - 1e15,
                                          9007199254740992.0, 0.5, -0.5};
      return kEdges[bits % std::size(kEdges)];
    }
    case 3: {
      // Within a few ulps or integers of +/-1e15.
      double d = (bits & 1) ? 1e15 : -1e15;
      const int steps = static_cast<int>((bits >> 1) % 64) - 32;
      if ((bits >> 8) & 1) return d + steps;
      for (int k = 0; k < std::abs(steps); ++k) {
        d = std::nextafter(d, steps < 0 ? -INFINITY : INFINITY);
      }
      return d;
    }
    case 4: return static_cast<double>(static_cast<std::int64_t>(bits) >> (bits % 64));
    default: return rng.uniform(-1.0, 1.0) * std::pow(10.0, static_cast<double>(bits % 40) - 20);
  }
}

std::string oracle_string(mu::Rng& rng) {
  std::string s;
  const std::size_t n = rng.next() % 12;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.next();
    static constexpr char kSpecial[] = {'"', '\\', '\n', '\r', '\t', '\b', '\f', '\0', 0x1f, 0x7f};
    s.push_back(r % 3 == 0 ? kSpecial[(r >> 8) % std::size(kSpecial)]
                           : static_cast<char>(r >> 16));
  }
  return s;
}

mu::Json oracle_tree(mu::Rng& rng, int depth) {
  switch (rng.next() % (depth > 0 ? 7 : 5)) {
    case 0: return mu::Json{nullptr};
    case 1: return mu::Json{rng.next() % 2 == 0};
    case 2: return mu::Json{oracle_double(rng)};
    case 3:
    case 4: return mu::Json{oracle_string(rng)};
    case 5: {
      mu::JsonArray arr;
      for (std::size_t i = rng.next() % 5; i > 0; --i) arr.push_back(oracle_tree(rng, depth - 1));
      return mu::Json{std::move(arr)};
    }
    default: {
      mu::JsonObject obj;
      for (std::size_t i = rng.next() % 5; i > 0; --i) {
        obj[oracle_string(rng)] = oracle_tree(rng, depth - 1);
      }
      return mu::Json{std::move(obj)};
    }
  }
}

}  // namespace

TEST(Json, DumpMatchesStreamFormatterOracle) {
  mu::Rng rng{0x5eed0f0e};
  std::size_t mismatches = 0;
  std::string appended;
  for (int i = 0; i < 1'200'000; ++i) {
    const double d = oracle_double(rng);
    const std::string want = oracle_number(d);
    if (mu::Json{d}.dump() != want) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << ": " << mu::Json{d}.dump()
                      << " vs " << want;
      }
    }
    // dump_to appends to whatever the buffer already holds.
    if (i % 1000 == 0) {
      const std::size_t before = appended.size();
      mu::Json{d}.dump_to(appended);
      EXPECT_EQ(appended.substr(before), want);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(mu::Json{-0.0}.dump(), "0");
  EXPECT_EQ(mu::Json{1e15}.dump(), "1000000000000000");
  EXPECT_EQ(mu::Json{1e15 - 1}.dump(), "999999999999999");
  EXPECT_EQ(mu::Json{std::numeric_limits<double>::denorm_min()}.dump(),
            "4.9406564584124654e-324");

  for (int i = 0; i < 20'000; ++i) {
    const std::string s = oracle_string(rng);
    ASSERT_EQ(mu::Json{s}.dump(), oracle_escape(s));
    ASSERT_EQ(mu::json_escape(s), oracle_escape(s));
  }
  for (int i = 0; i < 5'000; ++i) {
    const mu::Json tree = oracle_tree(rng, 5);
    const std::string want = oracle_dump(tree);
    ASSERT_EQ(tree.dump(), want);
    const auto reparsed = mu::Json::parse(want);
    ASSERT_TRUE(reparsed.has_value()) << want;
    ASSERT_EQ(reparsed->dump(), want);
  }
}

TEST(Csv, BuildsTable) {
  mu::CsvTable t{{"a", "b"}};
  t.new_row().add(1).add(2.5, 1);
  t.new_row().add("x").add("y");
  EXPECT_EQ(t.rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("a,b"), std::string::npos);
  EXPECT_NE(csv.find("1,2.5"), std::string::npos);
  EXPECT_NE(csv.find("x,y"), std::string::npos);
  EXPECT_FALSE(t.to_pretty().empty());
}

TEST(ToolLog, SeriesAndFinalValue) {
  mu::ToolLog log;
  log.tool = "t";
  for (int i = 0; i < 3; ++i) {
    mu::LogIteration it;
    it.iteration = i;
    it.values["drvs"] = 100.0 - i * 10;
    log.iterations.push_back(it);
  }
  const auto s = log.series("drvs");
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[2], 80.0);
  ASSERT_TRUE(log.final_value("drvs").has_value());
  EXPECT_DOUBLE_EQ(*log.final_value("drvs"), 80.0);
  EXPECT_FALSE(log.final_value("nope").has_value());
}

TEST(ToolLog, FromJsonRejectsMalformedSeedsAndIterations) {
  mu::ToolLog log;
  log.tool = "route";
  log.seed = 18446744073709551615ull;
  mu::LogIteration it;
  it.iteration = 3;
  log.iterations.push_back(it);
  ASSERT_TRUE(mu::ToolLog::from_json(log.to_json()).has_value());
  EXPECT_EQ(mu::ToolLog::from_json(log.to_json())->seed, log.seed);

  const auto with_seed = [&](mu::Json seed) {
    mu::Json j = log.to_json();
    j.as_object()["seed"] = std::move(seed);
    return mu::ToolLog::from_json(j);
  };
  for (const char* bad : {"12abc", "-1", "", "18446744073709551616"}) {
    EXPECT_FALSE(with_seed(mu::Json{bad}).has_value()) << '"' << bad << '"';
  }
  // Legacy files store the seed as a number: it must be an exact uint64.
  ASSERT_TRUE(with_seed(mu::Json{7.0}).has_value());
  EXPECT_EQ(with_seed(mu::Json{7.0})->seed, 7u);
  for (const double bad : {-1.0, 2.5, 1e30, 18446744073709551616.0}) {
    EXPECT_FALSE(with_seed(mu::Json{bad}).has_value()) << bad;
  }
  // An iteration number outside int is refused, not cast.
  for (const double bad : {1e300, -1e300, 2147483648.0}) {
    mu::Json j = log.to_json();
    j.as_object()["iterations"].as_array()[0].as_object()["iteration"] = mu::Json{bad};
    EXPECT_FALSE(mu::ToolLog::from_json(j).has_value()) << bad;
  }
}

TEST(ToolLog, JsonRoundTrip) {
  mu::ToolLog log;
  log.tool = "route";
  log.design = "cpu1";
  log.seed = 77;
  log.completed = true;
  log.metadata["knob"] = "fast";
  mu::LogIteration it;
  it.iteration = 0;
  it.values["drvs"] = 123.0;
  log.iterations.push_back(it);

  const auto parsed = mu::ToolLog::from_json(log.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tool, "route");
  EXPECT_EQ(parsed->design, "cpu1");
  EXPECT_EQ(parsed->seed, 77u);
  EXPECT_TRUE(parsed->completed);
  EXPECT_EQ(parsed->metadata.at("knob"), "fast");
  ASSERT_EQ(parsed->iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->iterations[0].values.at("drvs"), 123.0);
}

// Property-style sweep: percentile is monotone in p for any data.
class PercentileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileProperty, MonotoneInP) {
  mu::Rng rng{GetParam()};
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gauss(0, 10));
  double prev = -1e300;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    const double v = mu::percentile(xs, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Values(1, 2, 3, 4, 5));

// Property: histogram total never exceeds sample count, and equals it when
// the range covers all samples.
class HistogramProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistogramProperty, TotalPreserved) {
  mu::Rng rng{99};
  std::vector<double> xs;
  for (std::size_t i = 0; i < 500; ++i) xs.push_back(rng.uniform(-3, 3));
  const auto h = mu::make_histogram(xs, GetParam());
  EXPECT_EQ(h.total(), xs.size());
}

INSTANTIATE_TEST_SUITE_P(Bins, HistogramProperty, ::testing::Values(1, 2, 5, 10, 50));
