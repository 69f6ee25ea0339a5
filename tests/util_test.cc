#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace mrvd {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad lambda");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad lambda");
}

TEST(StatusTest, StatusOrValuePath) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusTest, StatusOrErrorPath) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() -> Status { return Status::IoError("disk"); };
  auto outer = [&]() -> Status {
    MRVD_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIndependence) {
  Rng base(99);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  EXPECT_NE(f1.NextUint64(), f2.NextUint64());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, PoissonSmallMeanMatchesMoments) {
  Rng rng(8);
  const double mean = 4.2;
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    auto v = static_cast<double>(rng.Poisson(mean));
    sum += v;
    sq += v * v;
  }
  double m = sum / n;
  double var = sq / n - m * m;
  EXPECT_NEAR(m, mean, 0.05);
  EXPECT_NEAR(var, mean, 0.15);  // Poisson: variance == mean
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(9);
  const double mean = 250.0;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
  EXPECT_NEAR(sum / n, mean, 1.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(10);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double m = sum / n;
  EXPECT_NEAR(m, 3.0, 0.03);
  EXPECT_NEAR(sq / n - m * m, 4.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \r\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("x").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, ParseSimpleLine) {
  auto f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "b");
}

TEST(CsvTest, ParseQuotedFields) {
  auto f = ParseCsvLine(R"(x,"hello, world","a ""q"" b")");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "hello, world");
  EXPECT_EQ(f[2], "a \"q\" b");
}

TEST(CsvTest, RoundTripThroughFile) {
  auto path = std::filesystem::temp_directory_path() / "mrvd_csv_test.csv";
  {
    CsvWriter writer(path.string());
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"h1", "h2"});
    writer.WriteRow({"v,1", "v\"2\""});
    writer.WriteRow({"3", "4"});
  }
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  auto st = ReadCsvFile(
      path.string(), /*has_header=*/true,
      [&](const std::vector<std::string>& h) { header = h; },
      [&](const std::vector<std::string>& r) {
        rows.push_back(r);
        return true;
      });
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_EQ(header.size(), 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "v,1");
  EXPECT_EQ(rows[0][1], "v\"2\"");
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto st = ReadCsvFile("/nonexistent/definitely_missing.csv", false, nullptr,
                        [](const auto&) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(CsvTest, EarlyStopViaRowCallback) {
  auto path = std::filesystem::temp_directory_path() / "mrvd_csv_stop.csv";
  {
    CsvWriter writer(path.string());
    for (int i = 0; i < 10; ++i) writer.WriteRow({std::to_string(i)});
  }
  int count = 0;
  auto st = ReadCsvFile(path.string(), false, nullptr,
                        [&](const auto&) { return ++count < 3; });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 3);
  std::filesystem::remove(path);
}

// ------------------------------------------- JsonWriter <-> JsonReader

std::string WriteJson(const std::function<void(JsonWriter&)>& fn) {
  std::ostringstream os;
  JsonWriter w(os);
  fn(w);
  return os.str();
}

TEST(JsonRoundTripTest, StringEscaping) {
  // Quotes, backslashes, named control escapes, and every raw control byte
  // (emitted as \u00XX) must parse back to the original bytes.
  std::string nasty = "quote\" backslash\\ newline\n tab\t cr\r slash/";
  for (char c = 1; c < 0x20; ++c) nasty.push_back(c);
  nasty += "\xC3\xA9";  // UTF-8 passthrough (é)

  std::string doc = WriteJson([&](JsonWriter& w) {
    w.BeginObject();
    w.Key(nasty).String(nasty);
    w.EndObject();
  });
  StatusOr<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\ndoc: " << doc;
  ASSERT_EQ(parsed->members().size(), 1u);
  EXPECT_EQ(parsed->members()[0].first, nasty);
  EXPECT_EQ(parsed->members()[0].second.string_value(), nasty);
}

TEST(JsonRoundTripTest, ReaderUnescapesAllStandardEscapes) {
  StatusOr<JsonValue> v =
      ParseJson(R"("a\"b\\c\/d\be\ff\ng\rh\tiAé")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->string_value(), "a\"b\\c/d\be\ff\ng\rh\tiA\xC3\xA9");
}

TEST(JsonRoundTripTest, NonFiniteDoublesBecomeNull) {
  // JSON has no inf/nan spelling; the writer must not emit the to_chars
  // "inf"/"nan" tokens (no parser accepts them) — it writes null instead.
  std::string doc = WriteJson([](JsonWriter& w) {
    w.BeginArray();
    w.Number(std::numeric_limits<double>::infinity());
    w.Number(-std::numeric_limits<double>::infinity());
    w.Number(std::numeric_limits<double>::quiet_NaN());
    w.Number(1.5);
    w.EndArray();
  });
  EXPECT_EQ(doc.find("inf"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("nan"), std::string::npos) << doc;
  StatusOr<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\ndoc: " << doc;
  ASSERT_EQ(parsed->array().size(), 4u);
  EXPECT_TRUE(parsed->array()[0].is_null());
  EXPECT_TRUE(parsed->array()[1].is_null());
  EXPECT_TRUE(parsed->array()[2].is_null());
  EXPECT_EQ(parsed->array()[3].number(), 1.5);
}

TEST(JsonRoundTripTest, DoublesRoundTripBitExact) {
  // Shortest round-trip formatting + from_chars parsing: the artifact
  // store's byte-identical resumed manifests hang on this.
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -2.5e-10,
                           1e300,
                           5e-324,  // min subnormal
                           123456789.123456789,
                           -0.0};
  for (double want : values) {
    std::string doc = WriteJson([&](JsonWriter& w) { w.Number(want); });
    StatusOr<JsonValue> parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    double got = parsed->number();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0) << doc;
  }
}

TEST(JsonRoundTripTest, IntegersKeepFullFidelity) {
  std::string doc = WriteJson([](JsonWriter& w) {
    w.BeginArray();
    w.Number(std::numeric_limits<int64_t>::min());
    w.Number(std::numeric_limits<int64_t>::max());
    w.Number(std::numeric_limits<uint64_t>::max());
    w.Number(int64_t{9007199254740993});  // 2^53 + 1: breaks via double
    w.EndArray();
  });
  StatusOr<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& a = parsed->array();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(*a[0].Int64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(*a[1].Int64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(*a[2].Uint64(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(*a[3].Int64(), 9007199254740993);
  EXPECT_FALSE(a[2].Int64().ok());  // uint64 max does not fit int64
}

TEST(JsonRoundTripTest, NestedStructureAndTypedAccessors) {
  std::string doc = WriteJson([](JsonWriter& w) {
    w.BeginObject();
    w.Key("name").String("demo");
    w.Key("count").Number(3);
    w.Key("rate").Number(0.25);
    w.Key("ok").Bool(true);
    w.Key("nothing").Null();
    w.Key("empty_obj").BeginObject();
    w.EndObject();
    w.Key("rows").BeginArray();
    w.BeginArray();
    w.EndArray();
    w.BeginObject();
    w.Key("x").Number(1);
    w.EndObject();
    w.EndArray();
    w.EndObject();
  });
  StatusOr<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\ndoc: " << doc;
  EXPECT_EQ(*parsed->GetString("name"), "demo");
  EXPECT_EQ(*parsed->GetInt64("count"), 3);
  EXPECT_EQ(*parsed->GetDouble("rate"), 0.25);
  EXPECT_TRUE(parsed->Find("ok")->bool_value());
  EXPECT_TRUE(parsed->Find("nothing")->is_null());
  EXPECT_TRUE(parsed->Find("empty_obj")->members().empty());
  const auto& rows = parsed->Find("rows")->array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].array().empty());
  EXPECT_EQ(*rows[1].GetInt64("x"), 1);

  EXPECT_FALSE(parsed->GetString("count").ok());   // type mismatch
  EXPECT_FALSE(parsed->GetInt64("missing").ok());  // absent key
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",
           "{",
           "[1, 2",
           "{\"a\" 1}",
           "{\"a\": 1,}x",
           "[1] trailing",
           "\"unterminated",
           "\"bad \\q escape\"",
           "\"truncated \\u00",
           "nul",
           "12..5",
           "\"raw \t tab\"",
       }) {
    StatusOr<JsonValue> v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "accepted: " << bad;
    if (!v.ok()) {
      EXPECT_NE(v.status().message().find("JSON parse error"),
                std::string::npos);
    }
  }
}

TEST(JsonReaderTest, MissingFileCarriesErrnoContext) {
  StatusOr<JsonValue> v = ReadJsonFile("/nonexistent/definitely_missing.json");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
  EXPECT_NE(v.status().message().find("errno"), std::string::npos);
}

TEST(StatusTest, IoErrorFromErrnoCarriesStrerrorText) {
  errno = ENOENT;
  Status st = IoErrorFromErrno("open 'x'");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("open 'x'"), std::string::npos);
  EXPECT_NE(st.message().find("No such file"), std::string::npos);
  EXPECT_NE(st.message().find("errno 2"), std::string::npos);
  errno = 0;
  EXPECT_EQ(IoErrorFromErrno("ctx").message(), "ctx");
}

}  // namespace
}  // namespace mrvd
