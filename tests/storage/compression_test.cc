#include "storage/compression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace gphtap {
namespace {

std::vector<Datum> Ints(std::initializer_list<int64_t> vs) {
  std::vector<Datum> out;
  for (int64_t v : vs) out.push_back(Datum(v));
  return out;
}

std::vector<Datum> Doubles(std::initializer_list<double> vs) {
  std::vector<Datum> out;
  for (double v : vs) out.push_back(Datum(v));
  return out;
}

std::vector<Datum> Strings(std::initializer_list<const char*> vs) {
  std::vector<Datum> out;
  for (const char* v : vs) out.push_back(Datum(std::string(v)));
  return out;
}

// A stored column of `type` holding `vals`, laid out as the column-group store
// lays out its open run.
ColumnVector Column(TypeId type, const std::vector<Datum>& vals) {
  ColumnVector col(type);
  for (const Datum& d : vals) col.AppendTyped(d);
  return col;
}

CompressedBlock Encode(CompressionKind kind, TypeId type, const std::vector<Datum>& vals) {
  CompressedBlock block;
  EncodeColumn(kind, Column(type, vals), vals.size(), &block);
  return block;
}

// Decodes `block` and checks it holds exactly `vals` under `type`'s layout:
// the tag, the NULLs (an empty mask when there are none), and every value,
// doubles bit for bit.
void ExpectDecodesTo(const CompressedBlock& block, TypeId type,
                     const std::vector<Datum>& vals) {
  ColumnVector out;
  Status s = DecodeColumn(block, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(out.tag, ColumnVector(type).tag);
  ASSERT_EQ(out.size(), vals.size());
  bool any_null = false;
  for (size_t i = 0; i < vals.size(); ++i) {
    any_null |= vals[i].is_null();
    ASSERT_EQ(out.IsNull(i), vals[i].is_null()) << i;
    if (vals[i].is_null()) continue;
    switch (type) {
      case TypeId::kInt64:
        EXPECT_EQ(out.ints[i], vals[i].int_val()) << i;
        break;
      case TypeId::kDouble:
        EXPECT_EQ(std::bit_cast<uint64_t>(out.dbls[i]),
                  std::bit_cast<uint64_t>(vals[i].double_val()))
            << i << ": " << out.dbls[i] << " vs " << vals[i].double_val();
        break;
      case TypeId::kString:
        EXPECT_EQ(out.datums[i].string_val(), vals[i].string_val()) << i;
        break;
    }
  }
  if (!any_null) {
    EXPECT_TRUE(out.nulls.empty());
  }
}

void ExpectRoundTrip(CompressionKind kind, TypeId type, const std::vector<Datum>& vals) {
  CompressedBlock block = Encode(kind, type, vals);
  EXPECT_EQ(block.type, type);
  EXPECT_EQ(block.count, vals.size());
  ExpectDecodesTo(block, type, vals);
}

class CodecRoundTripTest : public ::testing::TestWithParam<CompressionKind> {
 protected:
  // Round-trips `vals` with the codec under test, then with a leading NULL.
  void RoundTrip(TypeId type, std::vector<Datum> vals) {
    ExpectRoundTrip(GetParam(), type, vals);
    vals.insert(vals.begin(), Datum::Null());
    ExpectRoundTrip(GetParam(), type, vals);
  }
};

TEST_P(CodecRoundTripTest, EmptyBlock) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ExpectRoundTrip(GetParam(), type, {});
  }
}

TEST_P(CodecRoundTripTest, SmallInts) {
  RoundTrip(TypeId::kInt64, Ints({1, 2, 3, -4, 0, 1 << 20}));
}

TEST_P(CodecRoundTripTest, IntsWithNulls) {
  std::vector<Datum> vals = Ints({5, 5, 5});
  vals.insert(vals.begin() + 1, Datum::Null());
  vals.push_back(Datum::Null());
  ExpectRoundTrip(GetParam(), TypeId::kInt64, vals);
}

TEST_P(CodecRoundTripTest, AllNulls) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ExpectRoundTrip(GetParam(), type, {Datum::Null(), Datum::Null(), Datum::Null()});
  }
}

TEST_P(CodecRoundTripTest, ExtremeInts) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  RoundTrip(TypeId::kInt64, Ints({kMin, kMax, kMin, 0, kMax, kMax, -1, kMin + 1}));
}

TEST_P(CodecRoundTripTest, Strings) {
  std::vector<Datum> vals = Strings({"alpha", "beta", "alpha", ""});
  vals.push_back(Datum::Null());
  RoundTrip(TypeId::kString, vals);
}

TEST_P(CodecRoundTripTest, Doubles) {
  RoundTrip(TypeId::kDouble, Doubles({1.5, -2.25, 0.0, 1e300}));
}

TEST_P(CodecRoundTripTest, SpecialDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  RoundTrip(TypeId::kDouble, Doubles({0.0, -0.0, nan, nan, std::copysign(nan, -1.0), inf,
                                      -inf, -0.0, 0.0, 100000.1, 100000.1000001}));
}

TEST_P(CodecRoundTripTest, FullGroupBlocks) {
  // One block of a sealed group per type: runs, repeats and distinct values.
  std::vector<Datum> ints, dbls, strs;
  for (int64_t i = 0; i < 1024; ++i) {
    ints.push_back(i % 5 == 0 ? Datum::Null() : Datum(i / 7 * 1'000'003));
    dbls.push_back(i % 9 == 0 ? Datum::Null() : Datum(100000.0 + 0.1 * static_cast<double>(i % 300)));
    strs.push_back(i % 11 == 0 ? Datum::Null() : Datum("s" + std::to_string(i % 17)));
  }
  ExpectRoundTrip(GetParam(), TypeId::kInt64, ints);
  ExpectRoundTrip(GetParam(), TypeId::kDouble, dbls);
  ExpectRoundTrip(GetParam(), TypeId::kString, strs);
  // And with no NULLs at all: the decoded mask stays empty.
  for (auto* vals : {&ints, &dbls, &strs}) {
    for (Datum& d : *vals) {
      if (d.is_null()) {
        d = (*vals)[1];
      }
    }
  }
  ExpectRoundTrip(GetParam(), TypeId::kInt64, ints);
  ExpectRoundTrip(GetParam(), TypeId::kDouble, dbls);
  ExpectRoundTrip(GetParam(), TypeId::kString, strs);
}

TEST_P(CodecRoundTripTest, RandomIntFuzz) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Datum> vals;
    size_t n = rng.Uniform(500);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.1)) {
        vals.push_back(Datum::Null());
      } else if (rng.Chance(0.5)) {
        vals.push_back(Datum(static_cast<int64_t>(rng.Uniform(16))));  // runs likely
      } else {
        vals.push_back(Datum(static_cast<int64_t>(rng.Next())));
      }
    }
    ExpectRoundTrip(GetParam(), TypeId::kInt64, vals);
  }
}

TEST_P(CodecRoundTripTest, RandomDoubleAndStringFuzz) {
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Datum> dbls, strs;
    size_t n = rng.Uniform(500);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.1)) {
        dbls.push_back(Datum::Null());
        strs.push_back(Datum::Null());
      } else if (rng.Chance(0.5)) {
        dbls.push_back(Datum(static_cast<double>(rng.Uniform(16)) / 4));
        strs.push_back(Datum("k" + std::to_string(rng.Uniform(16))));
      } else {
        dbls.push_back(Datum(std::bit_cast<double>(rng.Next())));  // NaN payloads too
        strs.push_back(Datum(std::to_string(rng.Next())));
      }
    }
    ExpectRoundTrip(GetParam(), TypeId::kDouble, dbls);
    ExpectRoundTrip(GetParam(), TypeId::kString, strs);
  }
}

// A block cut short anywhere is rejected. Each prefix is copied into an
// allocation of exactly its size, so a read past the end is a heap overflow
// under AddressSanitizer.
TEST_P(CodecRoundTripTest, EveryProperPrefixIsRejected) {
  std::vector<Datum> ints = Ints({7, 7, 7, -300, 1 << 30, 7});
  ints.insert(ints.begin() + 2, Datum::Null());
  std::vector<Datum> dbls = Doubles({0.5, 0.5, -0.0, 1e-300, 0.5});
  dbls.push_back(Datum::Null());
  std::vector<Datum> strs = Strings({"", "x", "x", "a longer string value", ""});
  strs.insert(strs.begin(), Datum::Null());
  const std::vector<std::pair<TypeId, std::vector<Datum>>> cases = {
      {TypeId::kInt64, ints},
      {TypeId::kDouble, dbls},
      {TypeId::kString, strs},
      {TypeId::kInt64, {Datum::Null(), Datum::Null(), Datum::Null()}},
      {TypeId::kDouble, {}},
  };
  for (const auto& [type, vals] : cases) {
    const CompressedBlock block = Encode(GetParam(), type, vals);
    for (size_t len = 0; len < block.bytes.size(); ++len) {
      CompressedBlock cut = block;
      cut.bytes = std::vector<uint8_t>(block.bytes.begin(),
                                       block.bytes.begin() + static_cast<long>(len));
      cut.bytes.shrink_to_fit();
      ColumnVector out;
      Status s = DecodeColumn(cut, &out);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
          << TypeIdName(type) << " prefix " << len << " of " << block.bytes.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::Values(CompressionKind::kNone, CompressionKind::kRle,
                                           CompressionKind::kDelta, CompressionKind::kDict,
                                           CompressionKind::kLz),
                         [](const auto& info) {
                           return CompressionKindName(info.param);
                         });

TEST(CompressionTest, DictKeepsDoublesThatPrintAlike) {
  // %g prints all of these as "100000": a dictionary keyed by the printed
  // value would merge them.
  std::vector<Datum> vals;
  for (int k = 0; k < 1024; ++k) vals.push_back(Datum(100000.0 + 0.1 * k));
  CompressedBlock block = Encode(CompressionKind::kDict, TypeId::kDouble, vals);
  EXPECT_EQ(block.kind, CompressionKind::kDict);
  ExpectDecodesTo(block, TypeId::kDouble, vals);
}

TEST(CompressionTest, RleKeepsSignedZerosAndNans) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Datum> vals = Doubles({0.0, -0.0, nan, nan});
  CompressedBlock block = Encode(CompressionKind::kRle, TypeId::kDouble, vals);
  EXPECT_EQ(block.kind, CompressionKind::kRle);
  ExpectDecodesTo(block, TypeId::kDouble, vals);
}

TEST(CompressionTest, RleShrinksRuns) {
  std::vector<Datum> vals(10000, Datum(int64_t{7}));
  CompressedBlock rle = Encode(CompressionKind::kRle, TypeId::kInt64, vals);
  CompressedBlock raw = Encode(CompressionKind::kNone, TypeId::kInt64, vals);
  EXPECT_LT(rle.bytes.size() * 5, raw.bytes.size());
}

TEST(CompressionTest, DeltaShrinksSortedSequences) {
  std::vector<Datum> vals;
  for (int64_t i = 0; i < 10000; ++i) vals.push_back(Datum(1'000'000'000 + i));
  CompressedBlock delta = Encode(CompressionKind::kDelta, TypeId::kInt64, vals);
  CompressedBlock raw = Encode(CompressionKind::kNone, TypeId::kInt64, vals);
  EXPECT_LT(delta.bytes.size() * 2, raw.bytes.size());
}

TEST(CompressionTest, DictShrinksLowCardinalityStrings) {
  std::vector<Datum> vals;
  const char* names[] = {"frequent_flyer", "occasional", "rare_visitor"};
  for (int i = 0; i < 3000; ++i) vals.push_back(Datum(std::string(names[i % 3])));
  CompressedBlock dict = Encode(CompressionKind::kDict, TypeId::kString, vals);
  CompressedBlock raw = Encode(CompressionKind::kNone, TypeId::kString, vals);
  EXPECT_LT(dict.bytes.size() * 4, raw.bytes.size());
}

TEST(CompressionTest, DeltaOnStringsAndDoublesFallsBackToRaw) {
  CompressedBlock strs = Encode(CompressionKind::kDelta, TypeId::kString, Strings({"a", "b"}));
  EXPECT_EQ(strs.kind, CompressionKind::kNone);
  ExpectDecodesTo(strs, TypeId::kString, Strings({"a", "b"}));
  CompressedBlock dbls = Encode(CompressionKind::kDelta, TypeId::kDouble, Doubles({1.0, 2.0}));
  EXPECT_EQ(dbls.kind, CompressionKind::kNone);
  ExpectDecodesTo(dbls, TypeId::kDouble, Doubles({1.0, 2.0}));
}

TEST(CompressionTest, EncodesOnlyTheLeadingRows) {
  ColumnVector col = Column(TypeId::kInt64, Ints({1, 2, 3, 4}));
  CompressedBlock block;
  EncodeColumn(CompressionKind::kNone, col, 2, &block);
  ExpectDecodesTo(block, TypeId::kInt64, Ints({1, 2}));
}

TEST(CompressionTest, CorruptPayloadRejected) {
  // A dictionary code past the dictionary, and a delta block claiming doubles.
  CompressedBlock dict = Encode(CompressionKind::kDict, TypeId::kInt64, Ints({4, 4}));
  dict.bytes.back() = 9;
  ColumnVector out;
  EXPECT_EQ(DecodeColumn(dict, &out).code(), StatusCode::kInvalidArgument);
  CompressedBlock delta = Encode(CompressionKind::kDelta, TypeId::kInt64, Ints({4, 5}));
  delta.type = TypeId::kDouble;
  EXPECT_EQ(DecodeColumn(delta, &out).code(), StatusCode::kInvalidArgument);
}

TEST(LzTest, RoundTripEmpty) {
  auto out = LzDecompress(LzCompress({}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(LzTest, RoundTripRepetitive) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 5000; ++i) in.push_back(static_cast<uint8_t>("abcabcab"[i % 8]));
  auto packed = LzCompress(in);
  EXPECT_LT(packed.size(), in.size() / 4);
  auto out = LzDecompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, RoundTripRandom) {
  Rng rng(5);
  std::vector<uint8_t> in;
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<uint8_t>(rng.Next()));
  auto out = LzDecompress(LzCompress(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, OverlappingMatch) {
  // "aaaa..." forces distance-1 overlapping copies.
  std::vector<uint8_t> in(1000, 'a');
  auto out = LzDecompress(LzCompress(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, CorruptInputRejected) {
  std::vector<uint8_t> bogus = {0xff, 0xff, 0xff, 0x01, 0x80};
  EXPECT_FALSE(LzDecompress(bogus).ok());
  // A header claiming more bytes than the stream could expand to.
  std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 0x0f, 0x00, 'a'};
  EXPECT_EQ(LzDecompress(huge).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gphtap
