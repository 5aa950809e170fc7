#include <gtest/gtest.h>

#include <memory>

#include "common/coding.h"
#include "common/rng.h"
#include "encoding/bitpack.h"
#include "encoding/column_vector.h"
#include "encoding/encoding.h"
#include "encoding/lz.h"

namespace s2 {
namespace {

std::unique_ptr<ColumnReader> MustOpen(const ColumnVector& col, Encoding enc) {
  auto encoded = EncodeColumn(col, enc);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto reader =
      OpenColumn(std::make_shared<const std::string>(std::move(*encoded)));
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(*reader);
}

// DecodeRows on `rows` must agree with both the source column and the
// point read at every listed row.
void ExpectDecodeRowsMatches(const ColumnReader& reader,
                             const ColumnVector& col,
                             const std::vector<uint32_t>& rows) {
  ColumnVector out(col.type());
  Status s = reader.DecodeRows(rows, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(out.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.GetValue(i), reader.ValueAt(rows[i])) << "row " << rows[i];
    EXPECT_EQ(out.GetValue(i), col.GetValue(rows[i])) << "row " << rows[i];
  }
}

void ExpectRoundTrip(const ColumnVector& col, Encoding enc) {
  auto reader = MustOpen(col, enc);
  ASSERT_EQ(reader->num_rows(), col.size());
  // Full decode matches.
  ColumnVector decoded(col.type());
  Status s = reader->DecodeAll(&decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(decoded.size(), col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(decoded.GetValue(i), col.GetValue(i)) << "row " << i;
  }
  // Seek matches (every row, plus out-of-order probes).
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(reader->ValueAt(static_cast<uint32_t>(i)), col.GetValue(i))
        << "seek row " << i;
  }
  if (col.size() > 2) {
    EXPECT_EQ(reader->ValueAt(static_cast<uint32_t>(col.size() - 1)),
              col.GetValue(col.size() - 1));
    EXPECT_EQ(reader->ValueAt(0), col.GetValue(0));
  }
  // Batch decode matches seeks on all rows, a sparse ascending subset
  // (irregular gaps, always including the last row) and the empty list.
  std::vector<uint32_t> all(col.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<uint32_t> sparse;
  Rng rng(col.size());
  for (uint32_t i = 0; i < col.size(); i += 1 + rng.Uniform(9)) {
    sparse.push_back(i);
  }
  if (col.size() > 0 && (sparse.empty() || sparse.back() != col.size() - 1)) {
    sparse.push_back(static_cast<uint32_t>(col.size() - 1));
  }
  {
    SCOPED_TRACE("all rows");
    ExpectDecodeRowsMatches(*reader, col, all);
  }
  {
    SCOPED_TRACE("sparse rows");
    ExpectDecodeRowsMatches(*reader, col, sparse);
  }
  {
    SCOPED_TRACE("no rows");
    ExpectDecodeRowsMatches(*reader, col, {});
  }
}

TEST(BitPackTest, WidthFor) {
  EXPECT_EQ(BitWidthFor(0), 0);
  EXPECT_EQ(BitWidthFor(1), 1);
  EXPECT_EQ(BitWidthFor(2), 2);
  EXPECT_EQ(BitWidthFor(255), 8);
  EXPECT_EQ(BitWidthFor(256), 9);
  EXPECT_EQ(BitWidthFor(~0ULL), 64);
}

TEST(BitPackTest, PackUnpackAllWidths) {
  Rng rng(11);
  for (int width = 0; width <= 64; ++width) {
    std::vector<uint64_t> values(100);
    uint64_t mask = width == 64 ? ~0ULL : ((uint64_t{1} << width) - 1);
    for (auto& v : values) v = rng.Next() & mask;
    std::string buf;
    BitPack(values.data(), values.size(), width, &buf);
    EXPECT_EQ(buf.size(), BitPackedBytes(values.size(), width));
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(BitUnpackOne(buf.data(), i, width), values[i])
          << "width=" << width << " i=" << i;
    }
  }
}

TEST(LzTest, RoundTripText) {
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "the quick brown fox jumps over the lazy dog ";
  }
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 2) << "should compress";
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, RoundTripIncompressible) {
  Rng rng(5);
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string compressed;
  LzCompress(input, &compressed);
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, RoundTripTinyAndEmpty) {
  for (const std::string& input : {std::string(), std::string("a"),
                                   std::string("abc"), std::string("aaaa")}) {
    std::string compressed;
    LzCompress(input, &compressed);
    std::string out;
    ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
    EXPECT_EQ(out, input);
  }
}

TEST(LzTest, OverlappingMatch) {
  // Long run of one byte forces offset-1 overlapping copies.
  std::string input(10000, 'q');
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), 200u);
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(ColumnVectorTest, AppendAndNulls) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt(1);
  col.AppendNull();
  col.AppendInt(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(0), Value(int64_t{1}));
  EXPECT_EQ(col.GetValue(1), Value::Null());
  EXPECT_EQ(col.GetValue(2), Value(int64_t{3}));
}

// --- Property-style sweep: every encoding round-trips every data shape. ---

struct EncodingCase {
  const char* name;
  DataType type;
  Encoding encoding;
  int shape;  // 0=random, 1=runs, 2=low-cardinality, 3=sorted, 4=with nulls
};

class EncodingRoundTrip : public ::testing::TestWithParam<EncodingCase> {};

ColumnVector MakeColumn(DataType type, int shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) {
    if (shape == 4 && rng.Bernoulli(0.1)) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64: {
        int64_t v;
        if (shape == 1) {
          v = static_cast<int64_t>(i / 37);  // long runs
        } else if (shape == 2) {
          v = static_cast<int64_t>(rng.Uniform(5));
        } else if (shape == 3) {
          v = static_cast<int64_t>(i) * 3 - 1000;
        } else {
          v = static_cast<int64_t>(rng.Next());
        }
        col.AppendInt(v);
        break;
      }
      case DataType::kDouble:
        col.AppendDouble(shape == 2 ? 1.5 : rng.NextDouble() * 1e6 - 5e5);
        break;
      case DataType::kString: {
        if (shape == 2) {
          col.AppendString("tag" + std::to_string(rng.Uniform(4)));
        } else if (shape == 1) {
          col.AppendString("prefix-shared-" + std::to_string(i / 20));
        } else {
          col.AppendString(rng.NextString(0, 30));
        }
        break;
      }
    }
  }
  return col;
}

TEST_P(EncodingRoundTrip, SeekAndDecodeMatch) {
  const EncodingCase& c = GetParam();
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}}) {
    ColumnVector col = MakeColumn(c.type, c.shape, n, 1234 + n);
    ExpectRoundTrip(col, c.encoding);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingRoundTrip,
    ::testing::Values(
        EncodingCase{"plain_int_rand", DataType::kInt64, Encoding::kPlain, 0},
        EncodingCase{"plain_int_null", DataType::kInt64, Encoding::kPlain, 4},
        EncodingCase{"bitpack_rand", DataType::kInt64, Encoding::kBitPack, 0},
        EncodingCase{"bitpack_sorted", DataType::kInt64, Encoding::kBitPack,
                     3},
        EncodingCase{"bitpack_null", DataType::kInt64, Encoding::kBitPack, 4},
        EncodingCase{"rle_runs", DataType::kInt64, Encoding::kRle, 1},
        EncodingCase{"rle_rand", DataType::kInt64, Encoding::kRle, 0},
        EncodingCase{"rle_null", DataType::kInt64, Encoding::kRle, 4},
        EncodingCase{"dict_int", DataType::kInt64, Encoding::kDict, 2},
        EncodingCase{"dict_int_null", DataType::kInt64, Encoding::kDict, 4},
        EncodingCase{"plain_double", DataType::kDouble, Encoding::kPlain, 0},
        EncodingCase{"plain_double_null", DataType::kDouble, Encoding::kPlain,
                     4},
        EncodingCase{"plain_str", DataType::kString, Encoding::kPlain, 0},
        EncodingCase{"plain_str_null", DataType::kString, Encoding::kPlain,
                     4},
        EncodingCase{"dict_str", DataType::kString, Encoding::kDict, 2},
        EncodingCase{"dict_str_null", DataType::kString, Encoding::kDict, 4},
        EncodingCase{"lz_str_runs", DataType::kString, Encoding::kLz, 1},
        EncodingCase{"lz_str_rand", DataType::kString, Encoding::kLz, 0},
        EncodingCase{"lz_str_null", DataType::kString, Encoding::kLz, 4}),
    [](const ::testing::TestParamInfo<EncodingCase>& info) {
      return info.param.name;
    });

TEST(EncodingTest, ChooseEncodingHeuristics) {
  // Long runs of ints -> RLE.
  ColumnVector runs = MakeColumn(DataType::kInt64, 1, 1000, 1);
  EXPECT_EQ(ChooseEncoding(runs), Encoding::kRle);
  // Low-cardinality strings -> dict.
  ColumnVector lowcard = MakeColumn(DataType::kString, 2, 1000, 2);
  EXPECT_EQ(ChooseEncoding(lowcard), Encoding::kDict);
  // Random wide ints -> bitpack (degenerates to 64-bit width but valid).
  ColumnVector rand_ints = MakeColumn(DataType::kInt64, 0, 1000, 3);
  EXPECT_EQ(ChooseEncoding(rand_ints), Encoding::kBitPack);
  // Doubles -> plain.
  ColumnVector doubles = MakeColumn(DataType::kDouble, 0, 100, 4);
  EXPECT_EQ(ChooseEncoding(doubles), Encoding::kPlain);
}

TEST(EncodingTest, DictExposesDictionaryAndCodes) {
  ColumnVector col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendString(i % 2 ? "yes" : "no");
  auto reader = MustOpen(col, Encoding::kDict);
  const ColumnVector* dict = reader->dictionary();
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->size(), 2u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dict->GetValue(reader->CodeAt(i)), col.GetValue(i));
  }
}

TEST(EncodingTest, NonDictReturnsNullDictionary) {
  ColumnVector col = MakeColumn(DataType::kInt64, 0, 50, 9);
  auto reader = MustOpen(col, Encoding::kPlain);
  EXPECT_EQ(reader->dictionary(), nullptr);
}

TEST(EncodingTest, DecodeRowsSelective) {
  ColumnVector col = MakeColumn(DataType::kInt64, 3, 500, 10);
  auto reader = MustOpen(col, Encoding::kBitPack);
  std::vector<uint32_t> rows = {0, 17, 250, 499};
  ColumnVector out(DataType::kInt64);
  ASSERT_TRUE(reader->DecodeRows(rows, &out).ok());
  ASSERT_EQ(out.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.GetValue(i), col.GetValue(rows[i]));
  }
}

// An LZ column spanning many 16 KB blocks, with nulls and with values
// longer than a block: most values are short, so many straddle a block
// boundary, and each long value covers at least one whole block.
TEST(EncodingTest, LzMultiBlockRoundTrip) {
  constexpr size_t kBlock = 16 * 1024;
  Rng rng(21);
  ColumnVector col(DataType::kString);
  size_t total_bytes = 0;
  size_t long_values = 0;
  for (int i = 0; i < 1500; ++i) {
    if (rng.Bernoulli(0.1)) {
      col.AppendNull();
      continue;
    }
    std::string v = i % 300 == 7 ? rng.NextString(kBlock + 1, 3 * kBlock)
                                 : rng.NextString(0, 120);
    long_values += v.size() > kBlock ? 1 : 0;
    total_bytes += v.size();
    col.AppendString(std::move(v));
  }
  ASSERT_GE(total_bytes, 4 * kBlock);
  ASSERT_GE(long_values, 3u);
  ExpectRoundTrip(col, Encoding::kLz);
}

// Column bodies are outside input (only the segment footer is checksummed):
// an LZ block that fails to decompress surfaces as Corruption from batch
// decode instead of a short buffer.
TEST(EncodingTest, TruncatedLzBlockIsCorruption) {
  ColumnVector col(DataType::kString);
  std::string payload;
  for (int i = 0; i < 200; ++i) {
    std::string v = "value-" + std::to_string(i) + "-abcdefghij";
    payload += v;
    col.AppendString(std::move(v));
  }
  auto encoded = EncodeColumn(col, Encoding::kLz);
  ASSERT_TRUE(encoded.ok());
  // One block: the column ends with the block directory entry
  // (uncompressed, compressed size) followed by the compressed block.
  std::string block;
  LzCompress(payload, &block);
  std::string dir;
  PutVarint64(&dir, payload.size());
  PutVarint64(&dir, block.size());
  size_t dir_pos = encoded->size() - block.size() - dir.size();
  ASSERT_EQ(encoded->substr(dir_pos), dir + block);
  // Keep the first half of the block and record the shorter size.
  size_t kept = block.size() / 2;
  std::string truncated = encoded->substr(0, dir_pos);
  PutVarint64(&truncated, payload.size());
  PutVarint64(&truncated, kept);
  truncated.append(block, 0, kept);

  auto reader = OpenColumn(std::make_shared<const std::string>(truncated));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnVector all(DataType::kString);
  EXPECT_TRUE((*reader)->DecodeAll(&all).IsCorruption());
  ColumnVector some(DataType::kString);
  EXPECT_TRUE((*reader)->DecodeRows({3, 150}, &some).IsCorruption());
  EXPECT_EQ((*reader)->ValueAt(3), Value::Null());
}

TEST(EncodingTest, CorruptBlockRejected) {
  ColumnVector col = MakeColumn(DataType::kInt64, 0, 100, 12);
  auto encoded = EncodeColumn(col, Encoding::kPlain);
  ASSERT_TRUE(encoded.ok());
  std::string truncated = encoded->substr(0, encoded->size() / 2);
  auto reader = OpenColumn(std::make_shared<const std::string>(truncated));
  EXPECT_FALSE(reader.ok());
}

// A dictionary code past the end of the dictionary is Corruption from
// batch decode, not an out-of-range read.
TEST(EncodingTest, DictCodeOutOfRangeIsCorruption) {
  ColumnVector col(DataType::kInt64);
  for (int64_t v : {0, 1, 2, 2}) col.AppendInt(v);
  auto plain = EncodeColumn(col, Encoding::kPlain);
  auto dict = EncodeColumn(col, Encoding::kDict);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(dict.ok());
  // Both encodings share the header; the plain int payload is 8 bytes/row.
  size_t header = plain->size() - 8 * col.size();
  // Dictionary section: 3 entries, zigzag-coded 0, 1, 2. Drop the last
  // entry so code 2 points past the dictionary.
  ASSERT_EQ(dict->substr(header, 4), std::string("\x03\x00\x02\x04", 4));
  std::string bad = dict->substr(0, header) + std::string("\x02\x00\x02", 3) +
                    dict->substr(header + 4);
  auto reader = OpenColumn(std::make_shared<const std::string>(bad));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnVector out(DataType::kInt64);
  EXPECT_TRUE((*reader)->DecodeRows({0, 2}, &out).IsCorruption());
  // A point read of the bad code is NULL, as for an unreadable LZ value;
  // the good codes still read.
  EXPECT_EQ((*reader)->ValueAt(1), Value(int64_t{1}));
  EXPECT_TRUE((*reader)->ValueAt(2).is_null());
  EXPECT_TRUE((*reader)->ValueAt(3).is_null());
}

TEST(EncodingTest, CompressionActuallyShrinks) {
  // 1000 rows of 5 distinct strings: dict must beat plain by a lot.
  ColumnVector col = MakeColumn(DataType::kString, 2, 1000, 13);
  auto plain = EncodeColumn(col, Encoding::kPlain);
  auto dict = EncodeColumn(col, Encoding::kDict);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(dict->size() * 4, plain->size());

  ColumnVector runs = MakeColumn(DataType::kInt64, 1, 10000, 14);
  auto plain_i = EncodeColumn(runs, Encoding::kPlain);
  auto rle = EncodeColumn(runs, Encoding::kRle);
  EXPECT_LT(rle->size() * 10, plain_i->size());
}

}  // namespace
}  // namespace s2
