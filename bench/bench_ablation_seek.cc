// Ablation: seekable column encodings (paper Section 2.1.2) — "the column
// encodings are each implemented to be seekable to allow efficient reads
// at a specific row offset without decoding all the rows". Measures point
// reads via ColumnReader::ValueAt against decoding the whole column, per
// encoding. An LZ reader decodes each block once in its life, so LZ point
// reads are measured warm (one reader) and cold (a fresh reader per read,
// which decompresses the value's block).

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "encoding/encoding.h"

namespace s2 {
namespace {

constexpr uint32_t kRows = 65536;

std::shared_ptr<const std::string> Encode(Encoding encoding, DataType type) {
  Rng rng(17);
  ColumnVector col(type);
  for (uint32_t i = 0; i < kRows; ++i) {
    if (type == DataType::kInt64) {
      switch (encoding) {
        case Encoding::kRle:
          col.AppendInt(static_cast<int64_t>(i / 100));
          break;
        case Encoding::kDict:
          col.AppendInt(static_cast<int64_t>(rng.Uniform(32)));
          break;
        default:
          col.AppendInt(static_cast<int64_t>(rng.Uniform(1000000)));
      }
    } else {
      if (encoding == Encoding::kDict) {
        col.AppendString("val-" + std::to_string(rng.Uniform(64)));
      } else {
        col.AppendString(rng.NextString(8, 40));
      }
    }
  }
  auto encoded = EncodeColumn(col, encoding);
  return std::make_shared<const std::string>(std::move(*encoded));
}

std::unique_ptr<ColumnReader> Build(Encoding encoding, DataType type) {
  auto reader = OpenColumn(Encode(encoding, type));
  return std::move(*reader);
}

void BM_Seek(benchmark::State& state, Encoding encoding, DataType type) {
  auto reader = Build(encoding, type);
  Rng rng(3);
  for (auto _ : state) {
    Value v = reader->ValueAt(static_cast<uint32_t>(rng.Uniform(kRows)));
    benchmark::DoNotOptimize(v);
  }
  state.SetLabel(EncodingName(encoding));
}

void BM_SeekCold(benchmark::State& state, Encoding encoding, DataType type) {
  auto encoded = Encode(encoding, type);
  Rng rng(3);
  for (auto _ : state) {
    auto reader = OpenColumn(encoded);
    Value v = (*reader)->ValueAt(static_cast<uint32_t>(rng.Uniform(kRows)));
    benchmark::DoNotOptimize(v);
  }
  state.SetLabel(EncodingName(encoding));
}

void BM_FullDecode(benchmark::State& state, Encoding encoding,
                   DataType type) {
  auto reader = Build(encoding, type);
  for (auto _ : state) {
    ColumnVector out(type);
    Status s = reader->DecodeAll(&out);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel(EncodingName(encoding));
}

BENCHMARK_CAPTURE(BM_Seek, int_plain, Encoding::kPlain, DataType::kInt64);
BENCHMARK_CAPTURE(BM_Seek, int_bitpack, Encoding::kBitPack, DataType::kInt64);
BENCHMARK_CAPTURE(BM_Seek, int_rle, Encoding::kRle, DataType::kInt64);
BENCHMARK_CAPTURE(BM_Seek, int_dict, Encoding::kDict, DataType::kInt64);
BENCHMARK_CAPTURE(BM_Seek, str_plain, Encoding::kPlain, DataType::kString);
BENCHMARK_CAPTURE(BM_Seek, str_dict, Encoding::kDict, DataType::kString);
BENCHMARK_CAPTURE(BM_Seek, str_lz, Encoding::kLz, DataType::kString);
BENCHMARK_CAPTURE(BM_SeekCold, str_lz, Encoding::kLz, DataType::kString);
BENCHMARK_CAPTURE(BM_FullDecode, int_bitpack, Encoding::kBitPack,
                  DataType::kInt64);
BENCHMARK_CAPTURE(BM_FullDecode, str_lz, Encoding::kLz, DataType::kString);

}  // namespace
}  // namespace s2

int main(int argc, char** argv) {
  printf("\nAblation: seekable encodings (paper Section 2.1.2). A point "
         "read (BM_Seek) must cost microseconds or less — NOT a full "
         "column decode (BM_FullDecode) — for the columnstore to serve "
         "OLTP point queries. A cold LZ seek (BM_SeekCold) decompresses one "
         "16KB block, not the column; a warm one reads the reader's "
         "already-decoded block.\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
