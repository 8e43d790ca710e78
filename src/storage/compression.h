// Column block codecs for append-optimized storage: RLE, delta, dictionary,
// and an LZ77-style byte codec — written from scratch (the paper's zstd/zlib/
// quicklz stand-ins; see DESIGN.md substitutions). Blocks encode straight from
// a ColumnVector's typed arrays and decode straight back into them: no value
// of an int64 or double column is boxed on either side.
#ifndef GPHTAP_STORAGE_COMPRESSION_H_
#define GPHTAP_STORAGE_COMPRESSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/datum.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "vec/column_batch.h"

namespace gphtap {

/// One compressed column block.
struct CompressedBlock {
  CompressionKind kind = CompressionKind::kNone;
  TypeId type = TypeId::kInt64;
  uint32_t count = 0;            // number of values (incl. nulls)
  std::vector<uint8_t> bytes;    // null bitmap + payload
};

/// Compresses the first `n` rows of `col` (n <= col.size()) with the
/// requested codec. The column's tag gives the block's type: kInt64, kDouble,
/// or kString for a kDatum column, whose non-NULL datums must be strings.
/// Codecs that cannot represent the data (delta on doubles or strings) fall
/// back to kNone; the block records the codec actually used. RLE runs and
/// dictionary entries merge only identical values: doubles compare by bit
/// pattern, so 0.0, -0.0 and distinct NaNs stay apart.
void EncodeColumn(CompressionKind kind, const ColumnVector& col, size_t n,
                  CompressedBlock* out);

/// Decodes `block` into `out`, replacing its contents. Int64 and double
/// values land unboxed in `out->ints` / `out->dbls`, NULLs in the lazy mask
/// (left empty when the block has none); strings land as boxed datums.
/// Returns InvalidArgument, reading nothing past the block's bytes, when they
/// do not hold `count` values of the block's type and codec; `out` then holds
/// no meaningful rows.
Status DecodeColumn(const CompressedBlock& block, ColumnVector* out);

/// Raw LZ77-style byte compression (greedy hash-chain matcher). Exposed for
/// tests; EncodeColumn(kLz) applies it to the raw encoding.
std::vector<uint8_t> LzCompress(std::span<const uint8_t> in);
StatusOr<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> in);

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COMPRESSION_H_
