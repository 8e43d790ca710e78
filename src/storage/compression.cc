#include "storage/compression.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace gphtap {

namespace {

// LZ tokens: a match copies kLzMinMatch to kLzMaxMatch bytes.
constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxMatch = 0x7f + kLzMinMatch;

// Bounds-checked cursor over encoded bytes: every Get* below fails instead of
// reading past `size`.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  size_t left() const { return size - pos; }
};

// ---------- varint / zigzag ----------

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(Reader* in, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && in->pos < in->size; shift += 7) {
    const uint8_t b = in->data[in->pos++];
    result |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

bool GetString(Reader* in, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(in, &len) || len > in->left()) return false;
  s->assign(reinterpret_cast<const char*>(in->data + in->pos), len);
  in->pos += len;
  return true;
}

void PutDouble(std::vector<uint8_t>* out, double d) {
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
}

bool GetDouble(Reader* in, double* d) {
  if (in->left() < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(in->data[in->pos + i]) << (8 * i);
  }
  in->pos += 8;
  *d = std::bit_cast<double>(bits);
  return true;
}

// ---------- per-type value codecs ----------
//
// How one value of a column payload is written and read, and the key by which
// RLE runs and dictionary entries merge values: int64 by value, doubles by bit
// pattern (== would merge 0.0 with -0.0 and never match a NaN), strings by
// content.

struct IntValues {
  using T = int64_t;
  static constexpr ColumnVector::Tag kTag = ColumnVector::Tag::kInt64;
  static const std::vector<T>& Of(const ColumnVector& c) { return c.ints; }
  static std::vector<T>& Of(ColumnVector* c) { return c->ints; }
  static void Put(std::vector<uint8_t>* out, T v) { PutVarint(out, ZigzagEncode(v)); }
  static bool Get(Reader* in, T* v) {
    uint64_t z = 0;
    if (!GetVarint(in, &z)) return false;
    *v = ZigzagDecode(z);
    return true;
  }
  static T Key(T v) { return v; }
};

struct DoubleValues {
  using T = double;
  static constexpr ColumnVector::Tag kTag = ColumnVector::Tag::kDouble;
  static const std::vector<T>& Of(const ColumnVector& c) { return c.dbls; }
  static std::vector<T>& Of(ColumnVector* c) { return c->dbls; }
  static void Put(std::vector<uint8_t>* out, T v) { PutDouble(out, v); }
  static bool Get(Reader* in, T* v) { return GetDouble(in, v); }
  static uint64_t Key(T v) { return std::bit_cast<uint64_t>(v); }
};

struct StringValues {
  using T = Datum;
  static constexpr ColumnVector::Tag kTag = ColumnVector::Tag::kDatum;
  static const std::vector<T>& Of(const ColumnVector& c) { return c.datums; }
  static std::vector<T>& Of(ColumnVector* c) { return c->datums; }
  static void Put(std::vector<uint8_t>* out, const T& v) { PutString(out, v.string_val()); }
  static bool Get(Reader* in, T* v) {
    std::string s;
    if (!GetString(in, &s)) return false;
    *v = Datum(std::move(s));
    return true;
  }
  static std::string_view Key(const T& v) { return v.string_val(); }
};

// ---------- codec payloads (the non-null values, in row order) ----------

// Writes the payload of the non-NULL values among rows [0, n) of `col`.
template <typename V>
void EncodePayload(CompressionKind kind, const ColumnVector& col, size_t n,
                   std::vector<uint8_t>* out) {
  using T = typename V::T;
  const std::vector<T>& vals = V::Of(col);
  auto for_each_value = [&](auto&& fn) {
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(i)) fn(vals[i]);
    }
  };
  switch (kind) {
    case CompressionKind::kNone:
      for_each_value([&](const T& v) { V::Put(out, v); });
      break;
    case CompressionKind::kRle: {
      const T* run = nullptr;  // the current run's value
      uint64_t len = 0;
      auto flush = [&] {
        if (len == 0) return;
        PutVarint(out, len);
        V::Put(out, *run);
      };
      for_each_value([&](const T& v) {
        if (len > 0 && V::Key(*run) == V::Key(v)) {
          ++len;
          return;
        }
        flush();
        run = &v;
        len = 1;
      });
      flush();
      break;
    }
    case CompressionKind::kDelta:
      if constexpr (std::is_same_v<T, int64_t>) {
        // Differences wrap in uint64, so any two int64s round-trip exactly.
        uint64_t prev = 0;
        for_each_value([&](int64_t v) {
          PutVarint(out, ZigzagEncode(static_cast<int64_t>(static_cast<uint64_t>(v) - prev)));
          prev = static_cast<uint64_t>(v);
        });
      }
      break;
    case CompressionKind::kDict: {
      std::unordered_map<decltype(V::Key(std::declval<const T&>())), uint64_t> code_of;
      std::vector<const T*> dict;
      std::vector<uint64_t> codes;
      codes.reserve(n);
      for_each_value([&](const T& v) {
        auto [it, fresh] = code_of.try_emplace(V::Key(v), dict.size());
        if (fresh) dict.push_back(&v);
        codes.push_back(it->second);
      });
      PutVarint(out, dict.size());
      for (const T* v : dict) V::Put(out, *v);
      for (uint64_t c : codes) PutVarint(out, c);
      break;
    }
    case CompressionKind::kLz: {
      std::vector<uint8_t> raw;
      for_each_value([&](const T& v) { V::Put(&raw, v); });
      std::vector<uint8_t> packed = LzCompress(raw);
      out->insert(out->end(), packed.begin(), packed.end());
      break;
    }
  }
}

// Reads `n` raw values into out[0, n).
template <typename V>
bool DecodeRaw(Reader* in, size_t n, typename V::T* out) {
  if constexpr (std::is_same_v<typename V::T, double> &&
                std::endian::native == std::endian::little) {
    // Raw doubles are the array's own little-endian bytes.
    if (in->left() / 8 < n) return false;
    if (n > 0) std::memcpy(out, in->data + in->pos, n * 8);
    in->pos += n * 8;
    return true;
  } else {
    Reader r = *in;  // a local cursor: stores through `out` cannot alias it
    for (size_t i = 0; i < n; ++i) {
      if (!V::Get(&r, &out[i])) return false;
    }
    *in = r;
    return true;
  }
}

// Reads the payload of `n` non-NULL values into out[0, n).
template <typename V>
bool DecodePayload(CompressionKind kind, Reader in, size_t n, typename V::T* out) {
  using T = typename V::T;
  switch (kind) {
    case CompressionKind::kNone:
      return DecodeRaw<V>(&in, n, out);
    case CompressionKind::kRle:
      for (size_t i = 0; i < n;) {
        uint64_t run = 0;
        T v{};
        if (!GetVarint(&in, &run) || !V::Get(&in, &v) || run == 0 || run > n - i) {
          return false;
        }
        std::fill_n(out + i, run, v);
        i += run;
      }
      return true;
    case CompressionKind::kDelta:
      if constexpr (std::is_same_v<T, int64_t>) {
        uint64_t sum = 0;
        for (size_t i = 0; i < n; ++i) {
          uint64_t z = 0;
          if (!GetVarint(&in, &z)) return false;
          sum += static_cast<uint64_t>(ZigzagDecode(z));
          out[i] = static_cast<int64_t>(sum);
        }
        return true;
      }
      return false;  // only int64 blocks use delta
    case CompressionKind::kDict: {
      uint64_t size = 0;
      // Every entry takes at least one byte, so a larger size is corrupt.
      if (!GetVarint(&in, &size) || size > in.left()) return false;
      std::vector<T> dict(size);
      for (T& v : dict) {
        if (!V::Get(&in, &v)) return false;
      }
      for (size_t i = 0; i < n; ++i) {
        uint64_t code = 0;
        if (!GetVarint(&in, &code) || code >= size) return false;
        out[i] = dict[code];
      }
      return true;
    }
    case CompressionKind::kLz: {
      auto raw = LzDecompress(std::span<const uint8_t>(in.data + in.pos, in.left()));
      if (!raw.ok()) return false;
      Reader expanded{raw->data(), raw->size()};
      return DecodeRaw<V>(&expanded, n, out);
    }
  }
  return false;
}

Status CorruptBlock() { return Status::InvalidArgument("corrupt compressed block"); }

// Decodes a block of V's type whose null bitmap (`num_nulls` bits set among
// the first block.count) precedes the payload at `in`.
template <typename V>
Status DecodeValues(const CompressedBlock& block, Reader in, const uint8_t* bitmap,
                    size_t num_nulls, ColumnVector* out) {
  using T = typename V::T;
  const size_t n = block.count;
  size_t k = n - num_nulls;
  out->ResetTyped(V::kTag, n);
  std::vector<T>& vals = V::Of(out);
  if (!DecodePayload<V>(block.kind, in, k, vals.data())) return CorruptBlock();
  if (num_nulls == 0) return Status::OK();
  // The payload filled vals[0, k). Move each value up to its row, back to
  // front, until the rows below hold no NULL.
  constexpr bool kMasked = V::kTag != ColumnVector::Tag::kDatum;
  if constexpr (kMasked) out->nulls.assign(n, 0);
  for (size_t i = n; k < i;) {
    --i;
    if (((bitmap[i / 8] >> (i % 8)) & 1) == 0) {
      vals[i] = std::move(vals[--k]);
    } else {
      vals[i] = T();
      if constexpr (kMasked) out->nulls[i] = 1;
    }
  }
  return Status::OK();
}

void PutNullBitmap(std::vector<uint8_t>* out, const ColumnVector& col, size_t n) {
  const size_t start = out->size();
  out->resize(start + (n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) {
    if (col.IsNull(i)) (*out)[start + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
}

}  // namespace

// ---------- LZ77-style byte codec ----------

std::vector<uint8_t> LzCompress(std::span<const uint8_t> in) {
  // Format: sequence of tokens. Token byte T:
  //   T < 0x80: literal run of T+1 bytes follows.
  //   T >= 0x80: match; length = (T & 0x7f) + kLzMinMatch, followed by varint
  //              backward distance (>=1).
  std::vector<uint8_t> out;
  PutVarint(&out, in.size());
  if (in.empty()) return out;

  std::unordered_map<uint32_t, size_t> table;  // 4-byte prefix hash -> position
  auto hash4 = [&](size_t p) {
    uint32_t v;
    std::memcpy(&v, in.data() + p, 4);
    return v * 2654435761u;
  };

  size_t i = 0, lit_start = 0;
  auto flush_literals = [&](size_t end) {
    size_t p = lit_start;
    while (p < end) {
      size_t run = std::min<size_t>(end - p, 0x80);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), in.begin() + static_cast<long>(p),
                 in.begin() + static_cast<long>(p + run));
      p += run;
    }
  };

  while (i + kLzMinMatch <= in.size()) {
    uint32_t h = hash4(i);
    auto it = table.find(h);
    size_t match_pos = (it != table.end()) ? it->second : SIZE_MAX;
    table[h] = i;
    if (match_pos != SIZE_MAX && i - match_pos <= (1u << 20) &&
        std::memcmp(in.data() + match_pos, in.data() + i, kLzMinMatch) == 0) {
      size_t len = kLzMinMatch;
      while (i + len < in.size() && len < kLzMaxMatch &&
             in[match_pos + len] == in[i + len]) {
        ++len;
      }
      flush_literals(i);
      out.push_back(static_cast<uint8_t>(0x80 | (len - kLzMinMatch)));
      PutVarint(&out, i - match_pos);
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(in.size());
  return out;
}

StatusOr<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> in) {
  Reader r{in.data(), in.size()};
  uint64_t total = 0;
  // A token of n bytes expands to fewer than n * kLzMaxMatch, so a larger
  // header is corrupt; checking it first keeps it from sizing the buffer.
  if (!GetVarint(&r, &total) || total / kLzMaxMatch > r.left()) {
    return Status::InvalidArgument("lz: bad header");
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  while (out.size() < total) {
    if (r.left() == 0) return Status::InvalidArgument("lz: truncated stream");
    const uint8_t t = r.data[r.pos++];
    if (t < 0x80) {
      const size_t run = static_cast<size_t>(t) + 1;
      if (run > r.left()) return Status::InvalidArgument("lz: bad literal run");
      out.insert(out.end(), r.data + r.pos, r.data + r.pos + run);
      r.pos += run;
    } else {
      const size_t len = static_cast<size_t>(t & 0x7f) + kLzMinMatch;
      uint64_t dist = 0;
      if (!GetVarint(&r, &dist)) return Status::InvalidArgument("lz: bad distance");
      if (dist == 0 || dist > out.size()) {
        return Status::InvalidArgument("lz: distance out of range");
      }
      const size_t start = out.size() - dist;
      out.resize(out.size() + len);
      uint8_t* dst = out.data() + out.size() - len;
      for (size_t k = 0; k < len; ++k) dst[k] = out[start + k];  // may overlap
    }
  }
  if (out.size() != total) return Status::InvalidArgument("lz: size mismatch");
  return out;
}

// ---------- public entry points ----------

void EncodeColumn(CompressionKind kind, const ColumnVector& col, size_t n,
                  CompressedBlock* out) {
  switch (col.tag) {
    case ColumnVector::Tag::kInt64:
      out->type = TypeId::kInt64;
      break;
    case ColumnVector::Tag::kDouble:
      out->type = TypeId::kDouble;
      break;
    case ColumnVector::Tag::kDatum:
      out->type = TypeId::kString;
      break;
  }
  // Delta applies to ints only; fall back to raw otherwise.
  out->kind = kind == CompressionKind::kDelta && out->type != TypeId::kInt64
                  ? CompressionKind::kNone
                  : kind;
  out->count = static_cast<uint32_t>(n);
  out->bytes.clear();
  PutNullBitmap(&out->bytes, col, n);
  switch (out->type) {
    case TypeId::kInt64:
      EncodePayload<IntValues>(out->kind, col, n, &out->bytes);
      break;
    case TypeId::kDouble:
      EncodePayload<DoubleValues>(out->kind, col, n, &out->bytes);
      break;
    case TypeId::kString:
      EncodePayload<StringValues>(out->kind, col, n, &out->bytes);
      break;
  }
}

Status DecodeColumn(const CompressedBlock& block, ColumnVector* out) {
  const size_t n = block.count;
  const size_t bitmap_bytes = (n + 7) / 8;
  if (block.bytes.size() < bitmap_bytes) return CorruptBlock();
  const uint8_t* bitmap = block.bytes.data();
  size_t num_nulls = 0;
  for (size_t b = 0; b < n / 8; ++b) num_nulls += static_cast<size_t>(std::popcount(bitmap[b]));
  if (n % 8 != 0) {
    const unsigned tail = bitmap[n / 8] & ((1u << (n % 8)) - 1);
    num_nulls += static_cast<size_t>(std::popcount(tail));
  }
  const Reader payload{block.bytes.data(), block.bytes.size(), bitmap_bytes};
  switch (block.type) {
    case TypeId::kInt64:
      return DecodeValues<IntValues>(block, payload, bitmap, num_nulls, out);
    case TypeId::kDouble:
      return DecodeValues<DoubleValues>(block, payload, bitmap, num_nulls, out);
    case TypeId::kString:
      return DecodeValues<StringValues>(block, payload, bitmap, num_nulls, out);
  }
  return CorruptBlock();
}

}  // namespace gphtap
