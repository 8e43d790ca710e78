#include "vec/column_batch.h"

#include <algorithm>

namespace gphtap {

namespace {

// Empties a null mask that flags no row, the lazy "no NULLs" form.
void DropMaskWithoutNulls(std::vector<uint8_t>* nulls) {
  if (std::find(nulls->begin(), nulls->end(), 1) == nulls->end()) nulls->clear();
}

}  // namespace

void ColumnVector::ResetTyped(Tag t, size_t n) {
  Clear();
  tag = t;
  switch (tag) {
    case Tag::kInt64:
      ints.assign(n, 0);
      break;
    case Tag::kDouble:
      dbls.assign(n, 0.0);
      break;
    case Tag::kDatum:
      datums.assign(n, Datum());
      break;
  }
}

void ColumnVector::Demote() {
  if (tag == Tag::kDatum) return;
  const size_t n = size();
  std::vector<Datum> boxed;
  boxed.reserve(n);
  for (size_t r = 0; r < n; ++r) boxed.push_back(GetDatum(r));
  Clear();
  tag = Tag::kDatum;
  datums = std::move(boxed);
}

void ColumnVector::Append(const Datum& d) {
  if (size() == 0 && nulls.empty()) {
    // Empty column: adopt the datum's type (NULL defaults to the int layout —
    // the mask keeps it exact whatever arrives later).
    if (d.is_double()) {
      tag = Tag::kDouble;
    } else if (d.is_string()) {
      tag = Tag::kDatum;
    } else {
      tag = Tag::kInt64;
    }
  }
  const bool fits = tag == Tag::kDatum || d.is_null() ||
                    (tag == Tag::kInt64 ? d.is_int() : d.is_double());
  if (!fits) Demote();
  AppendTyped(d);
}

void ColumnVector::Append(Datum&& d) {
  if (tag == Tag::kDatum && size() > 0) {
    datums.push_back(std::move(d));
    return;
  }
  Append(static_cast<const Datum&>(d));
}

void ColumnVector::AppendTyped(const Datum& d) {
  if (tag == Tag::kDatum) {
    datums.push_back(d);
    return;
  }
  const bool null = d.is_null();
  if (null) {
    EnsureNulls();  // sized to the rows before this one
    nulls.push_back(1);
  } else if (!nulls.empty()) {
    nulls.push_back(0);
  }
  if (tag == Tag::kInt64) {
    ints.push_back(null ? 0 : d.int_val());
  } else {
    dbls.push_back(null ? 0.0 : d.AsDouble());
  }
}

void ColumnVector::AssignRange(const ColumnVector& src, size_t begin, size_t end) {
  Clear();
  tag = src.tag;
  auto copy = [&](const auto& from, auto* to) {
    to->assign(from.begin() + static_cast<long>(begin), from.begin() + static_cast<long>(end));
  };
  switch (tag) {
    case Tag::kInt64:
      copy(src.ints, &ints);
      break;
    case Tag::kDouble:
      copy(src.dbls, &dbls);
      break;
    case Tag::kDatum:
      copy(src.datums, &datums);
      break;
  }
  if (!src.nulls.empty()) {
    copy(src.nulls, &nulls);
    DropMaskWithoutNulls(&nulls);
  }
}

void ColumnVector::EraseFront(size_t n) {
  auto erase = [n](auto* v) { v->erase(v->begin(), v->begin() + static_cast<long>(n)); };
  switch (tag) {
    case Tag::kInt64:
      erase(&ints);
      break;
    case Tag::kDouble:
      erase(&dbls);
      break;
    case Tag::kDatum:
      erase(&datums);
      break;
  }
  if (!nulls.empty()) {
    erase(&nulls);
    DropMaskWithoutNulls(&nulls);
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t r) {
  if (size() == 0 && nulls.empty()) tag = src.tag;
  if (tag == src.tag) {
    switch (tag) {
      case Tag::kInt64:
        if (src.IsNull(r)) {
          EnsureNulls();
          ints.push_back(0);
          nulls.push_back(1);
        } else {
          ints.push_back(src.ints[r]);
          if (!nulls.empty()) nulls.push_back(0);
        }
        return;
      case Tag::kDouble:
        if (src.IsNull(r)) {
          EnsureNulls();
          dbls.push_back(0.0);
          nulls.push_back(1);
        } else {
          dbls.push_back(src.dbls[r]);
          if (!nulls.empty()) nulls.push_back(0);
        }
        return;
      case Tag::kDatum:
        datums.push_back(src.datums[r]);
        return;
    }
  }
  Append(src.GetDatum(r));
}

void ColumnBatch::Reset(size_t ncols, size_t capacity) {
  Clear();
  columns.resize(ncols);
  for (auto& col : columns) col.Reserve(capacity);
  sel.reserve(capacity);
}

void ColumnBatch::SelectAll() {
  sel.resize(rows);
  for (size_t r = 0; r < rows; ++r) sel[r] = static_cast<int32_t>(r);
}

void ColumnBatch::AppendRow(const Row& row) {
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

void ColumnBatch::AppendRow(Row&& row) {
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(std::move(row[c]));
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

void ColumnBatch::AppendSelectedFrom(const ColumnBatch& src, int32_t r) {
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendFrom(src.columns[c], static_cast<size_t>(r));
  }
  sel.push_back(static_cast<int32_t>(rows));
  ++rows;
}

Row ColumnBatch::MaterializeRow(int32_t r) const {
  Row out;
  out.reserve(columns.size());
  for (const auto& col : columns) out.push_back(col.GetDatum(static_cast<size_t>(r)));
  return out;
}

void ColumnBatch::AppendTo(std::vector<Row>* out) const {
  out->reserve(out->size() + sel.size());
  for (int32_t r : sel) out->push_back(MaterializeRow(r));
}

ColumnBatch ColumnBatch::FromRows(const std::vector<Row>& rows) {
  ColumnBatch b;
  b.Reset(rows.empty() ? 0 : rows[0].size(), rows.size());
  for (const Row& r : rows) b.AppendRow(r);
  return b;
}

void ColumnBatch::Compact() {
  if (sel.size() == rows) return;  // already dense
  for (auto& col : columns) {
    ColumnVector dense;
    dense.tag = col.tag;
    dense.Reserve(sel.size());
    for (int32_t r : sel) dense.AppendFrom(col, static_cast<size_t>(r));
    col = std::move(dense);
  }
  rows = sel.size();
  SelectAll();
}

int64_t ColumnBatch::FootprintBytes() const {
  int64_t bytes = 0;
  for (int32_t r : sel) {
    bytes += static_cast<int64_t>(sizeof(Row));
    for (const auto& col : columns) {
      bytes += static_cast<int64_t>(col.FootprintAt(static_cast<size_t>(r)));
    }
  }
  return bytes;
}

}  // namespace gphtap
