// Scan bounds: the conjuncts of a scan's filter that compare one column with
// a constant (`k = 5`, `2.5 > k`). Storage that knows the range of values a
// unit of rows holds — a sealed column group's min and max, a partition
// leaf's [lower, upper) — passes over a unit in which no value can satisfy
// one bound. Every row it passes over would have failed the filter.
#ifndef GPHTAP_STORAGE_SCAN_BOUNDS_H_
#define GPHTAP_STORAGE_SCAN_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "catalog/datum.h"

namespace gphtap {

enum class BoundOp : uint8_t { kEq, kLt, kLe, kGt, kGe };

/// `column op value`, the column on the left.
struct ScanBound {
  int column = -1;  // a table column
  BoundOp op = BoundOp::kEq;
  Datum value;  // a non-NULL int, or a double that is not NaN
};

using ScanBounds = std::vector<ScanBound>;

/// Whether a value v with `lower` <= v <= `upper` (v < `upper` when
/// `upper_exclusive`) can satisfy `v op bound.value`, every comparison made
/// through Datum::Compare as the filter makes it. A NULL limit is open. The
/// answer holds only for values that are not NaN: Datum::Compare finds NaN
/// equal to every double, so a range says nothing about a NaN.
bool RangeMaySatisfy(const ScanBound& bound, const Datum& lower, const Datum& upper,
                     bool upper_exclusive);

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_SCAN_BOUNDS_H_
