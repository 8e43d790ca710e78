#include "storage/scan_bounds.h"

namespace gphtap {

bool RangeMaySatisfy(const ScanBound& bound, const Datum& lower, const Datum& upper,
                     bool upper_exclusive) {
  const Datum& c = bound.value;
  // v < upper rules out v = c for c >= upper only when upper and c are of one
  // type: Compare rounds an int against a double, so an int v just below an
  // int upper can round to a double c equal to upper.
  const bool strict = upper_exclusive && upper.is_int() == c.is_int();
  const bool lower_le = lower.is_null() || lower.Compare(c) <= 0;
  const bool upper_ge =
      upper.is_null() || (strict ? upper.Compare(c) > 0 : upper.Compare(c) >= 0);
  switch (bound.op) {
    case BoundOp::kEq:
      return lower_le && upper_ge;
    case BoundOp::kLt:
      return lower.is_null() || lower.Compare(c) < 0;
    case BoundOp::kLe:
      return lower_le;
    case BoundOp::kGt:
      return upper.is_null() || upper.Compare(c) > 0;
    case BoundOp::kGe:
      return upper_ge;
  }
  return true;
}

}  // namespace gphtap
