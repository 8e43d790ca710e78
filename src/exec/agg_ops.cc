#include "exec/agg_ops.h"

namespace gphtap {

namespace {

// Adds one sum()/avg() input, int while every input is an int.
Status AddToSum(AggState* s, const Datum& v) {
  s->has_value = true;
  if (v.is_int() && s->sum_is_int) {
    return IntArith(BinOp::kAdd, s->isum, v.int_val(), &s->isum);
  }
  if (s->sum_is_int) {
    s->sum = static_cast<double>(s->isum);
    s->sum_is_int = false;
  }
  s->sum += v.AsDouble();
  return Status::OK();
}

}  // namespace

Status AggUpdateValue(AggFunc fn, AggState* s, const Datum& v) {
  if (fn == AggFunc::kCountStar) {
    ++s->count;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  switch (fn) {
    case AggFunc::kCount:
      ++s->count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++s->count;
      return AddToSum(s, v);
    case AggFunc::kMin:
      if (!s->has_value || v.Compare(s->acc) < 0) s->acc = v;
      s->has_value = true;
      break;
    case AggFunc::kMax:
      if (!s->has_value || v.Compare(s->acc) > 0) s->acc = v;
      s->has_value = true;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

Status AggUpdate(const AggSpec& spec, AggState* s, const Row& row) {
  if (spec.fn == AggFunc::kCountStar) {
    ++s->count;
    return Status::OK();
  }
  GPHTAP_ASSIGN_OR_RETURN(Datum v, EvalExpr(*spec.arg, row));
  return AggUpdateValue(spec.fn, s, v);
}

Datum AggSumDatum(const AggState& s) {
  if (!s.has_value) return Datum::Null();
  return s.sum_is_int ? Datum(s.isum) : Datum(s.sum);
}

void AggEmitPartial(const AggSpec& spec, const AggState& s, Row* out) {
  switch (spec.fn) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out->push_back(Datum(s.count));
      break;
    case AggFunc::kSum:
      out->push_back(AggSumDatum(s));
      break;
    case AggFunc::kAvg:
      out->push_back(AggSumDatum(s));
      out->push_back(Datum(s.count));
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      out->push_back(s.has_value ? s.acc : Datum::Null());
      break;
  }
}

Status AggMergePartial(const AggSpec& spec, AggState* s, const Row& row, int col) {
  const Datum& v0 = row[static_cast<size_t>(col)];
  switch (spec.fn) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      if (!v0.is_null()) s->count += v0.int_val();
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!v0.is_null()) GPHTAP_RETURN_IF_ERROR(AddToSum(s, v0));
      if (spec.fn == AggFunc::kAvg) {
        const Datum& c = row[static_cast<size_t>(col) + 1];
        if (!c.is_null()) s->count += c.int_val();
      }
      return Status::OK();
    }
    case AggFunc::kMin:
      if (!v0.is_null() && (!s->has_value || v0.Compare(s->acc) < 0)) s->acc = v0;
      if (!v0.is_null()) s->has_value = true;
      return Status::OK();
    case AggFunc::kMax:
      if (!v0.is_null() && (!s->has_value || v0.Compare(s->acc) > 0)) s->acc = v0;
      if (!v0.is_null()) s->has_value = true;
      return Status::OK();
  }
  return Status::Internal("bad agg");
}

void AggEmitFinal(const AggSpec& spec, const AggState& s, Row* out) {
  switch (spec.fn) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out->push_back(Datum(s.count));
      break;
    case AggFunc::kSum:
      out->push_back(AggSumDatum(s));
      break;
    case AggFunc::kAvg: {
      if (s.count == 0) {
        out->push_back(Datum::Null());
      } else {
        double total = s.sum_is_int ? static_cast<double>(s.isum) : s.sum;
        out->push_back(Datum(total / static_cast<double>(s.count)));
      }
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      out->push_back(s.has_value ? s.acc : Datum::Null());
      break;
  }
}

void AppendGroupKeyPart(const Datum& d, std::string* key) {
  *key += d.is_null() ? std::string("\x01N") : d.ToString();
  *key += '\x02';
}

std::string GroupKeyString(const Row& row, const std::vector<int>& keys) {
  std::string s;
  for (int k : keys) AppendGroupKeyPart(row[static_cast<size_t>(k)], &s);
  return s;
}

}  // namespace gphtap
