// The analyzer's bound representation of a SELECT, consumed by the planner.
// Expressions reference the "combined layout": the columns of every FROM table
// concatenated in FROM order. A FROM-less SELECT has one FROM item, a function
// scan of zero series; top-level generate_series() items are the columns of
// one more function scan, appended to FROM.
#ifndef GPHTAP_PLAN_SELECT_QUERY_H_
#define GPHTAP_PLAN_SELECT_QUERY_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "plan/plan.h"

namespace gphtap {

struct SelectItem {
  bool is_agg = false;
  ExprPtr expr;     // when !is_agg
  AggSpec agg;      // when is_agg
  std::string name; // output column label
};

struct OrderItem {
  int select_index = 0;  // references the select list
  bool ascending = true;
};

struct SelectQuery {
  std::vector<TableDef> tables;   // FROM items in order
  /// One entry per function scan in `tables` (TableDef::is_function_scan), in
  /// FROM order: the start and end of every generate_series() it zips, flat.
  std::vector<std::vector<ExprPtr>> series_bounds;
  std::vector<ExprPtr> quals;     // conjunctive WHERE/ON predicates
  std::vector<SelectItem> items;  // first `visible_items` are user-visible;
                                  // the rest are hidden (HAVING-only aggregates)
  int visible_items = -1;         // -1 = all items visible
  std::vector<int> group_by;      // combined-layout column indexes
  /// Bound over the ITEM layout (column i = items[i]'s output).
  ExprPtr having;
  bool distinct = false;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;

  int NumVisible() const {
    return visible_items < 0 ? static_cast<int>(items.size()) : visible_items;
  }

  bool HasAggregates() const {
    if (!group_by.empty()) return true;
    for (const auto& item : items) {
      if (item.is_agg) return true;
    }
    return false;
  }
};

}  // namespace gphtap

#endif  // GPHTAP_PLAN_SELECT_QUERY_H_
