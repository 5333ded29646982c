// Single-threaded reference interpreter for bound SQL plans, the oracle of
// the differential tests. ReferenceEvaluate walks the PlanPtr of
// SqlEngine::Plan using only BoundExpr::Evaluate and Value: nested-loop
// joins (non-NULL keys equal under Value ordering, then the residual), a
// std::set DISTINCT, std::map aggregation, a stable sort, a LIMIT prefix.
// Workers, batches, hashing and the chosen join strategy play no part; a
// table UDF node is Unimplemented, never skipped.

#ifndef SQLINK_TESTS_SQL_REFERENCE_H_
#define SQLINK_TESTS_SQL_REFERENCE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status_macros.h"
#include "sql/plan.h"

namespace sqlink {

struct ReferenceResult {
  std::vector<Row> rows;
  /// Per output column: whether it holds a double derived from SUM/AVG.
  /// The reference sums rows in scan order, the engine per worker and then
  /// across workers, so such doubles may differ in the last bits.
  std::vector<bool> approx;
};

namespace reference_internal {

inline bool KeysMatch(const Row& left, const std::vector<int>& left_keys,
                      const Row& right, const std::vector<int>& right_keys) {
  for (size_t i = 0; i < left_keys.size(); ++i) {
    const Value& a = left[static_cast<size_t>(left_keys[i])];
    const Value& b = right[static_cast<size_t>(right_keys[i])];
    if (a.is_null() || b.is_null() || a < b || b < a) return false;
  }
  return true;
}

/// Running state of one aggregate over one group.
struct Aggregate {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  Value extreme;  ///< MIN/MAX so far.
};

inline Status Accumulate(const AggregateSpec& spec, const Row& row,
                         Aggregate* agg) {
  Value v = Value::Int64(1);  // COUNT(*) counts every row.
  if (spec.func != AggFunc::kCountStar) {
    ASSIGN_OR_RETURN(v, spec.argument->Evaluate(row));
  }
  if (v.is_null()) return Status::OK();  // Aggregates skip NULLs.
  ++agg->count;
  if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
    const bool better = spec.func == AggFunc::kMin ? v < agg->extreme
                                                   : agg->extreme < v;
    if (agg->count == 1 || better) agg->extreme = v;
  } else if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
    if (spec.output_type == DataType::kInt64 && v.is_int64()) {
      agg->int_sum += v.int64_value();
    } else {
      ASSIGN_OR_RETURN(double d, v.AsDouble());
      agg->double_sum += d;
    }
  }
  return Status::OK();
}

inline Value Finalize(const AggregateSpec& spec, const Aggregate& agg) {
  if (spec.func == AggFunc::kCountStar || spec.func == AggFunc::kCount) {
    return Value::Int64(agg.count);
  }
  if (agg.count == 0) return Value::Null();
  switch (spec.func) {
    case AggFunc::kMin:
    case AggFunc::kMax:
      return agg.extreme;
    case AggFunc::kAvg:
      return Value::Double(agg.double_sum / static_cast<double>(agg.count));
    default:
      return spec.output_type == DataType::kInt64
                 ? Value::Int64(agg.int_sum)
                 : Value::Double(agg.double_sum);
  }
}

}  // namespace reference_internal

/// Evaluates `plan` to its full result, in a deterministic row order.
inline Result<ReferenceResult> ReferenceEvaluate(const PlanPtr& plan) {
  using namespace reference_internal;
  std::vector<ReferenceResult> in;
  for (const PlanPtr& child : plan->children) {
    ASSIGN_OR_RETURN(ReferenceResult result, ReferenceEvaluate(child));
    in.push_back(std::move(result));
  }
  ReferenceResult out;
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized:
      for (size_t p = 0; p < plan->table->num_partitions(); ++p) {
        const std::vector<Row>& part = plan->table->partition(p);
        out.rows.insert(out.rows.end(), part.begin(), part.end());
      }
      out.approx.assign(
          static_cast<size_t>(plan->output_schema->num_fields()), false);
      return out;
    case PlanKind::kFilter:
      out.approx = in[0].approx;
      for (Row& row : in[0].rows) {
        ASSIGN_OR_RETURN(Value keep, plan->predicate->Evaluate(row));
        if (IsTruthy(keep)) out.rows.push_back(std::move(row));
      }
      return out;
    case PlanKind::kProject: {
      // A double computed from an approximate input is approximate too.
      const bool any_approx =
          std::find(in[0].approx.begin(), in[0].approx.end(), true) !=
          in[0].approx.end();
      for (const BoundExprPtr& expr : plan->projections) {
        out.approx.push_back(any_approx &&
                             expr->output_type() == DataType::kDouble);
      }
      for (const Row& row : in[0].rows) {
        Row projected;
        for (const BoundExprPtr& expr : plan->projections) {
          ASSIGN_OR_RETURN(Value v, expr->Evaluate(row));
          projected.push_back(std::move(v));
        }
        out.rows.push_back(std::move(projected));
      }
      return out;
    }
    case PlanKind::kHashJoin:
      out.approx = in[0].approx;
      out.approx.insert(out.approx.end(), in[1].approx.begin(),
                        in[1].approx.end());
      for (const Row& left : in[0].rows) {
        for (const Row& right : in[1].rows) {
          if (!KeysMatch(left, plan->left_keys, right, plan->right_keys)) {
            continue;
          }
          Row joined = left;
          joined.insert(joined.end(), right.begin(), right.end());
          if (plan->residual != nullptr) {
            ASSIGN_OR_RETURN(Value keep, plan->residual->Evaluate(joined));
            if (!IsTruthy(keep)) continue;
          }
          out.rows.push_back(std::move(joined));
        }
      }
      return out;
    case PlanKind::kDistinct: {
      const std::set<Row> unique(in[0].rows.begin(), in[0].rows.end());
      out.rows.assign(unique.begin(), unique.end());
      out.approx = in[0].approx;
      return out;
    }
    case PlanKind::kAggregate: {
      const size_t num_aggs = plan->aggregates.size();
      std::map<Row, std::vector<Aggregate>> groups;
      for (const Row& row : in[0].rows) {
        Row key;
        for (const BoundExprPtr& expr : plan->group_by) {
          ASSIGN_OR_RETURN(Value v, expr->Evaluate(row));
          key.push_back(std::move(v));
        }
        std::vector<Aggregate>& aggs =
            groups.try_emplace(std::move(key), num_aggs).first->second;
        for (size_t a = 0; a < num_aggs; ++a) {
          RETURN_IF_ERROR(Accumulate(plan->aggregates[a], row, &aggs[a]));
        }
      }
      // A global aggregate over no rows still yields one row.
      if (plan->group_by.empty() && groups.empty()) {
        groups.try_emplace(Row{}, num_aggs);
      }
      out.approx.assign(plan->group_by.size(), false);
      for (const AggregateSpec& spec : plan->aggregates) {
        out.approx.push_back(
            (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) &&
            spec.output_type == DataType::kDouble);
      }
      for (const auto& [key, aggs] : groups) {
        Row row = key;
        for (size_t a = 0; a < num_aggs; ++a) {
          row.push_back(Finalize(plan->aggregates[a], aggs[a]));
        }
        out.rows.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kSort: {
      auto less = [&plan](const Row& a, const Row& b) {
        for (size_t i = 0; i < plan->sort_keys.size(); ++i) {
          const auto k = static_cast<size_t>(plan->sort_keys[i]);
          if (a[k] < b[k]) return !plan->sort_descending[i];
          if (b[k] < a[k]) return static_cast<bool>(plan->sort_descending[i]);
        }
        return false;
      };
      out = std::move(in[0]);
      std::stable_sort(out.rows.begin(), out.rows.end(), less);
      return out;
    }
    case PlanKind::kLimit:
      out = std::move(in[0]);
      if (plan->limit >= 0 &&
          out.rows.size() > static_cast<size_t>(plan->limit)) {
        out.rows.resize(static_cast<size_t>(plan->limit));
      }
      return out;
    case PlanKind::kTableUdf:
      return Status::Unimplemented("no reference for UDF " + plan->udf_name);
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace sqlink

#endif  // SQLINK_TESTS_SQL_REFERENCE_H_
