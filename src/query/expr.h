#ifndef S2_QUERY_EXPR_H_
#define S2_QUERY_EXPR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace s2 {

/// Scalar expression evaluated row-at-a-time over one row of an operator's
/// output: a span of a RowBatch row (query/plan.h) or a whole `Row`. Scans
/// and filters below the operators are vectorized over columns; expressions
/// above them are row-oriented.
class Expr {
 public:
  enum class Kind {
    kColumn,   // input column by index
    kConst,    // literal
    kArith,    // + - * /
    kCmp,      // = != < <= > >=
    kAnd,
    kOr,
    kNot,
    kLike,     // SQL LIKE with % and _
    kCase,     // CASE WHEN cond THEN v ... ELSE e END
    kSubstr,   // substring(expr, start(1-based), len)
    kIsNull,
  };

  enum class Arith { kAdd, kSub, kMul, kDiv };
  enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

  Value Eval(std::span<const Value> row) const;

  Kind kind = Kind::kConst;
  int column = 0;
  Value constant;
  Arith arith = Arith::kAdd;
  Cmp cmp = Cmp::kEq;
  std::string pattern;            // kLike
  int substr_start = 1;           // kSubstr (1-based)
  int substr_len = 0;
  std::vector<std::shared_ptr<Expr>> args;  // operands / WHEN-THEN pairs+ELSE
};

using ExprPtr = std::shared_ptr<Expr>;

ExprPtr Col(int index);
ExprPtr Lit(Value v);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Cmp(Expr::Cmp op, ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr Like(ExprPtr a, std::string pattern);
/// args: cond1, val1, cond2, val2, ..., else_val
ExprPtr CaseWhen(std::vector<ExprPtr> args);
ExprPtr Substr(ExprPtr a, int start, int len);
ExprPtr IsNull(ExprPtr a);

/// SQL LIKE match with % (any run) and _ (any single char).
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace s2

#endif  // S2_QUERY_EXPR_H_
