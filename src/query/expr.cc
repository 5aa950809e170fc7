#include "query/expr.h"

namespace s2 {

namespace {

Value EvalArith(Expr::Arith op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_int() && b.is_int() && op != Expr::Arith::kDiv) {
    switch (op) {
      case Expr::Arith::kAdd:
        return Value(a.as_int() + b.as_int());
      case Expr::Arith::kSub:
        return Value(a.as_int() - b.as_int());
      case Expr::Arith::kMul:
        return Value(a.as_int() * b.as_int());
      default:
        break;
    }
  }
  double x = a.AsNumeric(), y = b.AsNumeric();
  switch (op) {
    case Expr::Arith::kAdd:
      return Value(x + y);
    case Expr::Arith::kSub:
      return Value(x - y);
    case Expr::Arith::kMul:
      return Value(x * y);
    case Expr::Arith::kDiv:
      return y == 0 ? Value::Null() : Value(x / y);
  }
  return Value::Null();
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative glob match with backtracking on the last %.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value Expr::Eval(std::span<const Value> row) const {
  switch (kind) {
    case Kind::kColumn:
      return row[column];
    case Kind::kConst:
      return constant;
    case Kind::kArith:
      return EvalArith(arith, args[0]->Eval(row), args[1]->Eval(row));
    case Kind::kCmp: {
      Value a = args[0]->Eval(row);
      Value b = args[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      int c = a.Compare(b);
      bool result = false;
      switch (cmp) {
        case Cmp::kEq:
          result = c == 0;
          break;
        case Cmp::kNe:
          result = c != 0;
          break;
        case Cmp::kLt:
          result = c < 0;
          break;
        case Cmp::kLe:
          result = c <= 0;
          break;
        case Cmp::kGt:
          result = c > 0;
          break;
        case Cmp::kGe:
          result = c >= 0;
          break;
      }
      return Value(int64_t{result ? 1 : 0});
    }
    case Kind::kAnd: {
      // Three-valued: FALSE wins over NULL, NULL over TRUE.
      Value a = args[0]->Eval(row);
      if (!a.is_null() && a.as_int() == 0) return Value(int64_t{0});
      Value b = args[1]->Eval(row);
      if (!b.is_null() && b.as_int() == 0) return Value(int64_t{0});
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value(int64_t{1});
    }
    case Kind::kOr: {
      // Three-valued: TRUE wins over NULL, NULL over FALSE.
      Value a = args[0]->Eval(row);
      if (!a.is_null() && a.as_int() != 0) return Value(int64_t{1});
      Value b = args[1]->Eval(row);
      if (!b.is_null() && b.as_int() != 0) return Value(int64_t{1});
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value(int64_t{0});
    }
    case Kind::kNot: {
      Value a = args[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      return Value(int64_t{a.as_int() == 0 ? 1 : 0});
    }
    case Kind::kLike: {
      Value a = args[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      return Value(int64_t{LikeMatch(a.as_string(), pattern) ? 1 : 0});
    }
    case Kind::kCase: {
      size_t i = 0;
      for (; i + 1 < args.size(); i += 2) {
        Value cond = args[i]->Eval(row);
        if (!cond.is_null() && cond.as_int() != 0) {
          return args[i + 1]->Eval(row);
        }
      }
      return i < args.size() ? args[i]->Eval(row) : Value::Null();
    }
    case Kind::kSubstr: {
      Value a = args[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      const std::string& s = a.as_string();
      size_t start = substr_start > 0 ? static_cast<size_t>(substr_start - 1)
                                      : 0;
      if (start >= s.size()) return Value(std::string());
      return Value(s.substr(start, static_cast<size_t>(substr_len)));
    }
    case Kind::kIsNull:
      return Value(int64_t{args[0]->Eval(row).is_null() ? 1 : 0});
  }
  return Value::Null();
}

ExprPtr Col(int index) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->column = index;
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kConst;
  e->constant = std::move(v);
  return e;
}

namespace {
ExprPtr MakeArith(Expr::Arith op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kArith;
  e->arith = op;
  e->args = {std::move(a), std::move(b)};
  return e;
}
}  // namespace

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return MakeArith(Expr::Arith::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return MakeArith(Expr::Arith::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return MakeArith(Expr::Arith::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return MakeArith(Expr::Arith::kDiv, std::move(a), std::move(b));
}

ExprPtr Cmp(Expr::Cmp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kCmp;
  e->cmp = op;
  e->args = {std::move(a), std::move(b)};
  return e;
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Cmp(Expr::Cmp::kGe, std::move(a), std::move(b));
}

ExprPtr And(ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kAnd;
  e->args = {std::move(a), std::move(b)};
  return e;
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kOr;
  e->args = {std::move(a), std::move(b)};
  return e;
}
ExprPtr Not(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kNot;
  e->args = {std::move(a)};
  return e;
}

ExprPtr Like(ExprPtr a, std::string pattern) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kLike;
  e->pattern = std::move(pattern);
  e->args = {std::move(a)};
  return e;
}

ExprPtr CaseWhen(std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kCase;
  e->args = std::move(args);
  return e;
}

ExprPtr Substr(ExprPtr a, int start, int len) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kSubstr;
  e->substr_start = start;
  e->substr_len = len;
  e->args = {std::move(a)};
  return e;
}

ExprPtr IsNull(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kIsNull;
  e->args = {std::move(a)};
  return e;
}

}  // namespace s2
