#include "sparql/parser.h"

#include <charconv>

#include "common/string_util.h"
#include "rdf/vocab.h"
#include "sparql/lexer.h"

namespace hbold::sparql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectQuery> Run() {
    SelectQuery q;
    // Prologue: PREFIX declarations.
    while (IsKeyword("PREFIX")) {
      ++pos_;
      if (Cur().kind != TokenKind::kPname) return Err("expected prefix name");
      std::string pname = Cur().text;
      size_t colon = pname.find(':');
      std::string label = pname.substr(0, colon);
      ++pos_;
      if (Cur().kind != TokenKind::kIri) return Err("expected IRI after prefix");
      q.prefixes[label] = Cur().text;
      ++pos_;
    }
    if (IsKeyword("ASK")) {
      ++pos_;
      q.form = QueryForm::kAsk;
      HBOLD_ASSIGN_OR_RETURN(GroupGraphPattern where, ParseGroup(q.prefixes));
      q.where = std::move(where);
      if (Cur().kind != TokenKind::kEnd) {
        return Err("unexpected tokens after ASK pattern");
      }
      return q;
    }
    if (!IsKeyword("SELECT")) return Err("expected SELECT or ASK");
    ++pos_;
    if (IsKeyword("DISTINCT")) {
      q.distinct = true;
      ++pos_;
    }
    // Projection.
    if (Cur().kind == TokenKind::kStar) {
      q.select_all = true;
      ++pos_;
    } else {
      while (true) {
        if (Cur().kind == TokenKind::kVar) {
          q.vars.push_back(Cur().text);
          ++pos_;
        } else if (Cur().kind == TokenKind::kLParen) {
          HBOLD_ASSIGN_OR_RETURN(Aggregate agg, ParseAggregate());
          q.aggregates.push_back(std::move(agg));
        } else {
          break;
        }
      }
      if (q.vars.empty() && q.aggregates.empty()) {
        return Err("empty SELECT projection");
      }
    }
    if (IsKeyword("WHERE")) ++pos_;
    HBOLD_ASSIGN_OR_RETURN(GroupGraphPattern where, ParseGroup(q.prefixes));
    q.where = std::move(where);

    // Solution modifiers.
    while (true) {
      if (IsKeyword("GROUP")) {
        ++pos_;
        if (!IsKeyword("BY")) return Err("expected BY after GROUP");
        ++pos_;
        while (Cur().kind == TokenKind::kVar) {
          q.group_by.push_back(Cur().text);
          ++pos_;
        }
        if (q.group_by.empty()) return Err("empty GROUP BY");
        continue;
      }
      if (IsKeyword("ORDER")) {
        ++pos_;
        if (!IsKeyword("BY")) return Err("expected BY after ORDER");
        ++pos_;
        while (true) {
          bool asc = true;
          if (IsKeyword("ASC") || IsKeyword("DESC")) {
            asc = IsKeyword("ASC");
            ++pos_;
            if (Cur().kind != TokenKind::kLParen) return Err("expected (");
            ++pos_;
            if (Cur().kind != TokenKind::kVar) return Err("expected variable");
            q.order_by.emplace_back(Cur().text, asc);
            ++pos_;
            if (Cur().kind != TokenKind::kRParen) return Err("expected )");
            ++pos_;
          } else if (Cur().kind == TokenKind::kVar) {
            q.order_by.emplace_back(Cur().text, true);
            ++pos_;
          } else {
            break;
          }
        }
        if (q.order_by.empty()) return Err("empty ORDER BY");
        continue;
      }
      if (IsKeyword("LIMIT") || IsKeyword("OFFSET")) {
        std::optional<size_t>& slot = IsKeyword("LIMIT") ? q.limit : q.offset;
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(slot, ParseCount());
        continue;
      }
      break;
    }
    if (Cur().kind != TokenKind::kEnd) return Err("unexpected trailing tokens");
    return q;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }

  bool IsKeyword(std::string_view kw) const {
    return Cur().kind == TokenKind::kKeyword && Cur().text == kw;
  }

  /// A LIMIT/OFFSET operand: an unsigned integer that fits size_t. Signed,
  /// fractional and overflowing numbers are parse errors.
  Result<size_t> ParseCount() {
    if (Cur().kind != TokenKind::kNumber) return ErrSt("expected number");
    const std::string& text = Cur().text;
    const char* end = text.data() + text.size();
    size_t value = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      return ErrSt("number out of range '" + text + "'");
    }
    if (ec != std::errc() || ptr != end) {
      return ErrSt("expected non-negative integer, got '" + text + "'");
    }
    ++pos_;
    return value;
  }

  template <typename T = SelectQuery>
  Result<T> Err(std::string msg) const {
    return Status::ParseError("sparql parse: " + std::move(msg) +
                              " at offset " + std::to_string(Cur().offset));
  }
  Status ErrSt(std::string msg) const {
    return Status::ParseError("sparql parse: " + std::move(msg) +
                              " at offset " + std::to_string(Cur().offset));
  }

  Result<Aggregate> ParseAggregate() {
    // '(' COUNT '(' [DISTINCT] (*|?var) ')' AS ?name ')'
    ++pos_;  // '('
    if (!IsKeyword("COUNT")) {
      return Status::ParseError("only COUNT aggregates are supported");
    }
    ++pos_;
    if (Cur().kind != TokenKind::kLParen) {
      return Status::ParseError("expected ( after COUNT");
    }
    ++pos_;
    Aggregate agg;
    if (IsKeyword("DISTINCT")) {
      agg.distinct = true;
      ++pos_;
    }
    if (Cur().kind == TokenKind::kStar) {
      ++pos_;
    } else if (Cur().kind == TokenKind::kVar) {
      agg.var = Cur().text;
      ++pos_;
    } else {
      return Status::ParseError("expected * or variable in COUNT");
    }
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected ) in COUNT");
    }
    ++pos_;
    if (!IsKeyword("AS")) return Status::ParseError("expected AS");
    ++pos_;
    if (Cur().kind != TokenKind::kVar) {
      return Status::ParseError("expected variable after AS");
    }
    agg.as = Cur().text;
    ++pos_;
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected closing ) of aggregate");
    }
    ++pos_;
    return agg;
  }

  Result<GroupGraphPattern> ParseGroup(
      const std::map<std::string, std::string>& prefixes) {
    if (Cur().kind != TokenKind::kLBrace) {
      return Status::ParseError("expected {");
    }
    ++pos_;
    GroupGraphPattern group;
    while (true) {
      if (Cur().kind == TokenKind::kRBrace) {
        ++pos_;
        break;
      }
      if (Cur().kind == TokenKind::kEnd) {
        return Status::ParseError("unterminated group pattern");
      }
      if (IsKeyword("FILTER")) {
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(auto expr, ParseBracketedExpr(prefixes));
        group.filters.push_back(std::move(expr));
        if (Cur().kind == TokenKind::kDot) ++pos_;
        continue;
      }
      if (IsKeyword("OPTIONAL")) {
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(GroupGraphPattern opt, ParseGroup(prefixes));
        group.optionals.push_back(
            std::make_unique<GroupGraphPattern>(std::move(opt)));
        if (Cur().kind == TokenKind::kDot) ++pos_;
        continue;
      }
      if (Cur().kind == TokenKind::kLBrace) {
        // '{ A } UNION { B }'
        HBOLD_ASSIGN_OR_RETURN(GroupGraphPattern left, ParseGroup(prefixes));
        if (!IsKeyword("UNION")) {
          return Status::ParseError("expected UNION after nested group");
        }
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(GroupGraphPattern right, ParseGroup(prefixes));
        UnionPattern u;
        u.left = std::make_unique<GroupGraphPattern>(std::move(left));
        u.right = std::make_unique<GroupGraphPattern>(std::move(right));
        group.unions.push_back(std::move(u));
        if (Cur().kind == TokenKind::kDot) ++pos_;
        continue;
      }
      // Triples block: subject (predicate object (',' object)*) (';' ...)* '.'
      HBOLD_RETURN_NOT_OK(ParseTriples(&group, prefixes));
    }
    return group;
  }

  Status ParseTriples(GroupGraphPattern* group,
                      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(TermOrVar subject, ParseTermOrVar(prefixes, false));
    while (true) {
      TermOrVar predicate;
      if (Cur().kind == TokenKind::kA) {
        predicate = TermOrVar::Const(rdf::Term::Iri(rdf::vocab::kRdfType));
        ++pos_;
      } else {
        HBOLD_ASSIGN_OR_RETURN(predicate, ParseTermOrVar(prefixes, false));
      }
      while (true) {
        HBOLD_ASSIGN_OR_RETURN(TermOrVar object, ParseTermOrVar(prefixes, true));
        group->triples.push_back({subject, predicate, object});
        if (Cur().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
      if (Cur().kind == TokenKind::kSemicolon) {
        ++pos_;
        // Allow trailing ';' before '.' or '}'.
        if (Cur().kind == TokenKind::kDot ||
            Cur().kind == TokenKind::kRBrace) {
          break;
        }
        continue;
      }
      break;
    }
    if (Cur().kind == TokenKind::kDot) ++pos_;
    return Status::OK();
  }

  Result<TermOrVar> ParseTermOrVar(
      const std::map<std::string, std::string>& prefixes, bool allow_literal) {
    const Token& t = Cur();
    switch (t.kind) {
      case TokenKind::kVar:
        ++pos_;
        return TermOrVar::Var(t.text);
      case TokenKind::kIri:
        ++pos_;
        return TermOrVar::Const(rdf::Term::Iri(t.text));
      case TokenKind::kPname: {
        HBOLD_ASSIGN_OR_RETURN(rdf::Term term, ExpandPname(t.text, prefixes));
        ++pos_;
        return TermOrVar::Const(std::move(term));
      }
      case TokenKind::kString: {
        if (!allow_literal) {
          return Status::ParseError("literal not allowed here");
        }
        std::string value = t.text;
        ++pos_;
        // Optional @lang / ^^dt.
        if (Cur().kind == TokenKind::kAt) {
          std::string lang = Cur().text;
          ++pos_;
          return TermOrVar::Const(rdf::Term::Literal(
              std::move(value), rdf::vocab::kRdfLangString, lang));
        }
        if (Cur().kind == TokenKind::kDtCaret) {
          ++pos_;
          if (Cur().kind == TokenKind::kIri) {
            std::string dt = Cur().text;
            ++pos_;
            return TermOrVar::Const(rdf::Term::Literal(std::move(value), dt));
          }
          if (Cur().kind == TokenKind::kPname) {
            HBOLD_ASSIGN_OR_RETURN(rdf::Term dt,
                                   ExpandPname(Cur().text, prefixes));
            ++pos_;
            return TermOrVar::Const(
                rdf::Term::Literal(std::move(value), dt.lexical()));
          }
          return Status::ParseError("expected datatype after ^^");
        }
        return TermOrVar::Const(rdf::Term::Literal(std::move(value)));
      }
      case TokenKind::kNumber: {
        if (!allow_literal) {
          return Status::ParseError("literal not allowed here");
        }
        std::string lex = t.text;
        ++pos_;
        bool is_int = lex.find('.') == std::string::npos &&
                      lex.find('e') == std::string::npos &&
                      lex.find('E') == std::string::npos;
        return TermOrVar::Const(rdf::Term::Literal(
            lex, is_int ? rdf::vocab::kXsdInteger : rdf::vocab::kXsdDouble));
      }
      case TokenKind::kKeyword:
        if (t.text == "TRUE" || t.text == "FALSE") {
          ++pos_;
          return TermOrVar::Const(rdf::Term::BoolLiteral(t.text == "TRUE"));
        }
        return Status::ParseError("unexpected keyword '" + t.text + "'");
      default:
        return Status::ParseError("expected term at offset " +
                                  std::to_string(t.offset));
    }
  }

  static Result<rdf::Term> ExpandPname(
      const std::string& pname,
      const std::map<std::string, std::string>& prefixes) {
    size_t colon = pname.find(':');
    std::string label = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    auto it = prefixes.find(label);
    if (it == prefixes.end()) {
      return Status::ParseError("unknown prefix '" + label + "'");
    }
    return rdf::Term::Iri(it->second + local);
  }

  // --- FILTER expression parsing (precedence: || < && < cmp < unary) ---

  Result<std::unique_ptr<Expr>> ParseBracketedExpr(
      const std::map<std::string, std::string>& prefixes) {
    if (Cur().kind != TokenKind::kLParen) {
      // Allow bare function call filters: FILTER REGEX(...), FILTER BOUND(?x)
      return ParseOr(prefixes);
    }
    ++pos_;
    HBOLD_ASSIGN_OR_RETURN(auto expr, ParseOr(prefixes));
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected ) closing FILTER");
    }
    ++pos_;
    return expr;
  }

  Result<std::unique_ptr<Expr>> ParseOr(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseAnd(prefixes));
    while (Cur().kind == TokenKind::kOr) {
      ++pos_;
      HBOLD_ASSIGN_OR_RETURN(auto right, ParseAnd(prefixes));
      left = Expr::Binary(Expr::Kind::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAnd(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseCmp(prefixes));
    while (Cur().kind == TokenKind::kAnd) {
      ++pos_;
      HBOLD_ASSIGN_OR_RETURN(auto right, ParseCmp(prefixes));
      left = Expr::Binary(Expr::Kind::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseCmp(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseUnary(prefixes));
    Expr::CmpOp op;
    switch (Cur().kind) {
      case TokenKind::kEq:
        op = Expr::CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = Expr::CmpOp::kNe;
        break;
      case TokenKind::kLt:
        op = Expr::CmpOp::kLt;
        break;
      case TokenKind::kGt:
        op = Expr::CmpOp::kGt;
        break;
      case TokenKind::kLe:
        op = Expr::CmpOp::kLe;
        break;
      case TokenKind::kGe:
        op = Expr::CmpOp::kGe;
        break;
      default:
        return left;
    }
    ++pos_;
    HBOLD_ASSIGN_OR_RETURN(auto right, ParseUnary(prefixes));
    return Expr::Compare(op, std::move(left), std::move(right));
  }

  Result<std::unique_ptr<Expr>> ParseUnary(
      const std::map<std::string, std::string>& prefixes) {
    if (Cur().kind == TokenKind::kBang) {
      ++pos_;
      HBOLD_ASSIGN_OR_RETURN(auto inner, ParseUnary(prefixes));
      return Expr::Unary(Expr::Kind::kNot, std::move(inner));
    }
    if (Cur().kind == TokenKind::kLParen) {
      ++pos_;
      HBOLD_ASSIGN_OR_RETURN(auto inner, ParseOr(prefixes));
      if (Cur().kind != TokenKind::kRParen) {
        return Status::ParseError("expected )");
      }
      ++pos_;
      return inner;
    }
    if (Cur().kind == TokenKind::kKeyword) {
      std::string kw = Cur().text;
      if (kw == "REGEX" || kw == "CONTAINS") {
        ++pos_;
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after " + kw);
        }
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(auto a, ParseOr(prefixes));
        if (Cur().kind != TokenKind::kComma) {
          return Status::ParseError("expected , in " + kw);
        }
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(auto b, ParseOr(prefixes));
        // Optional flags argument for REGEX (ignored beyond 'i').
        std::unique_ptr<Expr> expr;
        if (kw == "REGEX" && Cur().kind == TokenKind::kComma) {
          ++pos_;
          HBOLD_ASSIGN_OR_RETURN(auto flags, ParseOr(prefixes));
          expr = Expr::Binary(Expr::Kind::kRegex, std::move(a), std::move(b));
          expr->args.push_back(std::move(flags));
        } else {
          expr = Expr::Binary(
              kw == "REGEX" ? Expr::Kind::kRegex : Expr::Kind::kContains,
              std::move(a), std::move(b));
        }
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing " + kw);
        }
        ++pos_;
        return expr;
      }
      if (kw == "STR" || kw == "LCASE" || kw == "ISIRI" || kw == "ISLITERAL") {
        ++pos_;
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after " + kw);
        }
        ++pos_;
        HBOLD_ASSIGN_OR_RETURN(auto a, ParseOr(prefixes));
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing " + kw);
        }
        ++pos_;
        Expr::Kind kind = Expr::Kind::kStr;
        if (kw == "LCASE") kind = Expr::Kind::kLcase;
        if (kw == "ISIRI") kind = Expr::Kind::kIsIri;
        if (kw == "ISLITERAL") kind = Expr::Kind::kIsLiteral;
        return Expr::Unary(kind, std::move(a));
      }
      if (kw == "BOUND") {
        ++pos_;
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after BOUND");
        }
        ++pos_;
        if (Cur().kind != TokenKind::kVar) {
          return Status::ParseError("expected variable in BOUND");
        }
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kBound;
        e->var = Cur().text;
        ++pos_;
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing BOUND");
        }
        ++pos_;
        return e;
      }
      if (kw == "TRUE" || kw == "FALSE") {
        ++pos_;
        return Expr::Literal(rdf::Term::BoolLiteral(kw == "TRUE"));
      }
      return Status::ParseError("unexpected keyword in expression: " + kw);
    }
    // Primary: var / literal / IRI.
    HBOLD_ASSIGN_OR_RETURN(TermOrVar tv, ParseTermOrVar(prefixes, true));
    if (tv.is_var) return Expr::Var(tv.var);
    return Expr::Literal(tv.term);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectQuery> ParseQuery(std::string_view text) {
  HBOLD_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser p(std::move(tokens));
  return p.Run();
}

}  // namespace hbold::sparql
