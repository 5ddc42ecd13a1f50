"""Lexer, parser and static type checks for the rule language.

Grammar (one rule per stanza, whitespace-insensitive within a rule):

    rule      = "RULE" IDENT "FOR" action ":" polarity expr
                ["FEEDBACK" STRING] ["SUGGEST" STRING]
    polarity  = "FAIL" "IF" | "SUCCEED" "ONLY" "IF"
    expr      = and_expr ("OR" and_expr)*
    and_expr  = unary ("AND" unary)*
    unary     = "NOT" unary | "(" expr ")" | atom

See docs/dsl.md for the atom forms.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..core import ACTION_NAMES, ALL_ARG_NAMES
from .ast import (
    And,
    ArgCmp,
    ArgRef,
    COMPARATORS,
    Expr,
    HasToolAtLeast,
    InventoryAtLeast,
    KgSatisfied,
    Lit,
    Membership,
    Not,
    OBS_FIELDS,
    ObsCmp,
    Or,
    Polarity,
    RuleAst,
    SgContains,
    SgUnexplored,
    ValueExpr,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class RuleTypeError(ValueError):
    """An atom references a field path that does not exist in the schemas."""


# Bounds the AST's depth, so that parsing and hashing a rule never meet
# Python's recursion limit; the shipped rules nest at most 4 deep.
MAX_NESTING = 32

# One alternative per token kind, tried in order at each position.  Every
# word is an IDENT; the parser matches a keyword by its text.
_TOKEN = re.compile(r"""
    (?P<NEWLINE> \n )
  | (?P<SPACE> [ \t\r]+ )
  | (?P<STRING> " (?: \\[\s\S] | [^"\\\n] )* " )  # a backslash escapes any character
  | (?P<PUNCT> [=!<>]= | [<>()\[\]:,.] )
  | (?P<INT> -?\d+ )  # decimal digits only: "²" is a digit to isdigit(), not to int()
  | (?P<IDENT> \w+ )  # a word starts with a letter or "_", checked in _tokenize
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | STRING | INT | punctuation literal | EOF
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        kind = match and match.lastgroup
        if kind is None or kind == "IDENT" and not (source[pos].isalpha() or source[pos] == "_"):
            if source[pos] == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = match.group()
        if kind == "NEWLINE":
            line, col = line + 1, 0  # the column step below lands on 1
        elif kind == "STRING":
            tokens.append(Token(kind, _ESCAPE.sub(r"\1", text[1:-1]), line, col))
        elif kind != "SPACE":
            tokens.append(Token(text if kind == "PUNCT" else kind, text, line, col))
        col, pos = col + len(text), match.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # NOTs and open parentheses around the current atom

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        """The current token; the position then moves on, but never past EOF."""
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col, expected)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "STRING":
            raise self.error(f"got {tok.text or 'end of input'!r}", (text,))
        return self.advance()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind != "STRING" and tok.text == text

    def name(self) -> Token:
        """The next token as an action, field or argument name: never quoted."""
        if self.peek().kind == "STRING":
            raise self.error("a name is written without quotes", ("IDENT",))
        return self.advance()

    # -- rule ----------------------------------------------------------
    def rule(self) -> RuleAst:
        self.expect("RULE")
        name = self.advance()
        if name.kind != "IDENT":
            raise ParseError("rule id must be an identifier", name.line, name.col, ("IDENT",))
        self.expect("FOR")
        guard = self.name()
        if guard.text not in ACTION_NAMES:
            raise RuleTypeError(f"unknown action {guard.text!r} in rule guard")
        self.expect(":")
        if self.at("FAIL"):
            self.advance()
            self.expect("IF")
            polarity = Polarity.FAIL_IF
        elif self.at("SUCCEED"):
            self.advance()
            self.expect("ONLY")
            self.expect("IF")
            polarity = Polarity.SUCCEED_ONLY_IF
        else:
            raise self.error("expected polarity", ("FAIL IF", "SUCCEED ONLY IF"))
        condition = self.expr()
        feedback = suggestion = ""
        if self.at("FEEDBACK"):
            self.advance()
            feedback = self.string()
        if self.at("SUGGEST"):
            self.advance()
            suggestion = self.string()
        return RuleAst(name.text, guard.text, polarity, condition, feedback, suggestion)

    def string(self) -> str:
        tok = self.peek()
        if tok.kind != "STRING":
            raise self.error("expected a quoted string", ("STRING",))
        return self.advance().text

    # -- expressions ----------------------------------------------------
    def expr(self) -> Expr:
        parts = [self.and_expr()]
        while self.at("OR"):
            self.advance()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self) -> Expr:
        parts = [self.unary()]
        while self.at("AND"):
            self.advance()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Expr:
        if not (self.at("NOT") or self.at("(")):
            return self.atom()
        if self.depth == MAX_NESTING:
            raise self.error(f"more than {MAX_NESTING} NOTs and parentheses around one atom")
        self.depth += 1
        if self.advance().text == "NOT":
            inner = Not(self.unary())
        else:
            inner = self.expr()
            self.expect(")")
        self.depth -= 1
        return inner

    # -- atoms ----------------------------------------------------------
    def atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "obs":
            return self.obs_cmp()
        if tok.text == "action":
            return self.arg_atom()
        if tok.text == "inventory":
            return self.inventory_atom()
        if tok.text == "has_tool_at_least":
            self.advance()
            self.expect("(")
            tier = self.string()
            self.expect(")")
            return HasToolAtLeast(tier)
        if tok.text == "kg_requires":
            self.advance()
            self.expect("(")
            product = self.value_expr()
            self.expect(")")
            self.expect("satisfied_by")
            self.expect("inventory")
            return KgSatisfied(product)
        if tok.text == "sg_contains":
            self.advance()
            self.expect("(")
            location = self.string()
            self.expect(",")
            item = self.string()
            self.expect(")")
            return SgContains(location, item)
        if tok.text == "sg_unexplored":
            self.advance()
            self.expect("(")
            location = self.string()
            self.expect(")")
            return SgUnexplored(location)
        if tok.kind == "STRING":
            value = self.value_expr()
            self.expect("in")
            return self.membership(value)
        raise self.error(
            f"got {tok.text or 'end of input'!r}",
            ("obs.<field>", "action.args[...]", "inventory[...]", '"<name>" in ...',
             "has_tool_at_least", "kg_requires", "sg_contains", "sg_unexplored"),
        )

    def membership(self, value: ValueExpr) -> Membership:
        tok = self.peek()
        if tok.text not in ("near_objects", "visible_objects"):
            raise self.error("membership target", ("near_objects", "visible_objects"))
        self.advance()
        return Membership(value, tok.text)

    def value_expr(self) -> ValueExpr:
        tok = self.peek()
        if tok.kind == "STRING":
            return Lit(self.advance().text)
        if tok.text == "action":
            self.advance()
            self.expect(".")
            self.expect("args")
            self.expect("[")
            key = self.name()
            self.expect("]")
            self._check_arg(key)
            return ArgRef(key.text)
        raise self.error("expected a string or action.args[...]", ("STRING", "action.args"))

    def _check_arg(self, key: Token) -> None:
        if key.text not in ALL_ARG_NAMES:
            raise RuleTypeError(f"unknown action argument {key.text!r}")

    def comparator(self) -> str:
        tok = self.peek()
        if tok.text not in COMPARATORS:
            raise self.error("expected a comparator", COMPARATORS)
        return self.advance().text

    def literal(self) -> str | int:
        tok = self.peek()
        if tok.kind == "STRING":
            return self.advance().text
        if tok.kind == "INT":
            return self.integer()
        raise self.error("expected a literal", ("STRING", "INT"))

    def integer(self) -> int:
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal too long", tok.line, tok.col) from None

    def obs_cmp(self) -> ObsCmp:
        self.advance()  # obs
        self.expect(".")
        path = [self.name().text]
        while self.at("."):
            self.advance()
            path.append(self.name().text)
        key = tuple(path)
        if key not in OBS_FIELDS:
            raise RuleTypeError(f"unknown observation field obs.{'.'.join(path)}")
        op = self.comparator()
        literal = self.literal()
        self._check_types(OBS_FIELDS[key], op, literal, f"obs.{'.'.join(path)}")
        return ObsCmp(key, op, literal)

    def arg_atom(self) -> Expr:
        value = self.value_expr()  # consumes action.args[key]
        assert isinstance(value, ArgRef)
        if self.at("in"):
            self.advance()
            return self.membership(value)
        op = self.comparator()
        literal = self.literal()
        self._check_types(ALL_ARG_NAMES[value.key], op, literal, f"action.args[{value.key}]")
        return ArgCmp(value.key, op, literal)

    def inventory_atom(self) -> InventoryAtLeast:
        self.advance()  # inventory
        self.expect("[")
        item = self.value_expr()
        self.expect("]")
        self.expect(">=")
        tok = self.peek()
        if tok.kind != "INT":
            raise self.error("inventory comparisons take an integer", ("INT",))
        count = self.integer()
        if count < 0:
            raise RuleTypeError("inventory count must be non-negative")
        return InventoryAtLeast(item, count)

    @staticmethod
    def _check_types(field_type: type, op: str, literal: str | int, where: str) -> None:
        if isinstance(literal, str) and field_type is not str:
            raise RuleTypeError(f"{where} is numeric, compared against a string")
        if isinstance(literal, int) and field_type is not int:
            raise RuleTypeError(f"{where} is a string, compared against a number")
        if isinstance(literal, str) and op not in ("==", "!="):
            raise RuleTypeError(f"{where}: strings only support == and !=")


def parse(text: str) -> RuleAst:
    """Parse a single rule stanza into its AST."""
    parser = _Parser(_tokenize(text))
    rule = parser.rule()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col, ("EOF",))
    return rule


def parse_many(text: str) -> list[RuleAst]:
    """Parse a rule file: one rule per stanza, stanzas separated by blank
    lines, ``#`` comment lines ignored."""
    rules = []
    for stanza in text.split("\n\n"):
        lines = [ln for ln in stanza.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        if lines:
            rules.append(parse("\n".join(lines)))
    return rules
