"""AST for the symbolic rule language.

A rule guards one action name, tests a boolean condition over the current
observation, the action arguments and the graph stores, and renders
feedback/suggestion strings from templates when it signals failure.  The
node set below is closed: no user functions, loops or arithmetic.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core import Memoised

COMPARATORS = ("==", "!=", "<", "<=", ">", ">=")

# Observation field paths the DSL may reference, with their value type.
OBS_FIELDS: dict[tuple[str, ...], type] = {
    ("position",): str,
    ("in_front",): str,
    ("status", "health"): int,
    ("status", "food"): int,
    ("status", "drink"): int,
    ("status", "energy"): int,
}


class Polarity(enum.Enum):
    FAIL_IF = "fail_if"
    SUCCEED_ONLY_IF = "succeed_only_if"


@dataclass(frozen=True)
class Lit:
    """A quoted string operand."""

    value: str


@dataclass(frozen=True)
class ArgRef:
    """An ``action.args[key]`` operand resolved at evaluation time."""

    key: str


ValueExpr = Lit | ArgRef


@dataclass(frozen=True)
class ObsCmp:
    path: tuple[str, ...]
    op: str
    literal: str | int


@dataclass(frozen=True)
class ArgCmp:
    key: str
    op: str
    literal: str | int


@dataclass(frozen=True)
class Membership:
    value: ValueExpr
    collection: str  # "near_objects" | "visible_objects"


@dataclass(frozen=True)
class InventoryAtLeast:
    item: ValueExpr
    count: int


@dataclass(frozen=True)
class HasToolAtLeast:
    tier: str


@dataclass(frozen=True)
class KgSatisfied:
    """True when the knowledge graph's requirements for a product are met by
    the inventory (and its platform, if any, is near)."""

    product: ValueExpr


@dataclass(frozen=True)
class SgContains:
    location: str
    item: str


@dataclass(frozen=True)
class SgUnexplored:
    location: str


@dataclass(frozen=True)
class Not:
    expr: "Expr"


@dataclass(frozen=True)
class And:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Expr", ...]


Atom = (
    ObsCmp
    | ArgCmp
    | Membership
    | InventoryAtLeast
    | HasToolAtLeast
    | KgSatisfied
    | SgContains
    | SgUnexplored
)
Expr = Atom | Not | And | Or


@dataclass(frozen=True)
class RuleAst(Memoised):
    id: str
    action_guard: str
    polarity: Polarity
    condition: Expr
    feedback_template: str = ""
    suggestion_template: str = ""
    _hash = None  # memo of __hash__()
    _anonymous = None  # memo of anonymous()

    def __hash__(self) -> int:
        """The dataclass hash of the field tuple, computed once per instance."""
        cached = self._hash
        if cached is None:
            cached = hash((self.id, self.action_guard, self.polarity, self.condition,
                           self.feedback_template, self.suggestion_template))
            object.__setattr__(self, "_hash", cached)
        return cached

    def anonymous(self) -> "RuleAst":
        """This rule with an empty id, built once per instance."""
        twin = self._anonymous
        if twin is None:
            twin = RuleAst("", self.action_guard, self.polarity, self.condition,
                           self.feedback_template, self.suggestion_template)
            object.__setattr__(self, "_anonymous", twin)
        return twin


_GRAPH_ATOMS = (KgSatisfied, SgContains, SgUnexplored)


def _reads_graphs(expr: Expr) -> bool:
    if isinstance(expr, (And, Or)):
        return any(_reads_graphs(p) for p in expr.parts)
    if isinstance(expr, Not):
        return _reads_graphs(expr.expr)
    return isinstance(expr, _GRAPH_ATOMS)


def uses_graphs(rule: RuleAst) -> bool:
    """True when the rule's condition reads the knowledge or scene graph
    (``kg_requires``, ``sg_contains`` or ``sg_unexplored``), so its verdicts
    can change when a graph changes while the transition stays the same."""
    return _reads_graphs(rule.condition)


def _quote(text: str) -> str:
    """A string literal that lexes back to `text`: the lexer reads any
    escaped character as itself, so a newline is written escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n") + '"'


def _print_value(value: ValueExpr) -> str:
    if isinstance(value, Lit):
        return _quote(value.value)
    return f"action.args[{value.key}]"


def _print_literal(literal: str | int) -> str:
    return _quote(literal) if isinstance(literal, str) else str(literal)


# Precedence: OR binds loosest, then AND, then NOT; atoms bind tightest.
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 0, 1, 2, 3


def _print_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Or):
        text = " OR ".join(_print_expr(p, _PREC_OR + 1) for p in expr.parts)
        prec = _PREC_OR
    elif isinstance(expr, And):
        text = " AND ".join(_print_expr(p, _PREC_AND + 1) for p in expr.parts)
        prec = _PREC_AND
    elif isinstance(expr, Not):
        text = f"NOT {_print_expr(expr.expr, _PREC_NOT + 1)}"
        prec = _PREC_NOT
    else:
        return _print_atom(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _print_atom(atom: Atom) -> str:
    if isinstance(atom, ObsCmp):
        return f"obs.{'.'.join(atom.path)} {atom.op} {_print_literal(atom.literal)}"
    if isinstance(atom, ArgCmp):
        return f"action.args[{atom.key}] {atom.op} {_print_literal(atom.literal)}"
    if isinstance(atom, Membership):
        return f"{_print_value(atom.value)} in {atom.collection}"
    if isinstance(atom, InventoryAtLeast):
        return f"inventory[{_print_value(atom.item)}] >= {atom.count}"
    if isinstance(atom, HasToolAtLeast):
        return f"has_tool_at_least({_quote(atom.tier)})"
    if isinstance(atom, KgSatisfied):
        return f"kg_requires({_print_value(atom.product)}) satisfied_by inventory"
    if isinstance(atom, SgContains):
        return f"sg_contains({_quote(atom.location)}, {_quote(atom.item)})"
    if isinstance(atom, SgUnexplored):
        return f"sg_unexplored({_quote(atom.location)})"
    raise TypeError(f"not an atom: {atom!r}")


def pretty_print(rule: RuleAst) -> str:
    """Render a rule in canonical form, on one line unless a string holds a
    newline.

    The output re-parses to a structurally identical AST, so two rules have
    the same canonical text exactly when their ASTs are equal.
    """
    head = "FAIL IF" if rule.polarity is Polarity.FAIL_IF else "SUCCEED ONLY IF"
    parts = [f"RULE {rule.id} FOR {rule.action_guard}: {head} {_print_expr(rule.condition)}"]
    if rule.feedback_template:
        parts.append(f"FEEDBACK {_quote(rule.feedback_template)}")
    if rule.suggestion_template:
        parts.append(f"SUGGEST {_quote(rule.suggestion_template)}")
    return " ".join(parts)
