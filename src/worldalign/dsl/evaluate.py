"""Rule evaluation: pure verdicts from (observation, action, graphs).

A rule whose guard does not match the action counts as success without
activating.  An atom that cannot be resolved (unknown scene-graph location,
missing action argument, unknown tool tier) deactivates the rule instead of
faulting.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from ..core import Action, DEFAULT_TOOL_TIERS, Observation, has_tool_at_least
from ..graphs import KnowledgeGraph, SceneGraph, UNEXPLORED
from .ast import (
    And,
    ArgCmp,
    Expr,
    HasToolAtLeast,
    InventoryAtLeast,
    KgSatisfied,
    Lit,
    Membership,
    Not,
    ObsCmp,
    Or,
    Polarity,
    RuleAst,
    SgContains,
    SgUnexplored,
    ValueExpr,
)


@dataclass(frozen=True)
class RuleVerdict:
    activated: bool
    flag: bool
    asserted: bool | None = None  # the success bit the rule claims; None where it claims none
    feedback: str = ""
    suggestion: str = ""


class _Unresolvable(Exception):
    pass


@dataclass(frozen=True)
class _Context:
    obs: Observation
    action: Action
    kg: KnowledgeGraph
    sg: SceneGraph
    tool_tiers: tuple[str, ...]

    def value(self, expr: ValueExpr) -> str:
        if isinstance(expr, Lit):
            return expr.value
        if expr.key not in self.action.args:
            raise _Unresolvable(f"action has no argument {expr.key!r}")
        return str(self.action.args[expr.key])


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval(expr: Expr, ctx: _Context) -> bool:
    if isinstance(expr, Or):
        return any(_eval(p, ctx) for p in expr.parts)
    if isinstance(expr, And):
        return all(_eval(p, ctx) for p in expr.parts)
    if isinstance(expr, Not):
        return not _eval(expr.expr, ctx)
    if isinstance(expr, ObsCmp):
        value: object = ctx.obs
        for part in expr.path:
            value = getattr(value, part)
        return _OPS[expr.op](value, expr.literal)
    if isinstance(expr, ArgCmp):
        if expr.key not in ctx.action.args:
            raise _Unresolvable(f"action has no argument {expr.key!r}")
        return _OPS[expr.op](ctx.action.args[expr.key], expr.literal)
    if isinstance(expr, Membership):
        name = ctx.value(expr.value)
        if expr.collection == "near_objects":
            return name in ctx.obs.near_objects
        return any(v.type == name for v in ctx.obs.visible_objects)
    if isinstance(expr, InventoryAtLeast):
        item = ctx.value(expr.item)
        return ctx.obs.inventory_count(item) >= expr.count
    if isinstance(expr, HasToolAtLeast):
        if expr.tier not in ctx.tool_tiers:
            raise _Unresolvable(f"unknown tool tier {expr.tier!r}")
        return has_tool_at_least(ctx.obs.inventory, expr.tier, ctx.tool_tiers)
    if isinstance(expr, KgSatisfied):
        product = ctx.value(expr.product)
        materials, platform = ctx.kg.requirements(product)
        if any(ctx.obs.inventory_count(m) < q for m, q in materials.items()):
            return False
        return platform is None or platform in ctx.obs.near_objects
    if isinstance(expr, SgContains):
        if expr.location not in ctx.sg.vertices:
            raise _Unresolvable(f"unknown location {expr.location!r}")
        return (expr.location, expr.item, "contains") in ctx.sg.edges
    if isinstance(expr, SgUnexplored):
        status = ctx.sg.status.get(expr.location)
        if status is None:
            raise _Unresolvable(f"unknown location {expr.location!r}")
        return status == UNEXPLORED
    raise TypeError(f"unknown expression node {expr!r}")


_MISSING_RE = re.compile(r"(\w+): (\d+) more needed")
_PLATFORM_RE = re.compile(r"(\w+): must be nearby")


def format_shortfall(
    materials: dict[str, int], platform: str | None, obs: Observation
) -> list[str]:
    """What `obs` lacks for a craft, e.g. ``wood: 2 more needed`` and
    ``table: must be nearby``; `parse_shortfall` reads it back."""
    out = []
    for material, need in sorted(materials.items()):
        have = obs.inventory_count(material)
        if have < need:
            out.append(f"{material}: {need - have} more needed")
    if platform is not None and platform not in obs.near_objects:
        out.append(f"{platform}: must be nearby")
    return out


def parse_shortfall(text: str) -> tuple[list[tuple[str, int]], list[str]]:
    """The (material, missing count) pairs and platform names that
    `format_shortfall` wrote anywhere in `text`, in order."""
    missing = [(material, int(count)) for material, count in _MISSING_RE.findall(text)]
    return missing, _PLATFORM_RE.findall(text)


def _bindings(rule: RuleAst, ctx: _Context) -> dict[str, str]:
    binds = {key: str(value) for key, value in ctx.action.args.items()}
    binds["guard"] = rule.action_guard
    product = None
    if "tool_name" in ctx.action.args:
        product = str(ctx.action.args["tool_name"])
    elif "block_name" in ctx.action.args:
        product = str(ctx.action.args["block_name"])
    if product is not None:
        binds["product"] = product
        shortfall = format_shortfall(*ctx.kg.requirements(product), ctx.obs)
        binds["missing"] = ", ".join(shortfall) if shortfall else "nothing"
    return binds


class _Defaulting(dict):
    def __missing__(self, key: str) -> str:
        return "{" + key + "}"


def render_template(template: str, bindings: dict[str, str]) -> str:
    return template.format_map(_Defaulting(bindings))


def evaluate(
    rule: RuleAst,
    obs: Observation,
    action: Action,
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str] = DEFAULT_TOOL_TIERS,
) -> RuleVerdict:
    """Evaluate one rule.  Pure in its inputs; never raises on bad data."""
    if action.name != rule.action_guard:
        return RuleVerdict(activated=False, flag=True)
    ctx = _Context(obs, action, kg, sg, tuple(tool_tiers))
    try:
        condition = _eval(rule.condition, ctx)
    except _Unresolvable:
        return RuleVerdict(activated=False, flag=True)
    fail_if = rule.polarity is Polarity.FAIL_IF
    flag = not condition if fail_if else condition
    if flag:
        # A FAIL IF rule claims a bit only when its condition fires; a
        # SUCCEED ONLY IF rule models its action completely.
        return RuleVerdict(activated=True, flag=True, asserted=None if fail_if else True)
    binds = _bindings(rule, ctx)
    return RuleVerdict(
        activated=True,
        flag=False,
        asserted=False,
        feedback=render_template(rule.feedback_template, binds),
        suggestion=render_template(rule.suggestion_template, binds),
    )


@dataclass(frozen=True)
class JointVerdict:
    """Composition of every activated rule on one (obs, action) pair:
    failure dominates, strings concatenated in rule-id order."""

    activated_ids: tuple[str, ...]
    failing_ids: tuple[str, ...]  # empty exactly when the joint verdict passes
    feedback: str
    suggestion: str


_DORMANT = JointVerdict((), (), "", "")  # the verdict when no rule's guard matches


def evaluate_all(
    rules: Sequence[RuleAst],
    obs: Observation,
    action: Action,
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str] = DEFAULT_TOOL_TIERS,
) -> JointVerdict:
    # Only guard-matched rules can activate; the rest would answer dormant.
    matched = [r for r in rules if r.action_guard == action.name]
    if not matched:
        return _DORMANT
    matched.sort(key=lambda r: r.id)
    activated: list[str] = []
    failing: list[str] = []
    feedback: list[str] = []
    suggestion: list[str] = []
    for rule in matched:
        verdict = evaluate(rule, obs, action, kg, sg, tool_tiers=tool_tiers)
        if not verdict.activated:
            continue
        activated.append(rule.id)
        if not verdict.flag:
            failing.append(rule.id)
            if verdict.feedback:
                feedback.append(verdict.feedback)
            if verdict.suggestion:
                suggestion.append(verdict.suggestion)
    return JointVerdict(
        activated_ids=tuple(activated),
        failing_ids=tuple(failing),
        feedback=" ".join(feedback),
        suggestion=" ".join(suggestion),
    )
