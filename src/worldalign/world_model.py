"""Neurosymbolic predictor: a pluggable base predictor whose success bit can
be overridden by activated rules.

The naive prior answers from the config's *default* tables no matter which
modifications are active, which makes its misalignment under modified worlds
deterministic and measurable.  It also ignores contextual preconditions the
tables do not encode (target proximity for mine/attack, placement surfaces,
ambush risk while sleeping), so it stays fallibly optimistic even on the
default world.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from .core import Action, Observation, Outcome, has_tool_at_least
from .dsl import RuleAst, evaluate_all, format_shortfall
from .env.config import MAKEABLE, PLACEABLE, WorldConfig
from .env.world import apply_effect
from .graphs import KnowledgeGraph, SceneGraph


class BackendUnavailable(RuntimeError):
    """The external completion backend could not produce a usable answer."""


class BasePredictor(Protocol):
    def predict(self, obs: Observation, action: Action) -> Outcome: ...


class NaivePrior:
    """Default-table commonsense, blind to modifications and to context."""

    def __init__(self, config: WorldConfig):
        self.tables = config.base_tables()

    def predict(self, obs: Observation, action: Action) -> Outcome:
        if action.name == "mine":
            block = str(action.args["block_name"])
            rule = self.tables.mining.get(block)
            if rule is None:
                return Outcome(False, f"{block} cannot be mined",
                               f"target a different block than {block}")
            if not has_tool_at_least(obs.inventory, rule.tool, self.tables.tool_tiers):
                return Outcome(False, f"mining {block} needs {rule.tool} or better",
                               f"craft {rule.tool} or a better pickaxe first")
            return Outcome(True, f"mining {block} should succeed")
        if action.name in ("make", "place"):
            key = "tool_name" if action.name == "make" else "block_name"
            product = str(action.args[key])
            known = MAKEABLE if action.name == "make" else PLACEABLE
            recipe = self.tables.recipes.get(product)
            if product not in known or recipe is None:
                return Outcome(False, f"no known way to {action.name} {product}")
            shortfall = format_shortfall(recipe.needs(), recipe.platform, obs)
            if shortfall:
                return Outcome(
                    False,
                    f"cannot {action.name} {product}: requirements not met",
                    f"missing for {product}: {', '.join(shortfall)}",
                )
            return Outcome(True, f"{action.name} {product} should succeed")
        # attack, sleep, explore: optimistic pass-through
        return Outcome(True, f"{action.name} should succeed")


class ExternalBackendPredictor:
    """Text-completion predictor; expects one line `SUCCESS|FAIL: feedback`."""

    def __init__(self, client, prompt_template: str):
        self.client = client
        self.prompt_template = prompt_template

    def predict(self, obs: Observation, action: Action) -> Outcome:
        import json

        prompt = self.prompt_template.format(
            observation=json.dumps(obs.to_json()), action=json.dumps(action.to_json())
        )
        reply = self.client.complete(prompt).strip()
        head, _, feedback = reply.partition(":")
        verdict = head.strip().upper()
        if verdict not in ("SUCCESS", "FAIL"):
            raise BackendUnavailable(f"malformed prediction reply: {reply[:80]!r}")
        if verdict == "SUCCESS":
            return Outcome(True, feedback.strip())
        return Outcome(False, feedback.strip(), "")


@dataclass(frozen=True)
class MapExecuteResult:
    predicted: Outcome  # the base prediction, corrected by the rules
    next_obs: Observation
    activated: tuple[str, ...]
    failing: tuple[str, ...]


def map_execute(
    rules: Sequence[RuleAst],
    obs: Observation,
    action: Action,
    base: Outcome,
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tables: WorldConfig,
) -> MapExecuteResult:
    """Check a base prediction against the rule set.

    If any rule activates, the joint rule verdict replaces the base success
    bit (failure dominates across rules); otherwise the base prediction
    stands.  The next-observation estimate comes from the shared effect
    function applied to the corrected success bit.
    """
    joint = evaluate_all(rules, obs, action, kg, sg, tool_tiers=tables.tool_tiers)
    if not joint.activated_ids:
        predicted = base
    elif joint.failing_ids:
        predicted = Outcome(False, joint.feedback, joint.suggestion)
    else:
        predicted = Outcome(True, joint.feedback or base.feedback)
    next_obs = apply_effect(obs, action, predicted.success, tables)
    return MapExecuteResult(predicted, next_obs, joint.activated_ids, joint.failing_ids)
