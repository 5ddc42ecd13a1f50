"""Rule and edge proposers.

The proposer is the pluggable inductive-reasoning seat: the oracle variants
answer from the environment config (ideal reasoner, optionally corrupted),
the backend variant asks an external text-completion service.  Every seat
returns typed `KgEdge`s; only the backend parses edge JSON, its reply's.
"""
from __future__ import annotations

import json
import logging
import random
from contextlib import suppress
from dataclasses import replace
from typing import Protocol, Sequence

from .core import Transition
from .env.config import WorldConfig
from .env.oracle import kg_edges_for_config, rules_for_config
from .graphs import KgEdge
from .world_model import BackendUnavailable

log = logging.getLogger(__name__)


class Proposer(Protocol):
    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]: ...

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[KgEdge]: ...


class OracleProposer:
    """Ideal inductive reasoner: emits the ground-truth rules guarding the
    actions that failed in the window, and the config's true edges.

    Windows with no failed transition yield no rules: induction targets
    failure conditions only.
    """

    def __init__(self, config: WorldConfig):
        self._rules = rules_for_config(config)
        self._edges = kg_edges_for_config(config)

    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]:
        failed_actions = {t.action.name for t in window if not t.outcome.success}
        if not failed_actions:
            return []
        guards = {text: text.split(" FOR ")[1].split(":")[0] for text in self._rules}
        return [text for text in self._rules if guards[text] in failed_actions]

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[KgEdge]:
        return self._edges


class NoisyOracleProposer:
    """Oracle with seeded corruption: a fraction of rule texts comes back
    either syntactically broken or semantically inverted, and edge
    quantities occasionally drift by one."""

    def __init__(self, config: WorldConfig, corruption: float = 0.3, seed: int = 0):
        self.inner = OracleProposer(config)
        self.corruption = corruption
        self._rng = random.Random(f"{seed}:noisy-proposer")

    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]:
        out = []
        for text in self.inner.propose_rules(window, existing):
            if self._rng.random() < self.corruption:
                out.append(self._corrupt_rule(text))
            else:
                out.append(text)
        return out

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[KgEdge]:
        edges = []
        for edge in self.inner.propose_kg_edges(window):
            if self._rng.random() < self.corruption / 3 and edge.quantity is not None:
                edge = replace(edge, quantity=edge.quantity + 1)
            edges.append(edge)
        return edges

    def _corrupt_rule(self, text: str) -> str:
        if self._rng.random() < 0.5:
            return text.replace("RULE ", "RULE ???", 1)  # unparseable
        for marker in ("FAIL IF ", "SUCCEED ONLY IF "):
            head, sep, tail = text.partition(marker)
            if sep:
                condition, feedback_kw, suffix = tail.partition(" FEEDBACK")
                inverted = f"{head}{marker}NOT ({condition.strip()}){feedback_kw}{suffix}"
                return inverted.replace("RULE gt_", "RULE bad_", 1)
        return text.replace("RULE ", "RULE ???", 1)


class ExternalBackendProposer:
    """Asks a text-completion backend to mine rules / edges, with strict
    response validation.  Malformed replies, like a client that gives up
    after its retry budget, surface as BackendUnavailable."""

    def __init__(self, client, rule_prompt: str, kg_prompt: str):
        self.client = client
        self.rule_prompt = rule_prompt
        self.kg_prompt = kg_prompt

    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]:
        prompt = self.rule_prompt.format(
            transitions=json.dumps([t.to_json() for t in window], indent=1),
            existing_rules=json.dumps(list(existing), indent=1),
        )
        reply = self.client.complete(prompt)
        data = self._parse_json(reply)
        rules = data.get("new_rules") if isinstance(data, dict) else None
        if not isinstance(rules, list) or not all(isinstance(r, str) for r in rules):
            raise BackendUnavailable("rule reply missing a new_rules list of strings")
        return rules

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[KgEdge]:
        prompt = self.kg_prompt.format(
            transitions=json.dumps(
                [
                    {
                        "initial_state": t.obs.to_json(),
                        "action": t.action.to_json(),
                        "action_result": t.outcome.success,
                    }
                    for t in window
                ],
                indent=1,
            )
        )
        reply = self.client.complete(prompt)
        data = self._parse_json(reply)
        if not isinstance(data, list):
            raise BackendUnavailable("edge reply is not a JSON list")
        edges = []
        for entry in data:  # a malformed entry is dropped on its own
            with suppress(ValueError):
                edges.append(KgEdge.from_json(entry))
        if len(edges) < len(data):
            log.info("edge reply: dropped %d malformed entries", len(data) - len(edges))
        return edges

    @staticmethod
    def _parse_json(reply: str):
        text = reply.strip()
        if text.startswith("```"):
            text = text.strip("`").lstrip("json").strip()
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise BackendUnavailable(f"unparseable JSON reply: {exc}") from exc
