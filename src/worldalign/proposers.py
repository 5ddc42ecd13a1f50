"""Rule and edge proposers.

The proposer is the pluggable inductive-reasoning seat: the oracle variants
answer from the environment config (ideal reasoner, optionally corrupted),
the backend variant asks an external text-completion service.
"""
from __future__ import annotations

import json
import random
from typing import Protocol, Sequence

from .core import Transition
from .env.config import WorldConfig
from .env.oracle import kg_edges_for_config, rules_for_config


class ProposerUnavailable(RuntimeError):
    """The proposer cannot answer."""


class Proposer(Protocol):
    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]: ...

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[dict]: ...


class OracleProposer:
    """Ideal inductive reasoner: emits the ground-truth rules guarding the
    actions that failed in the window, and the config's true edges.

    Windows with no failed transition yield no rules: induction targets
    failure conditions only.
    """

    def __init__(self, config: WorldConfig):
        self.config = config
        self._rules = rules_for_config(config)
        self._edges = [edge.to_json() for edge in kg_edges_for_config(config)]

    def propose_rules(
        self, window: Sequence[Transition], existing: Sequence[str]
    ) -> list[str]:
        failed_actions = {t.action.name for t in window if not t.outcome.success}
        if not failed_actions:
            return []
        guards = {text: text.split(" FOR ")[1].split(":")[0] for text in self._rules}
        return [text for text in self._rules if guards[text] in failed_actions]

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[dict]:
        return [dict(e, label=dict(e["label"])) for e in self._edges]


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

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[dict]:
        edges = self.inner.propose_kg_edges(window)
        for edge in edges:
            if self._rng.random() < self.corruption / 3:
                quantity = edge["label"].get("quantity")
                if quantity is not None:
                    edge["label"]["quantity"] = quantity + 1
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
    response validation.  Malformed replies surface as ProposerUnavailable
    after the client's retry budget is spent."""

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
        reply = self._complete(prompt)
        data = self._parse_json(reply)
        rules = data.get("new_rules") if isinstance(data, dict) else None
        if not isinstance(rules, list) or not all(isinstance(r, str) for r in rules):
            raise ProposerUnavailable("rule reply missing a new_rules list of strings")
        return rules

    def propose_kg_edges(self, window: Sequence[Transition]) -> list[dict]:
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
        reply = self._complete(prompt)
        data = self._parse_json(reply)
        if not isinstance(data, list):
            raise ProposerUnavailable("edge reply is not a JSON list")
        return [e for e in data if isinstance(e, dict)]

    def _complete(self, prompt: str) -> str:
        from .world_model import BackendUnavailable

        try:
            return self.client.complete(prompt)
        except BackendUnavailable as exc:
            raise ProposerUnavailable(str(exc)) from exc

    @staticmethod
    def _parse_json(reply: str):
        text = reply.strip()
        if text.startswith("```"):
            text = text.strip("`").lstrip("json").strip()
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProposerUnavailable(f"unparseable JSON reply: {exc}") from exc
