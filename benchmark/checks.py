"""Output checks.  Each returns a list of problems; an empty list passes.

Every check compares the program's output with something computed apart
from it (a greedy written here, success bits compared here, means taken
here) or with a property the method must have.  None compares with a
stored copy of an earlier output.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

from worldalign.core import Trajectory, Transition
from worldalign.dsl import Polarity, evaluate, parse
from worldalign.env import WorldConfig, kg_edges_for_config, rules_for_config
from worldalign.graphs import KnowledgeGraph, SceneGraph

# Taken before any wrapper is installed, so the checks' own serialisation
# is neither counted nor timed as the program's.
TO_NDJSON = Trajectory.to_ndjson


# -- pruning -----------------------------------------------------------------

def greedy_trace(rows: Sequence[Sequence[bool]], limit: int) -> list[tuple[int, int]]:
    """Greedy maximum coverage over a rule x misprediction matrix, as
    (rule index, marginal gain) pairs; ties go to the lowest index."""
    masks = [sum(1 << j for j, cell in enumerate(row) if cell) for row in rows]
    covered = 0
    picked: list[tuple[int, int]] = []
    chosen: set[int] = set()
    while len(picked) < limit:
        best, best_gain = -1, 0
        for i, mask in enumerate(masks):
            if i not in chosen:
                gain = (mask & ~covered).bit_count()
                if gain > best_gain:
                    best, best_gain = i, gain
        if best < 0:
            break
        picked.append((best, best_gain))
        chosen.add(best)
        covered |= masks[best]
    return picked


def selection_problems(
    rule_ids: Sequence[str],
    rows: Sequence[Sequence[bool]],
    limit: int,
    trace: Sequence[tuple[str, int]],
    survivors: Sequence[str],
) -> list[str]:
    """A pruned update: positive, non-increasing gains, at most `limit`
    picks, equal to the greedy recomputed here, and the surviving rules are
    exactly the picks in pick order."""
    problems = []
    gains = [gain for _, gain in trace]
    if len(trace) > limit:
        problems.append(f"selected {len(trace)} rules, limit {limit}")
    if any(gain <= 0 for gain in gains):
        problems.append(f"non-positive gain in {gains}")
    if any(b > a for a, b in zip(gains, gains[1:])):
        problems.append(f"gains increase: {gains}")
    expected = [(rule_ids[i], gain) for i, gain in greedy_trace(rows, limit)]
    if list(trace) != expected:
        problems.append(f"selection {list(trace)} != recomputed greedy {expected}")
    if list(survivors) != [rule_id for rule_id, _ in trace]:
        problems.append(f"surviving rules {list(survivors)} are not the selection")
    return problems


# -- episodes ------------------------------------------------------------------

def episode_problems(
    *, steps: int, transitions: int, decisions: int, env_steps: int,
    learns: int, expected_learns: int, max_steps: int,
) -> list[str]:
    """Every executed action was vetted first, and the budget held."""
    problems = []
    if not steps == transitions == decisions == env_steps:
        problems.append(
            f"steps {steps}, transitions {transitions}, mpc decisions {decisions}, "
            f"env steps {env_steps} differ"
        )
    if steps > max_steps:
        problems.append(f"episode ran {steps} steps, budget {max_steps}")
    if learns != expected_learns:
        problems.append(f"{learns} learning calls, expected {expected_learns}")
    return problems


def asserted_bit(rule, verdict) -> bool | None:
    """The success bit a rule claims, or None where it is silent: a FAIL IF
    rule claims failure when its condition fires, a SUCCEED ONLY IF rule
    claims its verdict whenever it activates (docs/dsl.md)."""
    if not verdict.activated:
        return None
    if rule.polarity is Polarity.FAIL_IF:
        return None if verdict.flag else False
    return verdict.flag


def wrong_bits(
    rules: Iterable, transitions: Sequence[Transition], kg: KnowledgeGraph,
    sg: SceneGraph, tool_tiers: Sequence[str],
) -> list[str]:
    """Rules that assert the wrong success bit on a real transition."""
    by_action = defaultdict(list)
    for rule in rules:
        by_action[rule.action_guard].append(rule)
    problems = []
    for i, t in enumerate(transitions):
        for rule in by_action.get(t.action.name, ()):
            verdict = evaluate(rule, t.obs, t.action, kg, sg, tool_tiers=tool_tiers)
            bit = asserted_bit(rule, verdict)
            if bit is not None and bit != t.outcome.success:
                problems.append(
                    f"rule {rule.id} asserts success={bit} on transition {i} "
                    f"({t.action.name}), real success={t.outcome.success}"
                )
    return problems


class GroundTruth:
    """The config's ground-truth rules (env/oracle) with its true edges."""

    def __init__(self, config: WorldConfig):
        self.rules = [parse(text) for text in rules_for_config(config)]
        edges = tuple(kg_edges_for_config(config))
        vertices = frozenset(v for e in edges for v in (e.u, e.v))
        self.kg = KnowledgeGraph(vertices, edges)
        self.tool_tiers = config.effective().tool_tiers

    def problems(self, transitions: Sequence[Transition]) -> list[str]:
        return wrong_bits(self.rules, transitions, self.kg, SceneGraph(), self.tool_tiers)


# -- learner state ---------------------------------------------------------------

def _transition_key(t: Transition) -> bytes:
    blob = json.dumps(t.to_json(), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def misprediction_problems(
    episodes: Iterable[tuple[Trajectory, Trajectory]], stored: Sequence[tuple]
) -> list[str]:
    """The stored mispredictions are exactly the (transition, predicted bit)
    pairs, across the trial's episodes, whose predicted success bit differs
    from the real one, each once."""
    expected = set()
    for real, predicted in episodes:
        for r, p in zip(real.transitions, predicted.transitions):
            if r.outcome.success != p.outcome.success:
                expected.add((_transition_key(r), p.outcome.success))
    got = [(_transition_key(t), p.success) for t, p in stored]
    problems = []
    if len(set(got)) != len(got):
        problems.append(f"{len(got) - len(set(got))} stored mispredictions are duplicates")
    missing, extra = len(expected - set(got)), len(set(got) - expected)
    if missing or extra:
        problems.append(
            f"stored mispredictions: {missing} missing, {extra} not mispredicted "
            f"(expected {len(expected)})"
        )
    return problems


# -- ablation ---------------------------------------------------------------------

def ablation_problems(
    final_rewards: dict[tuple, list[float]], table: dict[str, dict]
) -> list[str]:
    """`final_rewards` maps (limit or None, prune) to the last-episode
    rewards of that arm's trials.  The no-pruning arm must be strictly worst,
    and the table must report the means taken here."""
    problems = []
    means = {arm: statistics.fmean(rewards) for arm, rewards in final_rewards.items()}
    pruned = [mean for (limit, prune), mean in means.items() if prune]
    unpruned = [mean for (limit, prune), mean in means.items() if not prune]
    if len(unpruned) != 1 or not pruned:
        return [f"expected pruned arms and one no-pruning arm, got {sorted(means)}"]
    if not unpruned[0] < min(pruned):
        problems.append(f"no-pruning mean reward {unpruned[0]} is not below {min(pruned)}")
    for name, row in table.items():
        arm = (row["limit"], row["prune"])
        if arm not in means:
            problems.append(f"table arm {name} ran no trial")
        elif not math.isclose(row["reward_mean"], means[arm], abs_tol=1e-6):
            problems.append(f"table arm {name} reward_mean {row['reward_mean']} != {means[arm]}")
    if len(table) != len(means):
        problems.append(f"table has {len(table)} arms, {len(means)} ran")
    return problems


# -- artifacts ----------------------------------------------------------------------

def rendered_problems(text) -> list[str]:
    if not isinstance(text, str) or not text.strip():
        return ["inspect rendered nothing"]
    return []


def trajectory_problems(text: str) -> list[str]:
    """A real trajectory file chains step to step and re-serialises to the
    same bytes."""
    try:
        trajectory = Trajectory.from_ndjson(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"does not parse: {exc!r}"]
    problems = []
    try:
        trajectory.validate_chain()
    except ValueError as exc:
        problems.append(str(exc))
    if TO_NDJSON(trajectory) != text:
        problems.append("does not round-trip byte for byte")
    return problems


SUMMARY_KEYS = ("reward", "score", "cover_rate", "steps")


def summary_problems(rows: list[dict], summary: dict) -> list[str]:
    problems = []
    for key in SUMMARY_KEYS:
        mean = statistics.fmean(row[key] for row in rows)
        reported = summary["rows"][key]["mean"]
        if not math.isclose(reported, mean, abs_tol=1e-6):
            problems.append(f"summary {key} mean {reported} != {mean} from rows")
    return problems


def chain_problems(rows: list[dict], trials: int, iterations: int, needed: int) -> list[str]:
    problems = []
    cells = sorted((row["trial"], row["iteration"]) for row in rows)
    if cells != [(t, i) for t in range(trials) for i in range(iterations)]:
        problems.append(f"rows cover {len(cells)} (trial, iteration) cells, not the full grid")
    completed = {row["trial"] for row in rows if row["task_complete"]}
    if len(completed) < needed:
        problems.append(f"{len(completed)} of {trials} trials completed the chain, need {needed}")
    return problems


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
