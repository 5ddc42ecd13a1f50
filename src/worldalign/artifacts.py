"""Artifact persistence, typed readers and human-readable inspection.

Every file the harness writes is deterministic (sorted keys, no timestamps)
and is written to a temporary file in the same directory and moved into
place, so a process that dies mid-write leaves no part of a file (an
operating-system crash may: nothing is fsynced).  Each kind of file has one
parser, which is also its schema: the typed readers (`RuleSet`,
`KnowledgeGraph`, `SceneGraph`, `Trajectory`, `CurveResult`) and, for the
kinds without a type, the renderers below.  Both raise ValueError naming
the place and the field; the readers here and `inspect_path` turn it into a
SchemaError naming the file, never a traceback.  `inspect_path` parses a
trajectory's head and step lines but not its observations;
`read_trajectory` parses them too.
"""
from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import Callable

from .core import NUMBER, Trajectory, from_json, parse_ndjson, require
from .experiments import CurveResult
from .graphs import KnowledgeGraph, SceneGraph
from .learner import RuleSet, SelectionStep


class SchemaError(ValueError):
    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into
    place, so a process that dies mid-write never leaves part of a file at
    `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read ({exc.strerror or exc})") from exc


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON ({exc})") from exc


def parse_as(path: str | Path, parse: Callable, value):
    """`parse(value)`, with its ValueError turned into a SchemaError naming
    the file `value` was read from."""
    try:
        return parse(value)
    except ValueError as exc:
        raise SchemaError(str(path), str(exc)) from exc


def read_rules(path: str | Path) -> RuleSet:
    return parse_as(path, RuleSet.from_json, read_json(path))


def read_kg(path: str | Path) -> KnowledgeGraph:
    return parse_as(path, KnowledgeGraph.from_json, read_json(path))


def read_trajectory(path: str | Path, real: Trajectory | None = None) -> Trajectory:
    """A trajectory file; a predicted one is read with its `real` one."""
    return parse_as(path, partial(Trajectory.from_ndjson, real=real), read_text(path))


# -- inspection --------------------------------------------------------------


def render_rows(data: list) -> str:
    header = f"{'trial':>5} {'iter':>4} {'reward':>8} {'score':>8} {'cover':>7} {'steps':>6} done"
    lines = [header]
    for i, row in enumerate(data):
        where = f"row {i}"
        reward = require(row, "reward", where, NUMBER)
        trial, iteration, steps = (
            require(row, key, where, int, default=0) for key in ("trial", "iteration", "steps")
        )
        score, cover = (
            require(row, key, where, NUMBER, default=0.0) for key in ("score", "cover_rate")
        )
        lines.append(
            f"{trial:>5} {iteration:>4} {reward:>8.2f} {score:>8.2f} {cover:>7.3f} {steps:>6} "
            f"{'yes' if row.get('task_complete') else 'no'}"
        )
    return "\n".join(lines)


def render_rules(rules: RuleSet) -> str:
    blocks = [
        f"rule {e.id}\n  {e.source}\n"
        f"  learned at iteration {e.iteration}, covered {e.covered} mispredictions"
        for e in rules.entries
    ]
    return "\n\n".join(blocks) if blocks else "(no rules)"


def render_coverage(data: dict) -> str:
    rules = require(data, "rules", types=list)
    transitions = require(data, "transitions", types=list)
    matrix = require(data, "matrix", types=list)
    lines = [f"coverage matrix: {len(rules)} rules x {len(transitions)} mispredictions"]
    for i, (rid, row) in enumerate(zip(rules, matrix)):
        if not isinstance(row, list) or not all(isinstance(cell, NUMBER) for cell in row):
            raise ValueError(f"matrix row {i} is not an array of numbers")
        lines.append(f"  {rid!s:<28} covers {sum(row)}")
    selection = require(data, "selection", types=list, default=[])
    if selection:
        lines.append("greedy selection trace:")
        steps = [from_json(SelectionStep, step, f"selection step {i}")
                 for i, step in enumerate(selection)]
        lines.extend(f"  pick {step.rule_id:<28} gain {step.gain}" for step in steps)
        covered = sum(step.gain for step in steps)
        lines.append(f"selected {len(selection)} rules covering {covered}/{len(transitions)}")
    return "\n".join(lines)


def render_metrics(data: dict) -> str:
    require(data, "reward", types=NUMBER)
    lines = ["episode metrics:"]
    for key in ("reward", "score", "cover_rate", "steps", "died", "task_complete"):
        if key in data:
            lines.append(f"  {key:<14} {data[key]}")
    achievements = require(data, "achievements", types=dict, default={})
    for name in achievements:
        require(achievements, name, "achievements", int)
    lines.append(f"  achievements   {len(achievements)}")
    for name, step in sorted(achievements.items(), key=lambda kv: kv[1]):
        lines.append(f"    {name:<22} step {step}")
    return "\n".join(lines)


def render_kg(kg: KnowledgeGraph) -> str:
    lines = [f"knowledge graph: {len(kg.edges)} edges"]
    for e in kg.edges:
        suffix = f" x{e.quantity}" if e.quantity is not None else ""
        lines.append(f"  {e.u} -[{e.relation}{suffix}]-> {e.v}")
    return "\n".join(lines)


def render_sg(sg: SceneGraph) -> str:
    lines = [f"scene graph: {len(sg.status)} locations, {len(sg.edges)} edges"]
    for loc, st in sg.status.items():
        lines.append(f"  {loc:<14} {st}")
    for u, v, rel in sg.edges:
        lines.append(f"  {u} -[{rel}]-> {v}")
    return "\n".join(lines)


def render_manifest(data: dict) -> str:
    spec = require(data, "spec", types=dict)
    lines = ["experiment manifest:"]
    lines.append(f"  version  {data.get('version', '?')}")
    for key, value in sorted(spec.items()):
        lines.append(f"  {key:<14} {value}")
    return "\n".join(lines)


def render_summary(data: dict) -> str:
    rows = require(data, "rows", types=dict)
    lines = ["metric summary (mean +- std):"]
    for name, cell in sorted(rows.items()):
        mean = require(cell, "mean", f"row {name!r}", NUMBER)
        std = require(cell, "std", f"row {name!r}", NUMBER)
        lines.append(f"  {name:<14} {mean:.3f} +- {std:.3f}")
    return "\n".join(lines)


def render_ablation(data: dict) -> str:
    arms = require(data, "arms", types=dict)
    lines = [f"{'arm':<14}{'reward':>16}{'score':>16}"]
    for name, row in arms.items():
        reward_mean, reward_std, score_mean, score_std = (
            require(row, key, f"arm {name!r}", NUMBER)
            for key in ("reward_mean", "reward_std", "score_mean", "score_std")
        )
        lines.append(
            f"{name:<14}{reward_mean:>8.2f}+-{reward_std:<6.2f}"
            f"{score_mean:>8.2f}+-{score_std:<6.2f}"
        )
    return "\n".join(lines)


def render_curve(curve: CurveResult) -> str:
    lines = [f"cover rate over {len(curve.series) - 1} learning iterations "
             f"({curve.misprediction_count} frozen mispredictions):"]
    if not curve.defined:
        lines.append("  (no mispredictions: flagged zero)")
    for i, value in enumerate(curve.series):
        bar = "#" * int(round(value * 40))
        lines.append(f"  iter {i:<3} {value:6.3f} {bar}")
    return "\n".join(lines)


def render_trajectory(text: str) -> str:
    """A trajectory file's head and step lines, parsed as `Trajectory`
    parses them but without building its observations."""
    head, count, steps = parse_ndjson(text)
    meta = head["meta"]
    kind = "predicted trajectory (delta against the real one)" if "delta" in head else "trajectory"
    out = [f"{kind}: {count} transitions "
           f"(seed {meta['seed']}, config {meta['config_id']!r})"]
    for i, (name, args, success, feedback, _, _) in enumerate(steps, 1):
        shown = ", ".join(f"{k}={v}" for k, v in args.items())
        out.append(f"  {i:>4} {'ok ' if success else 'FAIL'} {name}({shown})  {feedback}")
    return "\n".join(out)


def _render_json(data) -> str:
    """Dispatch on the artifact's shape: typed kinds are parsed to their
    type first, the others rendered from the JSON value."""
    if isinstance(data, list):
        if data and isinstance(data[0], dict) and "reward" in data[0]:
            return render_rows(data)
        return render_rules(RuleSet.from_json(data))
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object or array")
    if "matrix" in data:
        return render_coverage(data)
    if "arms" in data:
        return render_ablation(data)
    if "series" in data:
        return render_curve(from_json(CurveResult, data))
    if "edges" in data and ("status" in data or "vertices" in data):
        return render_sg(SceneGraph.from_json(data))
    if "edges" in data:
        return render_kg(KnowledgeGraph.from_json(data))
    if "reward" in data:
        return render_metrics(data)
    if "spec" in data:
        return render_manifest(data)
    if "rows" in data:
        return render_summary(data)
    raise ValueError("unrecognized artifact schema")


def inspect_path(path: str | Path) -> str:
    """Render any artifact for humans; a malformed one is a SchemaError
    naming the file, the place and the field."""
    path = Path(path)
    if path.suffix == ".ndjson":
        return parse_as(path, render_trajectory, read_text(path))
    return parse_as(path, _render_json, read_json(path))
