"""Artifact persistence and human-readable inspection.

Every file the harness writes is deterministic (sorted keys, no timestamps)
and re-readable by the inspector; schema mismatches name the offending file
and field instead of tracebacking.
"""
from __future__ import annotations

import json
from pathlib import Path

from .core import FORMAT


class SchemaError(ValueError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


def write_json(path: str | Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# -- inspection --------------------------------------------------------------

NUMBER = (int, float)


def _require(data, field: str, path: str, where: str = "", types: type | tuple = object):
    """`data[field]`, or a SchemaError naming the file, the place (`where`,
    e.g. "line 3: outcome") and the field when `data` is not an object, the
    field is missing or its value is not of `types`."""
    prefix = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise SchemaError(path, f"{where or 'document'} is not a JSON object")
    if field not in data:
        raise SchemaError(path, f"{prefix}missing field {field!r}")
    value = data[field]
    if not isinstance(value, types):
        raise SchemaError(
            path, f"{prefix}field {field!r} has the wrong type ({type(value).__name__})"
        )
    return value


def render_rows(data: list, path: str) -> str:
    header = f"{'trial':>5} {'iter':>4} {'reward':>8} {'score':>8} {'steps':>6} done"
    lines = [header]
    for i, row in enumerate(data):
        if not isinstance(row, dict) or "reward" not in row:
            raise SchemaError(path, f"row {i}: missing field 'reward'")
        lines.append(
            f"{row.get('trial', 0):>5} {row.get('iteration', 0):>4} "
            f"{row['reward']:>8.2f} {row.get('score', 0.0):>8.2f} "
            f"{row.get('steps', 0):>6} {'yes' if row.get('task_complete') else 'no'}"
        )
    return "\n".join(lines)


def render_rules(data, path: str) -> str:
    if not isinstance(data, list):
        raise SchemaError(path, "rules file must be a JSON array")
    blocks = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise SchemaError(path, f"entry {i} is not an object")
        rid = _require(item, "id", path)
        source = _require(item, "source", path)
        lines = [f"rule {rid}"]
        lines.append(f"  {source}")
        if "iteration_learned" in item:
            lines.append(
                f"  learned at iteration {item['iteration_learned']}, "
                f"covered {item.get('covered_count', 0)} mispredictions"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) if blocks else "(no rules)"


def render_coverage(data: dict, path: str) -> str:
    rules = _require(data, "rules", path, types=list)
    transitions = _require(data, "transitions", path, types=list)
    matrix = _require(data, "matrix", path, types=list)
    lines = [f"coverage matrix: {len(rules)} rules x {len(transitions)} mispredictions"]
    for i, (rid, row) in enumerate(zip(rules, matrix)):
        if not isinstance(row, list) or not all(isinstance(cell, NUMBER) for cell in row):
            raise SchemaError(path, f"matrix row {i} is not an array of numbers")
        lines.append(f"  {rid!s:<28} covers {sum(row)}")
    selection = data.get("selection", [])
    if not isinstance(selection, list):
        raise SchemaError(path, "field 'selection' is not a JSON array")
    if selection:
        lines.append("greedy selection trace:")
        for i, step in enumerate(selection):
            where = f"selection step {i}"
            rule_id = _require(step, "rule_id", path, where, str)
            gain = _require(step, "gain", path, where, int)
            lines.append(f"  pick {rule_id:<28} gain {gain}")
    return "\n".join(lines)


def render_metrics(data: dict, path: str) -> str:
    _require(data, "reward", path)
    lines = ["episode metrics:"]
    for key in ("reward", "score", "cover_rate", "steps", "died", "task_complete"):
        if key in data:
            lines.append(f"  {key:<14} {data[key]}")
    achievements = data.get("achievements", {})
    if not isinstance(achievements, dict):
        raise SchemaError(path, "field 'achievements' is not a JSON object")
    lines.append(f"  achievements   {len(achievements)}")
    for name, step in sorted(achievements.items(), key=lambda kv: kv[1]):
        lines.append(f"    {name:<22} step {step}")
    return "\n".join(lines)


def render_kg(data: dict, path: str) -> str:
    edges = _require(data, "edges", path, types=list)
    lines = [f"knowledge graph: {len(edges)} edges"]
    for i, edge in enumerate(edges):
        where = f"edge {i}"
        u = _require(edge, "u", path, where)
        v = _require(edge, "v", path, where)
        label = _require(edge, "label", path, where, dict)
        relation = _require(label, "relation", path, f"{where}: label")
        quantity = label.get("quantity")
        suffix = f" x{quantity}" if quantity is not None else ""
        lines.append(f"  {u} -[{relation}{suffix}]-> {v}")
    return "\n".join(lines)


def render_sg(data: dict, path: str) -> str:
    status = _require(data, "status", path, types=dict)
    edges = _require(data, "edges", path, types=list)
    lines = [f"scene graph: {len(status)} locations, {len(edges)} edges"]
    for loc, st in status.items():
        lines.append(f"  {loc:<14} {st}")
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 3:
            raise SchemaError(path, f"edge {i} is not a [u, v, relation] array")
        u, v, rel = edge
        lines.append(f"  {u} -[{rel}]-> {v}")
    return "\n".join(lines)


def render_manifest(data: dict, path: str) -> str:
    spec = _require(data, "spec", path, types=dict)
    lines = ["experiment manifest:"]
    lines.append(f"  version  {data.get('version', '?')}")
    for key, value in sorted(spec.items()):
        lines.append(f"  {key:<14} {value}")
    return "\n".join(lines)


def render_summary(data: dict, path: str) -> str:
    rows = _require(data, "rows", path, types=dict)
    lines = ["metric summary (mean +- std):"]
    for name, cell in sorted(rows.items()):
        mean = _require(cell, "mean", path, f"row {name!r}", NUMBER)
        std = _require(cell, "std", path, f"row {name!r}", NUMBER)
        lines.append(f"  {name:<14} {mean:.3f} +- {std:.3f}")
    return "\n".join(lines)


def render_ablation(data: dict, path: str) -> str:
    arms = _require(data, "arms", path, types=dict)
    lines = [f"{'arm':<14}{'reward':>16}{'score':>16}"]
    for name, row in arms.items():
        reward_mean, reward_std, score_mean, score_std = (
            _require(row, key, path, f"arm {name!r}", NUMBER)
            for key in ("reward_mean", "reward_std", "score_mean", "score_std")
        )
        lines.append(
            f"{name:<14}{reward_mean:>8.2f}+-{reward_std:<6.2f}"
            f"{score_mean:>8.2f}+-{score_std:<6.2f}"
        )
    return "\n".join(lines)


def render_curve(data: dict, path: str) -> str:
    series = _require(data, "series", path, types=list)
    if not all(isinstance(value, NUMBER) for value in series):
        raise SchemaError(path, "field 'series' is not an array of numbers")
    lines = [f"cover rate over {len(series) - 1} learning iterations "
             f"({data.get('misprediction_count', '?')} frozen mispredictions):"]
    for i, value in enumerate(series):
        bar = "#" * int(round(value * 40))
        lines.append(f"  iter {i:<3} {value:6.3f} {bar}")
    return "\n".join(lines)


def render_trajectory(text: str, path: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError(path, "empty trajectory file")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"line 1 is not JSON ({exc})") from exc
    if not isinstance(head, dict):
        raise SchemaError(path, "line 1 is not a JSON object")
    if head.get("format") != FORMAT:
        raise SchemaError(
            path, f"line 1: not a format-{FORMAT} trajectory file (format {head.get('format')!r})"
        )
    meta = _require(head, "meta", path, "line 1", dict)
    kind = "predicted trajectory (delta against the real one)" if "delta" in head else "trajectory"
    out = [f"{kind}: {len(lines) - 1} transitions "
           f"(seed {meta.get('seed')}, config {meta.get('config_id')!r})"]
    for i, line in enumerate(lines[1:], 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, f"line {i + 1}: malformed transition ({exc})") from exc
        if not isinstance(record, dict):
            raise SchemaError(path, f"line {i + 1}: transition is not a JSON object")
        try:
            action, outcome, _ = record["action"], record["outcome"], record["next_obs"]
        except KeyError as exc:
            raise SchemaError(path, f"line {i + 1}: malformed transition ({exc})") from exc
        try:
            success, feedback = outcome["success"], outcome["feedback"]
            name, args = action["name"], action["args"]
        except (KeyError, TypeError):
            success = None
        if not (isinstance(success, bool) and isinstance(feedback, str)
                and isinstance(name, str) and isinstance(args, dict)):
            # Rare path: find the first bad field and name it.
            where = f"line {i + 1}"
            _require(outcome, "success", path, f"{where}: outcome", bool)
            _require(outcome, "feedback", path, f"{where}: outcome", str)
            _require(action, "name", path, f"{where}: action", str)
            _require(action, "args", path, f"{where}: action", dict)
        status = "ok " if success else "FAIL"
        shown = ", ".join(f"{k}={v}" for k, v in args.items())
        out.append(f"  {i:>4} {status} {name}({shown})  {feedback}")
    return "\n".join(out)


def inspect_path(path: str | Path) -> str:
    """Dispatch on the artifact's shape and render it for humans."""
    path = Path(path)
    if path.suffix == ".ndjson":
        return render_trajectory(read_text(path), str(path))
    data = read_json(path)
    name = str(path)
    if isinstance(data, list):
        if data and isinstance(data[0], dict) and "reward" in data[0]:
            return render_rows(data, name)
        return render_rules(data, name)
    if not isinstance(data, dict):
        raise SchemaError(name, "expected a JSON object or array")
    if "matrix" in data:
        return render_coverage(data, name)
    if "arms" in data:
        return render_ablation(data, name)
    if "series" in data:
        return render_curve(data, name)
    if "edges" in data and "status" in data:
        return render_sg(data, name)
    if "edges" in data:
        return render_kg(data, name)
    if "reward" in data:
        return render_metrics(data, name)
    if "spec" in data:
        return render_manifest(data, name)
    if "rows" in data:
        return render_summary(data, name)
    raise SchemaError(name, "unrecognized artifact schema")
