"""Artifact persistence and human-readable inspection.

Every file the harness writes is deterministic (sorted keys, no timestamps)
and re-readable by the inspector; schema mismatches name the offending file
and field instead of tracebacking.
"""
from __future__ import annotations

import json
from pathlib import Path


class SchemaError(ValueError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


def write_json(path: str | Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON ({exc})") from exc


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# -- inspection --------------------------------------------------------------

def _require(data: dict, field: str, path: str):
    if field not in data:
        raise SchemaError(path, f"missing field {field!r}")
    return data[field]


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
    rules = _require(data, "rules", path)
    transitions = _require(data, "transitions", path)
    matrix = _require(data, "matrix", path)
    lines = [f"coverage matrix: {len(rules)} rules x {len(transitions)} mispredictions"]
    for rid, row in zip(rules, matrix):
        lines.append(f"  {rid:<28} covers {sum(row)}")
    selection = data.get("selection", [])
    if selection:
        lines.append("greedy selection trace:")
        for step in selection:
            lines.append(f"  pick {step['rule_id']:<28} gain {step['gain']}")
    return "\n".join(lines)


def render_metrics(data: dict, path: str) -> str:
    _require(data, "reward", path)
    lines = ["episode metrics:"]
    for key in ("reward", "score", "cover_rate", "steps", "died", "task_complete"):
        if key in data:
            lines.append(f"  {key:<14} {data[key]}")
    achievements = data.get("achievements", {})
    lines.append(f"  achievements   {len(achievements)}")
    for name, step in sorted(achievements.items(), key=lambda kv: kv[1]):
        lines.append(f"    {name:<22} step {step}")
    return "\n".join(lines)


def render_kg(data: dict, path: str) -> str:
    edges = _require(data, "edges", path)
    lines = [f"knowledge graph: {len(edges)} edges"]
    for edge in edges:
        label = _require(edge, "label", path)
        quantity = label.get("quantity")
        suffix = f" x{quantity}" if quantity is not None else ""
        lines.append(f"  {edge['u']} -[{label['relation']}{suffix}]-> {edge['v']}")
    return "\n".join(lines)


def render_sg(data: dict, path: str) -> str:
    status = _require(data, "status", path)
    edges = _require(data, "edges", path)
    lines = [f"scene graph: {len(status)} locations, {len(edges)} edges"]
    for loc, st in status.items():
        lines.append(f"  {loc:<14} {st}")
    for u, v, rel in edges:
        lines.append(f"  {u} -[{rel}]-> {v}")
    return "\n".join(lines)


def render_manifest(data: dict, path: str) -> str:
    spec = _require(data, "spec", path)
    lines = ["experiment manifest:"]
    lines.append(f"  version  {data.get('version', '?')}")
    for key, value in sorted(spec.items()):
        lines.append(f"  {key:<14} {value}")
    return "\n".join(lines)


def render_summary(data: dict, path: str) -> str:
    rows = _require(data, "rows", path)
    lines = ["metric summary (mean +- std):"]
    for name, cell in sorted(rows.items()):
        lines.append(f"  {name:<14} {cell['mean']:.3f} +- {cell['std']:.3f}")
    return "\n".join(lines)


def render_ablation(data: dict, path: str) -> str:
    arms = _require(data, "arms", path)
    lines = [f"{'arm':<14}{'reward':>16}{'score':>16}"]
    for name, row in arms.items():
        lines.append(
            f"{name:<14}{row['reward_mean']:>8.2f}+-{row['reward_std']:<6.2f}"
            f"{row['score_mean']:>8.2f}+-{row['score_std']:<6.2f}"
        )
    return "\n".join(lines)


def render_curve(data: dict, path: str) -> str:
    series = _require(data, "series", path)
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
    meta = head.get("meta", {})
    out = [f"trajectory: {len(lines) - 1} transitions "
           f"(seed {meta.get('seed')}, config {meta.get('config_id')!r})"]
    for i, line in enumerate(lines[1:], 1):
        try:
            record = json.loads(line)
            action = record["action"]
            outcome = record["outcome"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise SchemaError(path, f"line {i + 1}: malformed transition ({exc})") from exc
        status = "ok " if outcome["success"] else "FAIL"
        args = ", ".join(f"{k}={v}" for k, v in action["args"].items())
        out.append(f"  {i:>4} {status} {action['name']}({args})  {outcome['feedback']}")
    return "\n".join(out)


def inspect_path(path: str | Path) -> str:
    """Dispatch on the artifact's shape and render it for humans."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(str(path), "no such file")
    if path.suffix == ".ndjson":
        return render_trajectory(path.read_text(), str(path))
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
