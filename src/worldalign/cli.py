"""Command-line harness: simulate, ablate-limit, coverage-curve, inspect,
prune.

Every run writes a self-describing output directory (manifest with the spec
echo, per-trial artifacts, aggregate summary) whose files the `inspect`
subcommand can all render back.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
# `run_episode` is not called here (run_learning_trial owns the episode loop),
# but benchmark/workloads.py wraps `cli.run_episode` when it installs its hooks.
from .agent import run_episode, score
from .artifacts import SchemaError, inspect_path, write_json, write_text
from .core import DEFAULT_TOOL_TIERS, Outcome, Transition
from .env.config import (
    ACHIEVEMENTS,
    CONFIG_IDS,
    TARGET_CHAIN_ACHIEVEMENT,
    UnsolvableConfig,
    load_config,
)
from .experiments import (
    LOG_FORMAT,
    coverage_curve,
    mean_std,
    run_ablation,
    run_learning_trial,
    run_trials,
    standard_components,
)
from .graphs import KnowledgeGraph
from .learner import RuleSet, build_matrix, prune_trace
from .proposers import NoisyOracleProposer, OracleProposer, ProposerUnavailable
from .world_model import BackendUnavailable


@dataclass
class ExperimentSpec:
    config_id: str = "default"
    seed: int = 1
    trials: int = 1
    iterations: int = 1
    out: str = "runs/out"
    rule_limit: int = 6
    replan_limit: int = 3
    cadence: str = "episode"
    proposer: str = "oracle"  # oracle | noisy | backend | none
    predictor: str = "naive"  # naive | backend
    planner: str = "scripted"  # scripted | backend
    noise: float = 0.3
    target: str | None = TARGET_CHAIN_ACHIEVEMENT
    workers: int = 1

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.rule_limit < 1:
            raise ValueError("rule limit must be >= 1")
        if self.config_id not in CONFIG_IDS and not Path(self.config_id).exists():
            raise ValueError(
                f"unknown config {self.config_id!r}; ids: {', '.join(CONFIG_IDS)}"
            )
        load_config(self.config_id)  # raises UnsolvableConfig early

    def to_json(self, fields: Sequence[str] | None = None) -> dict:
        data = asdict(self)
        return data if fields is None else {name: data[name] for name in fields}


def _target_product(target: str | None) -> str:
    if target and target.startswith("make_"):
        return target[len("make_"):]
    return "iron_pickaxe"


def _run_one_trial(spec_json: dict, trial_index: int) -> dict:
    """Top-level worker: runs one trial and writes its artifacts."""
    spec = ExperimentSpec(**spec_json)
    trial_seed = spec.seed + trial_index
    build = standard_components(
        rule_proposer_kind=spec.proposer,
        predictor_kind=spec.predictor,
        planner_kind=spec.planner,
        noise=spec.noise,
        limit=spec.rule_limit,
        replan_limit=spec.replan_limit,
        cadence=spec.cadence,
        target_product=_target_product(spec.target),
        proposer_seed=trial_seed,
    )
    trial_dir = Path(spec.out) / f"trial_{trial_index:02d}"
    rows = []

    def write_iteration(iteration, episode_config, result, state) -> None:
        iter_dir = trial_dir / f"iter_{iteration:02d}"
        write_text(iter_dir / "trajectory.ndjson", result.real.to_ndjson())
        write_text(iter_dir / "predicted.ndjson", result.predicted.to_ndjson())
        write_json(iter_dir / "metrics.json", result.metrics)
        write_json(iter_dir / "rules.json", state.rules.to_json())
        write_json(iter_dir / "kg.json", state.kg.to_json())
        write_json(iter_dir / "sg.json", state.sg.to_json())
        matrix = build_matrix(
            state.rules.entries, state.mispredictions, state.kg, state.sg,
            tool_tiers=episode_config.tool_tiers,
        )
        coverage_doc = matrix.to_json()
        coverage_doc["selection"] = [
            {"rule_id": s.rule_id, "gain": s.gain} for s in state.last_trace
        ]
        coverage_doc["limit"] = spec.rule_limit
        write_json(iter_dir / "coverage.json", coverage_doc)
        rows.append({"trial": trial_index, "iteration": iteration, **result.metrics})

    run_learning_trial(
        load_config(spec.config_id), trial_seed, spec.iterations, build,
        target=spec.target, on_episode=write_iteration,
    )
    return {"trial": trial_index, "rows": rows}


def cmd_simulate(spec: ExperimentSpec) -> int:
    spec.validate()
    out = Path(spec.out)
    write_json(out / "manifest.json", {"version": __version__, "spec": spec.to_json()})
    spec_json = spec.to_json()
    results = run_trials(
        _run_one_trial, [(spec_json, t) for t in range(spec.trials)], spec.workers
    )
    rows = [row for result in results for row in result["rows"]]
    write_json(out / "rows.json", rows)
    summary = {}
    for key in ("reward", "score", "cover_rate", "steps"):
        mean, std = mean_std([row[key] for row in rows])
        summary[key] = {"mean": round(mean, 6), "std": round(std, 6)}
    rates = {
        name: sum(1 for row in rows if name in row["achievements"]) / len(rows)
        for name in ACHIEVEMENTS
    }
    summary["aggregate_score"] = {
        "mean": round(score(rates).percent, 6),
        "std": 0.0,
    }
    write_json(out / "summary.json", {"rows": summary})

    print(f"{'trial':>5} {'iter':>4} {'reward':>8} {'score':>8} {'cover':>7} {'steps':>6} done")
    for row in rows:
        print(
            f"{row['trial']:>5} {row['iteration']:>4} {row['reward']:>8.2f} "
            f"{row['score']:>8.2f} {row['cover_rate']:>7.3f} {row['steps']:>6} "
            f"{'yes' if row['task_complete'] else 'no'}"
        )
    for key in ("reward", "score"):
        cell = summary[key]
        print(f"{key}: {cell['mean']:.3f} +- {cell['std']:.3f} over {len(rows)} episodes")
    return 0


def cmd_ablate_limit(spec: ExperimentSpec, limits: list[int]) -> int:
    spec.validate()
    if not limits:
        raise ValueError("provide at least one rule limit")
    if any(l < 1 for l in limits):
        raise ValueError("rule limits must be >= 1")
    config = load_config(spec.config_id)
    seeds = [spec.seed + t for t in range(spec.trials)]
    table = run_ablation(
        config, limits, seeds, spec.iterations,
        noise=spec.noise, replan_limit=spec.replan_limit, workers=spec.workers,
    )
    out = Path(spec.out)
    write_json(out / "manifest.json", {
        "version": __version__,
        "spec": {**spec.to_json(COMMAND_FIELDS["ablate-limit"]), "limits": limits},
    })
    write_json(out / "ablation.json", {"arms": table})
    print(f"{'arm':<14}{'reward':>18}{'score':>18}")
    for name, row in table.items():
        print(
            f"{name:<14}{row['reward_mean']:>10.2f} +-{row['reward_std']:<5.2f}"
            f"{row['score_mean']:>10.2f} +-{row['score_std']:<5.2f}"
        )
    return 0


def cmd_coverage_curve(spec: ExperimentSpec) -> int:
    spec.validate()
    config = load_config(spec.config_id, seed=spec.seed)
    if spec.proposer == "noisy":
        proposer = NoisyOracleProposer(config, corruption=spec.noise, seed=spec.seed)
    else:
        proposer = OracleProposer(config)
    curve = coverage_curve(config, proposer, spec.iterations)
    doc = {
        "series": list(curve.series),
        "defined": curve.defined,
        "misprediction_count": curve.misprediction_count,
        "final_rules": list(curve.final_rule_ids),
    }
    out = Path(spec.out)
    write_json(out / "manifest.json", {
        "version": __version__,
        "spec": spec.to_json(COMMAND_FIELDS["coverage-curve"]),
    })
    write_json(out / "curve.json", doc)
    for i, value in enumerate(curve.series):
        flag = "" if curve.defined else "  (no mispredictions: flagged zero)"
        print(f"iteration {i}: cover rate {value:.3f}{flag}")
    return 0


def cmd_inspect(path: str) -> int:
    print(inspect_path(path))
    return 0


def cmd_prune(
    rules_path: str, transitions_path: str, limit: int, out: str, kg_path: str | None
) -> int:
    rules = RuleSet.from_json(json.loads(Path(rules_path).read_text()), limit)
    kg = KnowledgeGraph.empty()
    if kg_path:
        kg = KnowledgeGraph.from_json(json.loads(Path(kg_path).read_text()))
    from .graphs import SceneGraph

    mispredictions: list[tuple[Transition, Outcome]] = []
    for i, line in enumerate(Path(transitions_path).read_text().splitlines()):
        if not line.strip():
            continue
        record = json.loads(line)
        if "meta" in record:
            continue
        if "predicted" not in record:
            raise SchemaError(transitions_path, f"line {i + 1}: missing field 'predicted'")
        transition = Transition.from_json(record)
        predicted = Outcome.from_json(record["predicted"])
        if predicted.success != transition.outcome.success:
            mispredictions.append((transition, predicted))
    matrix = build_matrix(
        rules.entries, mispredictions, kg, SceneGraph(), tool_tiers=DEFAULT_TOOL_TIERS
    )
    trace = prune_trace(matrix, limit)
    selected_ids = [s.rule_id for s in trace]
    survivors = [e for e in rules.entries if e.id in selected_ids]
    out_dir = Path(out)
    doc = matrix.to_json()
    doc["selection"] = [{"rule_id": s.rule_id, "gain": s.gain} for s in trace]
    doc["limit"] = limit
    write_json(out_dir / "coverage.json", doc)
    write_json(out_dir / "rules.json", RuleSet(tuple(survivors), limit).to_json())
    covered = sum(s.gain for s in trace)
    print(f"{len(mispredictions)} mispredictions, {len(rules)} candidate rules")
    for s in trace:
        print(f"  pick {s.rule_id:<28} gain {s.gain}")
    print(f"selected {len(trace)} rules covering {covered}/{len(mispredictions)}")
    return 0


# Every experiment flag, keyed by the ExperimentSpec field it sets.
FLAGS: dict[str, tuple[str, dict]] = {
    "config_id": ("--config", {"default": "default", "metavar": "CONFIG",
                               "help": "config id or JSON path"}),
    "seed": ("--seed", {"type": int, "default": 1}),
    "out": ("--out", {"default": None, "help": "output directory"}),
    "trials": ("--trials", {"type": int, "default": 1}),
    "iterations": ("--iterations", {"type": int, "default": 1}),
    "rule_limit": ("--rule-limit", {"type": int, "default": 6}),
    "replan_limit": ("--replan-limit", {"type": int, "default": 3}),
    "cadence": ("--cadence", {"choices": ("episode", "step"), "default": "episode"}),
    "proposer": ("--proposer", {"choices": ("oracle", "noisy", "backend", "none"),
                                "default": "oracle"}),
    "predictor": ("--predictor", {"choices": ("naive", "backend"), "default": "naive"}),
    "planner": ("--planner", {"choices": ("scripted", "backend"), "default": "scripted"}),
    "noise": ("--noise", {"type": float, "default": 0.3}),
    "target": ("--target", {
        "default": TARGET_CHAIN_ACHIEVEMENT,
        "help": "achievement ending the episode ('none' to run the full budget)",
    }),
    "workers": ("--workers", {"type": int, "default": 1}),
}
# The spec fields each experiment command reads.  A command accepts no other
# flag, and its manifest echoes only these.
COMMAND_FIELDS: dict[str, tuple[str, ...]] = {
    "simulate": tuple(FLAGS),
    "ablate-limit": ("config_id", "seed", "out", "trials", "iterations",
                     "replan_limit", "noise", "workers"),
    "coverage-curve": ("config_id", "seed", "out", "iterations", "proposer", "noise"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="worldalign",
        description="Rule-learning world-model alignment experiments",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment(command: str, help_text: str, **overrides: dict) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=help_text)
        for field in COMMAND_FIELDS[command]:
            flag, kwargs = FLAGS[field]
            p.add_argument(flag, dest=field, **{**kwargs, **overrides.get(field, {})})
        return p

    add_experiment("simulate", "run learning episodes and write artifacts")
    p_abl = add_experiment("ablate-limit", "compare rule-limit arms plus no-pruning")
    p_abl.add_argument("--limits", default="6,5,3,1",
                       help="comma-separated rule limits")
    add_experiment("coverage-curve", "cover rate over learning iterations",
                   proposer={"choices": ("oracle", "noisy")})

    p_inspect = sub.add_parser("inspect", help="pretty-print any artifact file")
    p_inspect.add_argument("path")

    p_prune = sub.add_parser("prune", help="offline pruning of a rules file")
    p_prune.add_argument("--rules", required=True)
    p_prune.add_argument("--transitions", required=True,
                         help="ndjson of transitions with a 'predicted' outcome field")
    p_prune.add_argument("--limit", type=int, default=6)
    p_prune.add_argument("--kg", default=None)
    p_prune.add_argument("--out", default="runs/prune")
    return parser


def _spec_from_args(args: argparse.Namespace, default_out: str) -> ExperimentSpec:
    values = {field: getattr(args, field) for field in COMMAND_FIELDS[args.command]}
    values["out"] = values["out"] or default_out
    if values.get("target") in ("none", ""):
        values["target"] = None
    return ExperimentSpec(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format=LOG_FORMAT,
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(_spec_from_args(args, "runs/simulate"))
        if args.command == "ablate-limit":
            limits = [int(x) for x in str(args.limits).split(",") if x.strip()]
            return cmd_ablate_limit(_spec_from_args(args, "runs/ablation"), limits)
        if args.command == "coverage-curve":
            return cmd_coverage_curve(_spec_from_args(args, "runs/curve"))
        if args.command == "inspect":
            return cmd_inspect(args.path)
        if args.command == "prune":
            return cmd_prune(args.rules, args.transitions, args.limit, args.out, args.kg)
    except (ValueError, UnsolvableConfig, SchemaError, ProposerUnavailable,
            BackendUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
