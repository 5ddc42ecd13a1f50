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
from .artifacts import SchemaError, inspect_path, read_json, read_text, write_json, write_text
from .core import DEFAULT_TOOL_TIERS, Outcome, Trajectory, Transition, classify_transitions
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
from .graphs import KnowledgeGraph, SceneGraph
from .learner import LearnerConfig, RuleSet, build_matrix, select_rules
from .proposers import NoisyOracleProposer, OracleProposer
from .world_model import BackendUnavailable


@dataclass
class ExperimentSpec:
    config_id: str = "default"
    seed: int = 1
    trials: int = 1
    iterations: int = 1
    out: str = "runs/out"
    rule_limit: int = LearnerConfig.limit
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
        """The manifest's spec echo: `fields` (all by default) except `out`,
        so that a manifest does not depend on where the run was written."""
        data = asdict(self)
        return {name: data[name] for name in fields or data if name != "out"}


def _target_product(target: str | None) -> str:
    if target and target.startswith("make_"):
        return target[len("make_"):]
    return "iron_pickaxe"


def _run_one_trial(spec: ExperimentSpec, trial_index: int) -> dict:
    """Top-level worker: runs one trial and writes its artifacts."""
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
        write_text(iter_dir / "predicted.ndjson", result.predicted.to_ndjson(result.real))
        write_json(iter_dir / "metrics.json", result.metrics)
        write_json(iter_dir / "rules.json", state.rules.to_json())
        write_json(iter_dir / "kg.json", state.kg.to_json())
        write_json(iter_dir / "sg.json", state.sg.to_json())
        write_json(
            iter_dir / "coverage.json", state.coverage.to_json(state.last_trace, spec.rule_limit)
        )
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
    results = run_trials(_run_one_trial, [(spec, t) for t in range(spec.trials)], spec.workers)
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
    print(inspect_path(out / "rows.json"))
    print(inspect_path(out / "summary.json"))
    return 0


def cmd_ablate_limit(spec: ExperimentSpec, limits: list[int]) -> int:
    spec.validate()
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
    print(inspect_path(out / "ablation.json"))
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
    print(inspect_path(out / "curve.json"))
    return 0


def cmd_inspect(path: str) -> int:
    print(inspect_path(path))
    return 0


def _read_trajectory(path: str, real: Trajectory | None = None) -> Trajectory:
    text = read_text(path)
    try:
        return Trajectory.from_ndjson(text, real)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(path, f"not a trajectory file ({exc!r})") from exc


def _joined_mispredictions(transitions_path: str) -> list[tuple[Transition, Outcome]]:
    """Mispredictions from records that carry their own `predicted` outcome."""
    mispredictions = []
    for i, line in enumerate(read_text(transitions_path).splitlines()):
        if not line.strip():
            continue
        record = json.loads(line)
        if "meta" in record:
            continue
        if "predicted" not in record:
            raise SchemaError(transitions_path, f"line {i + 1}: missing field 'predicted'")
        try:
            transition = Transition.from_json(record)
            predicted = Outcome.from_json(record["predicted"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                transitions_path, f"line {i + 1}: not a transition record ({exc!r})"
            ) from exc
        if predicted.success != transition.outcome.success:
            mispredictions.append((transition, predicted))
    return mispredictions


def cmd_prune(
    rules_path: str,
    transitions_path: str,
    limit: int,
    out: str,
    kg_path: str | None,
    predicted_path: str | None = None,
) -> int:
    rules = RuleSet.from_json(read_json(rules_path))
    kg = KnowledgeGraph.empty()
    if kg_path:
        kg = KnowledgeGraph.from_json(read_json(kg_path))
    if predicted_path is None:
        mispredictions = _joined_mispredictions(transitions_path)
    else:
        # A run's own pair of files: the real trajectory and the base
        # predictor's, a delta against it; a length or action mismatch is a
        # ValueError.
        real = _read_trajectory(transitions_path)
        mispredictions = classify_transitions(real, _read_trajectory(predicted_path, real))
    matrix = build_matrix(
        rules.entries, mispredictions, kg, SceneGraph(), tool_tiers=DEFAULT_TOOL_TIERS
    )
    kept, trace, _ = select_rules(rules.entries, matrix, limit)
    out_dir = Path(out)
    write_json(out_dir / "coverage.json", matrix.to_json(trace, limit))
    write_json(out_dir / "rules.json", RuleSet(kept).to_json())
    print(inspect_path(out_dir / "coverage.json"))
    return 0


# Every experiment flag, keyed by the ExperimentSpec field it sets.  A flag's
# default is that field's default; only `--out`'s is set per command.
FLAGS: dict[str, tuple[str, dict]] = {
    "config_id": ("--config", {"metavar": "CONFIG", "help": "config id or JSON path"}),
    "seed": ("--seed", {"type": int}),
    "out": ("--out", {"help": "output directory"}),
    "trials": ("--trials", {"type": int}),
    "iterations": ("--iterations", {"type": int}),
    "rule_limit": ("--rule-limit", {"type": int}),
    "replan_limit": ("--replan-limit", {"type": int}),
    "cadence": ("--cadence", {"choices": ("episode", "step")}),
    "proposer": ("--proposer", {"choices": ("oracle", "noisy", "backend", "none")}),
    "predictor": ("--predictor", {"choices": ("naive", "backend")}),
    "planner": ("--planner", {"choices": ("scripted", "backend")}),
    "noise": ("--noise", {"type": float}),
    "target": ("--target", {
        "help": "achievement ending the episode ('none' to run the full budget)",
    }),
    "workers": ("--workers", {"type": int}),
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
            kwargs = {"default": getattr(ExperimentSpec, field), **kwargs,
                      **overrides.get(field, {})}
            p.add_argument(flag, dest=field, **kwargs)
        return p

    add_experiment("simulate", "run learning episodes and write artifacts",
                   out={"default": "runs/simulate"})
    p_abl = add_experiment("ablate-limit", "compare rule-limit arms plus no-pruning",
                           out={"default": "runs/ablation"})
    p_abl.add_argument("--limits", default="6,5,3,1",
                       help="comma-separated rule limits")
    add_experiment("coverage-curve", "cover rate over learning iterations",
                   out={"default": "runs/curve"}, proposer={"choices": ("oracle", "noisy")})

    p_inspect = sub.add_parser("inspect", help="pretty-print any artifact file")
    p_inspect.add_argument("path")

    p_prune = sub.add_parser("prune", help="offline pruning of a rules file")
    p_prune.add_argument("--rules", required=True)
    p_prune.add_argument("--transitions", required=True,
                         help="ndjson of transitions with a 'predicted' outcome field, "
                              "or a run's trajectory.ndjson when --predicted is given")
    p_prune.add_argument("--predicted", default=None, metavar="PATH",
                         help="the run's predicted.ndjson for the --transitions trajectory")
    p_prune.add_argument("--limit", type=int, default=LearnerConfig.limit)
    p_prune.add_argument("--kg", default=None)
    p_prune.add_argument("--out", default="runs/prune")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    values = {field: getattr(args, field) for field in COMMAND_FIELDS[args.command]}
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
            return cmd_simulate(_spec_from_args(args))
        if args.command == "ablate-limit":
            limits = [int(x) for x in str(args.limits).split(",") if x.strip()]
            return cmd_ablate_limit(_spec_from_args(args), limits)
        if args.command == "coverage-curve":
            return cmd_coverage_curve(_spec_from_args(args))
        if args.command == "inspect":
            return cmd_inspect(args.path)
        if args.command == "prune":
            return cmd_prune(
                args.rules, args.transitions, args.limit, args.out, args.kg, args.predicted
            )
    except (ValueError, UnsolvableConfig, SchemaError, BackendUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
