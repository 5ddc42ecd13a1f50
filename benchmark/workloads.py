"""The three closed-loop workloads, the hooks that time and check them, and
the metrics a run reports.

A run repeats whole rounds of its workload until `--seconds` have passed
(at least two rounds) and reports medians over the rounds.  The program
runs in this process, single-threaded, with no worker pool.  Time spent in
the benchmark's own checks and calibration is left out of every timing,
and every time is scaled to the reference machine speed (`calibrate.py`).
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import spec
import stats
from calibrate import Calibration
from tracing import Patcher, Spans, timed

from worldalign import agent, artifacts, cli, core, experiments, learner, proposers, world_model
from worldalign.env import MarsWorld, make_config

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"  # listed in the root .gitignore
MIN_ROUNDS = 2  # the artifact trees of two rounds are compared
SETUP_SAMPLES = 11


def layer_targets() -> list[tuple[str, object, str]]:
    """(metric prefix, owner, attribute) for every wrapped layer function,
    wrapped where its caller looks it up."""
    evaluate_module = importlib.import_module("worldalign.dsl.evaluate")
    return [
        ("env.step", MarsWorld, "step"),
        ("env.observe", MarsWorld, "observe"),
        ("env.world_init", MarsWorld, "__init__"),
        ("agent.mpc_plan", agent, "mpc_plan"),
        ("agent.propose", agent.ScriptedPlanner, "propose"),
        ("world_model.predict", world_model.NaivePrior, "predict"),
        ("world_model.map_execute", agent, "map_execute"),
        ("dsl.evaluate", evaluate_module, "evaluate"),  # from evaluate_all
        ("dsl.evaluate", learner, "evaluate"),  # from coverage, drop_invalid
        ("dsl.evaluate_all", world_model, "evaluate_all"),
        ("dsl.parse", learner, "parse"),
        ("learner.ns_learning", agent, "ns_learning"),
        ("learner.induce_rules", learner, "induce_rules"),
        ("learner.drop_invalid", learner, "drop_invalid"),
        ("learner.build_matrix", learner, "build_matrix"),
        ("learner.prune_trace", learner, "prune_trace"),
        ("learner.cover_rate", agent, "cover_rate"),
        ("core.classify_transitions", learner, "classify_transitions"),
        ("core.digest", core.Transition, "digest"),
        ("graphs.sg_update", learner, "sg_update"),
        ("graphs.kg_induce", learner, "kg_induce"),
        ("graphs.kg_merge", learner, "kg_merge"),
        ("proposers.propose_rules", proposers.OracleProposer, "propose_rules"),
        ("proposers.propose_rules", proposers.NoisyOracleProposer, "propose_rules"),
        ("proposers.propose_kg_edges", proposers.OracleProposer, "propose_kg_edges"),
        ("proposers.propose_kg_edges", proposers.NoisyOracleProposer, "propose_kg_edges"),
        ("artifacts.to_ndjson", core.Trajectory, "to_ndjson"),
        ("artifacts.write", cli, "write_json"),
        ("artifacts.write", cli, "write_text"),
        ("artifacts.inspect", artifacts, "inspect_path"),
        ("cli.build_matrix", cli, "build_matrix"),
        ("experiments.run_episode", experiments, "run_episode"),
        ("experiments.run_episode", cli, "run_episode"),
    ]


LAYERS = tuple(dict.fromkeys(name for name, _, _ in layer_targets()))
RATIOS = {
    "agent.accept_ratio": "ratio",
    "learner.rules_kept_ratio": "ratio",
    "artifacts.bytes_written": "B",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(RATIOS)
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "env_steps_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "learn_p50_ms": "ms",
    "learn_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Trial:
    """One learner state's lifetime, as seen from its episodes."""

    limit: int | None
    prune: bool
    final_reward: float = 0.0
    rules_kept: int = 0


@dataclass
class Round:
    """One round's figures; times are raw seconds, which the report scales.
    Only summaries are kept, so memory does not grow with the rounds."""

    scale: float  # reference machine speed / this round's speed
    wall_s: float
    env_steps: int
    decision_p50: float
    decision_tail: float
    learn_p50: float
    learn_tail: float
    attempted: int
    failed: int
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)


class Harness:
    def __init__(self, workload: str, seed: int, trace: bool):
        if workload not in spec.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(spec.WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.spans = Spans()
        self.patcher = Patcher()
        self.decisions: list[float] = []
        self.learns: list[float] = []
        self.env_steps = 0
        self._ground_truth: dict[str, checks.GroundTruth] = {}
        self._matrices: list = []
        self._tree_digest: str | None = None
        self._begin()

    # -- hooks ---------------------------------------------------------------
    def install(self) -> None:
        wrap = self.patcher.wrap
        if self.trace:
            for name, owner, attr in layer_targets():
                wrap(owner, attr, lambda fn, name=name: self.spans.wrap(name, fn))
            for owner in (proposers.OracleProposer, proposers.NoisyOracleProposer):
                wrap(owner, "propose_rules", self._count_proposed)
            for attr in ("write_json", "write_text"):
                wrap(cli, attr, self._count_bytes)
        wrap(agent, "mpc_plan", lambda fn: timed(self.decisions, fn))
        wrap(agent, "ns_learning", self._learning_hook)
        wrap(learner, "build_matrix", self._matrix_hook)
        wrap(MarsWorld, "step", self._step_counter)
        wrap(experiments, "run_episode", self._episode_hook)
        wrap(cli, "run_episode", self._episode_hook)

    def _step_counter(self, fn):
        def step(world, action):
            self.env_steps += 1
            self._calibrate()
            return fn(world, action)

        return step

    def _calibrate(self) -> None:
        if self.calibration.due():
            with self.spans.excluded():
                self.calibration.measure()

    def _matrix_hook(self, fn):
        def build_matrix(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            self._matrices.append(matrix)
            return matrix

        return build_matrix

    def _learning_hook(self, fn):
        def ns_learning(pred, real, state, proposer, config, **kwargs):
            self._matrices = []
            started = perf_counter()
            result = fn(pred, real, state, proposer, config, **kwargs)
            self.learns.append(perf_counter() - started)
            with self.spans.excluded():
                self._fail(self._op, self._update_problems(state, config, result))
            return result

        return ns_learning

    def _episode_hook(self, fn):
        def run_episode(config, state, components, **kwargs):
            self._op = op = self._next_op()
            marks = (len(self.decisions), len(self.learns), self.env_steps)
            result = fn(config, state, components, **kwargs)
            with self.spans.excluded():
                self._fail(op, self._episode_problems(config, state, components, result, marks))
            return result

        return run_episode

    def _count_proposed(self, fn):
        def propose_rules(*args, **kwargs):
            self._proposing += 1
            try:
                texts = fn(*args, **kwargs)
            finally:
                self._proposing -= 1
            if not self._proposing:  # the noisy proposer's inner oracle call is not a proposal
                self.rules_proposed += len(texts)
            return texts

        return propose_rules

    def _count_bytes(self, fn):
        def write(path, payload):
            fn(path, payload)
            with self.spans.excluded():
                self.bytes_written += Path(path).stat().st_size

        return write

    # -- per-operation checks --------------------------------------------------
    def _update_problems(self, state, config, result) -> list[str]:
        if not config.prune:
            if state.last_trace or self._matrices:
                return ["a no-pruning update built a matrix or selected rules"]
            return []
        if len(self._matrices) != 1:
            return [f"{len(self._matrices)} coverage matrices built in one pruned update"]
        matrix = self._matrices[0]
        return checks.selection_problems(
            matrix.rule_ids, matrix.a, config.limit,
            [(step.rule_id, step.gain) for step in state.last_trace],
            [entry.id for entry in result.entries],
        )

    def _episode_problems(self, config, state, components, result, marks) -> list[str]:
        decisions = len(self.decisions) - marks[0]
        learns = len(self.learns) - marks[1]
        env_steps = self.env_steps - marks[2]
        steps = result.metrics["steps"]
        if components.rule_proposer is None:
            expected_learns = 0
        elif components.cadence == "step":
            expected_learns = steps
        else:
            expected_learns = 1 if steps else 0
        problems = checks.episode_problems(
            steps=steps, transitions=len(result.real), decisions=decisions,
            env_steps=env_steps, learns=learns, expected_learns=expected_learns,
            max_steps=spec.MAX_STEPS,
        )
        if config.config_id not in self._ground_truth:
            self._ground_truth[config.config_id] = checks.GroundTruth(config)
        problems += self._ground_truth[config.config_id].problems(result.real.transitions)

        if state is not self._trial_state:
            self._trial_state = state
            lc = components.learner_config
            self.trials.append(Trial(lc.limit if lc.prune else None, lc.prune))
        self.trials[-1].final_reward = result.metrics["reward"]
        self.trials[-1].rules_kept = len(state.rules)
        return problems

    # -- rounds ----------------------------------------------------------------
    def _begin(self) -> None:
        self.decisions.clear()
        self.learns.clear()
        self.env_steps = 0
        self.spans.reset()
        self.calibration = Calibration()
        self.trials: list[Trial] = []
        self._trial_state = None
        self._ops = 0
        self._op = -1
        self._failed_ops: set[int] = set()
        self._problems: list[str] = []
        self._proposing = 0
        self.rules_proposed = 0
        self.bytes_written = 0

    def _next_op(self) -> int:
        self._ops += 1
        return self._ops - 1

    def _fail(self, op: int, problems: list[str]) -> None:
        if problems:
            self._failed_ops.add(op)
            self._problems.extend(f"operation {op}: {p}" for p in problems)

    def ops_per_round(self) -> int:
        if self.workload == "ablation":
            arms = len(spec.ABLATION_LIMITS) + 1
            return arms * len(spec.ABLATION_TRIAL_SEEDS) * spec.ABLATION_ITERATIONS
        if self.workload == "step_learning":
            return spec.STEP_EPISODES
        return spec.SIM_TRIALS * spec.SIM_ITERATIONS + spec.sim_expected_files()

    def run_round(self) -> Round:
        body, check = {
            "ablation": (self._ablation, self._ablation_checks),
            "step_learning": (self._step_learning, self._step_checks),
            "simulate_artifacts": (self._simulate, self._simulate_checks),
        }[self.workload]
        shutil.rmtree(OUT / self.workload, ignore_errors=True)
        gc.collect()
        self._begin()
        self.calibration.measure()
        started = perf_counter()
        try:
            output = body()
        except Exception:  # a raising operation fails the rest of its round
            traceback.print_exc(file=sys.stderr)
            output, raised = None, True
        else:
            raised = False
        wall_s = perf_counter() - started - self.spans.excluded_s
        calls, self_s = dict(self.spans.calls), dict(self.spans.self_s)
        self.calibration.measure()

        round_problems = ["the round raised"] if raised else check(output)
        if not raised and self._ops != self.ops_per_round():
            round_problems.append(f"{self._ops} operations ran, expected {self.ops_per_round()}")
        for problem in (round_problems + self._problems)[:20]:
            print(f"{self.workload}: {problem}", file=sys.stderr)
        attempted = self.ops_per_round()
        failed = attempted if round_problems else len(self._failed_ops)

        ratios = {}
        if self.trace:
            proposals = calls.get("agent.propose", 0)
            ratios["agent.accept_ratio"] = calls.get("agent.mpc_plan", 0) / proposals if proposals else 0.0
            kept = sum(trial.rules_kept for trial in self.trials)
            ratios["learner.rules_kept_ratio"] = kept / self.rules_proposed if self.rules_proposed else 0.0
            ratios["artifacts.bytes_written"] = float(self.bytes_written)
        return Round(
            self.calibration.scale(), wall_s, self.env_steps,
            *_p50_and_tail(self.decisions), *_p50_and_tail(self.learns),
            attempted, failed, calls, self_s, ratios,
        )

    # -- ablation ----------------------------------------------------------------
    def _ablation(self):
        seeds = list(spec.ABLATION_TRIAL_SEEDS)
        random.Random(self.seed).shuffle(seeds)
        return experiments.run_ablation(
            make_config(spec.ABLATION_CONFIG), spec.ABLATION_LIMITS, seeds,
            spec.ABLATION_ITERATIONS, noise=spec.ABLATION_NOISE,
        )

    def _ablation_checks(self, table) -> list[str]:
        final: dict[tuple, list[float]] = {}
        for trial in self.trials:
            final.setdefault((trial.limit, trial.prune), []).append(trial.final_reward)
        return checks.ablation_problems(final, table)

    # -- step_learning -------------------------------------------------------------
    def _step_learning(self):
        build = experiments.standard_components(
            rule_proposer_kind="noisy", noise=spec.STEP_NOISE, cadence="step",
            proposer_seed=spec.STEP_TRIAL_SEED,
        )
        return experiments.run_learning_trial(
            make_config(spec.STEP_CONFIG), spec.STEP_TRIAL_SEED, spec.STEP_EPISODES,
            build, target=None,
        )

    def _step_checks(self, trial) -> list[str]:
        state = trial.state
        problems = checks.misprediction_problems(
            ((e.real, e.predicted) for e in trial.episodes), state.mispredictions
        )
        problems += checks.wrong_bits(
            state.rules.rules, state.history, state.kg, state.sg,
            make_config(spec.STEP_CONFIG).effective().tool_tiers,
        )
        return problems

    # -- simulate_artifacts ------------------------------------------------------------
    def _simulate(self) -> dict[Path, int]:
        out = OUT / self.workload
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(spec.simulate_argv(str(out)))
        if code != 0:
            raise RuntimeError(f"simulate exited with code {code}")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        random.Random(self.seed).shuffle(files)
        file_ops = {}
        for path in files:
            self._calibrate()
            op = file_ops[path] = self._next_op()
            try:
                problems = checks.rendered_problems(artifacts.inspect_path(path))
            except Exception as exc:  # any failure to render fails this read-back
                problems = [f"{path.name}: inspect raised {exc!r}"]
            self._fail(op, problems)
        return file_ops

    def _simulate_checks(self, file_ops: dict[Path, int]) -> list[str]:
        out = OUT / self.workload
        for path, op in file_ops.items():
            if path.name == "trajectory.ndjson":
                self._fail(op, [f"{path}: {p}" for p in checks.trajectory_problems(path.read_text())])
        rows = json.loads((out / "rows.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        problems = checks.summary_problems(rows, summary)
        problems += checks.chain_problems(
            rows, spec.SIM_TRIALS, spec.SIM_ITERATIONS, spec.SIM_CHAIN_NEEDED
        )
        digest = checks.tree_digest(out)
        if self._tree_digest is None:
            self._tree_digest = digest
        elif digest != self._tree_digest:
            problems.append("the artifact tree differs from the first round's")
        return problems


def _p50_and_tail(samples: list[float]) -> tuple[float, float]:
    if len(samples) < stats.MIN_TAIL_SAMPLES:  # only in a round that raised
        return 0.0, 0.0
    return stats.median(samples), stats.tail(samples)


def setup_times(workload: str) -> tuple[list[float], float]:
    """Set-up timed in fresh interpreters, so every sample pays the
    imports; with the calibration scale measured between them."""
    times = []
    calibration = Calibration()
    for _ in range(SETUP_SAMPLES):
        for _ in range(3):
            calibration.measure()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times, calibration.scale()


def report(rounds: list[Round], setup: tuple[list[float], float], trace: bool) -> dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    calls_repeat = all(r.calls == rounds[0].calls for r in rounds)
    if not calls_repeat:
        print("call counts differ between rounds", file=sys.stderr)
    median = stats.median
    if trace:
        values: dict[str, float] = {}
        for name in LAYERS:
            values[f"{name}.calls"] = rounds[0].calls.get(name, 0)
            values[f"{name}.self_s"] = median([r.scale * r.self_s.get(name, 0.0) for r in rounds])
        for name in RATIOS:
            values[name] = rounds[0].ratios[name]
        units = per_layer_units()
    else:
        setup_samples, setup_scale = setup
        values = {
            "setup_s": setup_scale * median(setup_samples),
            "wall_s": median([r.scale * r.wall_s for r in rounds]),
            "env_steps_per_s": median([r.env_steps / (r.scale * r.wall_s) for r in rounds]),
            "decision_p50_ms": 1e3 * median([r.scale * r.decision_p50 for r in rounds]),
            "decision_tail_ms": 1e3 * median([r.scale * r.decision_tail for r in rounds]),
            "learn_p50_ms": 1e3 * median([r.scale * r.learn_p50 for r in rounds]),
            "learn_tail_ms": 1e3 * median([r.scale * r.learn_tail for r in rounds]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0 and calls_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    harness = Harness(workload, seed, trace)
    setup = ([], 1.0) if trace else setup_times(workload)
    if setup[0]:
        print(f"set-up: raw median {stats.median(setup[0]):.4f} s, scale {setup[1]:.4f}",
              file=sys.stderr)
    harness.install()
    rounds: list[Round] = []
    try:
        started = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - started < seconds:
            rounds.append(harness.run_round())
            last = rounds[-1]
            print(f"round {len(rounds)}: raw {last.wall_s:.4f} s, scale {last.scale:.4f}, "
                  f"{last.env_steps} env steps", file=sys.stderr)
    finally:
        harness.patcher.restore()
    return report(rounds, setup, trace)
