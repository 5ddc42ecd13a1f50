"""Experiment protocols on top of the episode loop.

Everything here is deterministic given (config, seeds): the probe policy is
an obs-driven script, trials derive their episode seeds from the trial seed,
and component stacks are rebuilt per episode from those seeds.
"""
from __future__ import annotations

import logging
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .agent import EpisodeComponents, EpisodeResult, ScriptedPlanner, run_episode
from .core import Action, Observation, Trajectory, Transition, classify_transitions
from .env.config import TARGET_CHAIN_ACHIEVEMENT, WorldConfig
from .env.world import DIR_DELTAS, WALKABLE, MarsWorld, apply_effect
from .graphs import SceneGraph
from .learner import LearnerConfig, LearnerState, cover_rate, ns_learning
from .proposers import NoisyOracleProposer, OracleProposer, Proposer
from .world_model import BasePredictor, NaivePrior

_DIRS = ("east", "south", "west", "north")
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


class ProbePolicy:
    """Survey script that deliberately mixes sound and doomed actions so a
    context-blind predictor accumulates mispredictions.  New failure kinds
    come online phase by phase, which is what makes learning curves rise
    stepwise instead of jumping."""

    def __init__(self, phase_len: int = 20):
        self.phase_len = phase_len

    def action(self, step: int, obs: Observation) -> Action:
        phase = min(step // self.phase_len, 4)
        slot = step % 4
        if phase == 0:
            return (self._explore(step), self._far_mine(obs),
                    self._near_mine(obs, step), self._near_mine(obs, step))[slot]
        if phase == 1:
            return (self._explore(step), self._attack_far(),
                    self._near_mine(obs, step), self._far_mine(obs))[slot]
        if phase == 2:
            return (self._face_blocker(obs, step), self._place_table(obs, step),
                    self._near_mine(obs, step), self._place_table(obs, step))[slot]
        if phase == 3:
            return (Action("sleep", {}), self._explore(step),
                    Action("sleep", {}), self._near_mine(obs, step))[slot]
        return (Action("mine", {"block_name": "plant", "amount": 1}), self._explore(step),
                self._far_mine(obs), self._attack_far())[slot]

    @staticmethod
    def _explore(step: int) -> Action:
        return Action("explore", {"direction": _DIRS[(step // 4) % 4], "steps": 2})

    @staticmethod
    def _far_mine(obs: Observation) -> Action:
        # A tool-free block that is not within reach: the optimistic prior
        # calls this a success, the environment does not.
        for block in ("tree", "water"):
            if block not in obs.near_objects:
                return Action("mine", {"block_name": block, "amount": 1})
        return Action("mine", {"block_name": "grass", "amount": 1})

    @staticmethod
    def _near_mine(obs: Observation, step: int) -> Action:
        for block in ("tree", "grass"):
            if block in obs.near_objects:
                return Action("mine", {"block_name": block, "amount": 1})
        return Action("explore", {"direction": _DIRS[step % 4], "steps": 1})

    @staticmethod
    def _attack_far() -> Action:
        return Action("attack", {"creature": "zombie", "amount": 1})

    @staticmethod
    def _face_blocker(obs: Observation, step: int) -> Action:
        cells: dict[tuple[int, int], str] = {}
        for vis in obs.visible_objects:
            cells.setdefault((vis.x, vis.y), vis.type)
        for direction, (dx, dy) in DIR_DELTAS.items():
            cell = cells.get((dx, dy))
            if cell is not None and cell not in WALKABLE:
                return Action("explore", {"direction": direction, "steps": 1})
        return Action("explore", {"direction": _DIRS[step % 4], "steps": 1})

    @staticmethod
    def _place_table(obs: Observation, step: int) -> Action:
        if obs.inventory_count("wood") >= 2:
            return Action("place", {"block_name": "table"})
        for block in ("tree", "grass"):
            if block in obs.near_objects:
                return Action("mine", {"block_name": block, "amount": 1})
        return Action("explore", {"direction": _DIRS[step % 4], "steps": 1})


def run_probe(
    config: WorldConfig, predictor: BasePredictor, steps: int, phase_len: int = 20
) -> tuple[Trajectory, Trajectory]:
    """Roll the probe policy, recording real and predicted trajectories."""
    world = MarsWorld(config)
    policy = ProbePolicy(phase_len)
    tables = config.base_tables()  # what an unaligned predictor believes
    obs = world.observe()
    real: list[Transition] = []
    predicted: list[Transition] = []
    for step in range(steps):
        action = policy.action(step, obs)
        base = predictor.predict(obs, action)
        estimate = apply_effect(obs, action, base.success, tables)
        next_obs, _, done, outcome = world.step(action)
        real.append(Transition(obs, action, outcome, next_obs))
        predicted.append(Transition(obs, action, base, estimate))
        obs = next_obs
        if done:
            break
    meta = (config.seed, config.config_id)
    return Trajectory(tuple(real), *meta), Trajectory(tuple(predicted), *meta)


@dataclass(frozen=True)
class CurveResult:
    series: tuple[float, ...]  # index 0 = before any learning
    defined: bool  # False when the frozen misprediction set was empty
    misprediction_count: int
    final_rule_ids: tuple[str, ...]


def coverage_curve(
    config: WorldConfig,
    proposer: Proposer,
    iterations: int,
) -> CurveResult:
    """Cover-rate trajectory over learning iterations against a frozen
    misprediction dataset built with the unaligned naive prior."""
    learner_config = LearnerConfig()
    window = learner_config.window
    real, predicted = run_probe(config, NaivePrior(config), iterations * window, window)
    frozen = classify_transitions(real, predicted)

    state = LearnerState()
    state.sg = SceneGraph.initial(MarsWorld(config).locations())
    tiers = config.tool_tiers
    series = [0.0]
    for i in range(iterations):
        lo, hi = i * window, (i + 1) * window
        pred_slice = Trajectory(predicted.transitions[lo:hi], config.seed, config.config_id)
        real_slice = Trajectory(real.transitions[lo:hi], config.seed, config.config_id)
        if not real_slice.transitions:
            series.append(series[-1])
            continue
        ns_learning(pred_slice, real_slice, state, proposer, learner_config, tool_tiers=tiers)
        rate = cover_rate(state.rules, frozen, state.kg, state.sg, tool_tiers=tiers)
        series.append(rate.value if rate.defined else 0.0)
    return CurveResult(
        series=tuple(series),
        defined=bool(frozen),
        misprediction_count=len(frozen),
        final_rule_ids=tuple(e.id for e in state.rules.entries),
    )


ComponentBuilder = Callable[[WorldConfig], EpisodeComponents]
EpisodeHook = Callable[[int, WorldConfig, EpisodeResult, LearnerState], None]


def standard_components(
    *,
    rule_proposer_kind: str = "oracle",  # oracle | noisy | backend | none
    predictor_kind: str = "naive",  # naive | backend
    planner_kind: str = "scripted",  # scripted | backend
    noise: float = 0.3,
    limit: int = 6,
    prune: bool = True,
    replan_limit: int = 3,
    cadence: str = "episode",
    target_product: str = "iron_pickaxe",
    proposer_seed: int = 0,
    client=None,  # text-completion client for the backend seats
) -> ComponentBuilder:
    """Builder for the per-episode component stack used by experiments."""

    def make_client():
        if client is not None:
            return client
        from .backend import CompletionClient

        return CompletionClient()

    def build(config: WorldConfig) -> EpisodeComponents:
        proposer: Proposer | None
        if rule_proposer_kind == "oracle":
            proposer = OracleProposer(config)
        elif rule_proposer_kind == "noisy":
            proposer = NoisyOracleProposer(config, corruption=noise, seed=proposer_seed)
        elif rule_proposer_kind == "backend":
            from .backend import load_prompt
            from .proposers import ExternalBackendProposer

            proposer = ExternalBackendProposer(
                make_client(), load_prompt("rule_induction"), load_prompt("kg_induction")
            )
        elif rule_proposer_kind == "none":
            proposer = None
        else:
            raise ValueError(f"unknown rule proposer kind {rule_proposer_kind!r}")

        if predictor_kind == "naive":
            predictor = NaivePrior(config)
        elif predictor_kind == "backend":
            from .backend import load_prompt
            from .world_model import ExternalBackendPredictor

            predictor = ExternalBackendPredictor(make_client(), load_prompt("outcome_prediction"))
        else:
            raise ValueError(f"unknown predictor kind {predictor_kind!r}")

        if planner_kind == "scripted":
            planner = ScriptedPlanner(config, target=target_product)
        elif planner_kind == "backend":
            from .agent import ExternalBackendPlanner
            from .backend import load_prompt

            planner = ExternalBackendPlanner(make_client(), load_prompt("action_proposal"))
        else:
            raise ValueError(f"unknown planner kind {planner_kind!r}")

        return EpisodeComponents(
            predictor=predictor,
            planner=planner,
            rule_proposer=proposer,
            learner_config=LearnerConfig(limit=limit, prune=prune),
            cadence=cadence,
            replan_limit=replan_limit,
        )

    return build


def episode_seed(trial_seed: int, iteration: int) -> int:
    return trial_seed * 101 + iteration


@dataclass
class TrialResult:
    episodes: list[EpisodeResult]
    state: LearnerState

    def final_metrics(self) -> dict:
        return self.episodes[-1].metrics if self.episodes else {}

    def any_task_complete(self) -> bool:
        return any(e.metrics["task_complete"] for e in self.episodes)


def run_learning_trial(
    base_config: WorldConfig,
    trial_seed: int,
    iterations: int,
    build: ComponentBuilder,
    *,
    target: str | None = TARGET_CHAIN_ACHIEVEMENT,
    on_episode: EpisodeHook | None = None,
) -> TrialResult:
    """Run `iterations` episodes with shared learner state; each episode gets
    a fresh world layout derived from the trial seed.

    `on_episode(iteration, config, result, state)` runs after each episode,
    before the next starts, so what it writes survives a later failure."""
    state = LearnerState()
    episodes: list[EpisodeResult] = []
    for i in range(iterations):
        config = base_config.with_seed(episode_seed(trial_seed, i))
        result = run_episode(config, state, build(config), target=target)
        episodes.append(result)
        if on_episode is not None:
            on_episode(i, config, result, state)
    return TrialResult(episodes, state)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class AblationArm:
    name: str
    limit: int
    prune: bool


def ablation_arms(limits: Sequence[int]) -> list[AblationArm]:
    arms = [AblationArm(f"l={l}", l, True) for l in limits]
    arms.append(AblationArm("no_pruning", 10_000, False))
    return arms


def run_trials(fn: Callable, calls: Sequence[tuple], workers: int) -> list:
    """`fn(*args)` for each args tuple, results in submission order.

    With `workers > 1` the calls run in a spawn-context process pool, so
    `fn` must be a top-level function and each call independent.  A spawned
    worker starts with default logging, so it is given this process's level."""
    if workers <= 1:
        return [fn(*args) for args in calls]
    spawn = multiprocessing.get_context("spawn")
    log_setup = partial(logging.basicConfig, level=logging.getLogger().level, format=LOG_FORMAT)
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn, initializer=log_setup) as pool:
        futures = [pool.submit(fn, *args) for args in calls]
        return [f.result() for f in futures]


def _ablation_trial(
    base_config: WorldConfig,
    arm: AblationArm,
    trial_seed: int,
    iterations: int,
    noise: float,
    replan_limit: int,
) -> tuple[float, float]:
    """One (arm, seed) cell of the ablation: the final episode's reward and
    score.  Top-level so a worker process can run it."""
    build = standard_components(
        rule_proposer_kind="noisy", noise=noise, limit=arm.limit,
        prune=arm.prune, replan_limit=replan_limit, proposer_seed=trial_seed,
    )
    trial = run_learning_trial(base_config, trial_seed, iterations, build, target=None)
    metrics = trial.final_metrics()
    return metrics["reward"], metrics["score"]


def run_ablation(
    base_config: WorldConfig,
    limits: Sequence[int],
    seeds: Sequence[int],
    iterations: int,
    *,
    noise: float = 0.3,
    replan_limit: int = 3,
    workers: int = 1,
) -> dict[str, dict]:
    """Table-4 style comparison: one full experiment per rule-limit arm plus
    a no-pruning arm (validity drop and greedy selection both skipped).

    With `workers > 1` the (arm, seed) trials run in a process pool; each
    trial is independent and deterministic, so the table is the same."""
    if not limits:
        raise ValueError("limits must be non-empty")
    if any(l < 1 for l in limits):
        raise ValueError("rule limits must be >= 1")
    arms = ablation_arms(limits)
    calls = [
        (base_config, arm, seed, iterations, noise, replan_limit)
        for arm in arms
        for seed in seeds
    ]
    results = run_trials(_ablation_trial, calls, workers)
    table: dict[str, dict] = {}
    for a, arm in enumerate(arms):
        arm_results = results[a * len(seeds) : (a + 1) * len(seeds)]
        rewards = [reward for reward, _ in arm_results]
        scores = [score for _, score in arm_results]
        reward_mean, reward_std = mean_std(rewards)
        score_mean, score_std = mean_std(scores)
        table[arm.name] = {
            "limit": arm.limit if arm.prune else None,
            "prune": arm.prune,
            "reward_mean": round(reward_mean, 6),
            "reward_std": round(reward_std, 6),
            "score_mean": round(score_mean, 6),
            "score_std": round(score_std, 6),
            "rewards": [round(r, 6) for r in rewards],
        }
    return table


@dataclass(frozen=True)
class MisalignmentOutcome:
    no_rules_successes: int
    with_rules_successes: int
    trials: int


def run_misalignment(
    base_config: WorldConfig,
    seeds: Sequence[int],
    iterations: int = 5,
    *,
    replan_limit: int = 3,
) -> MisalignmentOutcome:
    """End-to-end correction check on a modified world: the default-prior
    agent without learning vs. the same agent with the learning loop, same
    seeds and episode budgets for both arms."""
    no_rules = 0
    with_rules = 0
    for trial_seed in seeds:
        bare = run_learning_trial(
            base_config, trial_seed, iterations,
            standard_components(rule_proposer_kind="none", replan_limit=replan_limit),
        )
        if bare.any_task_complete():
            no_rules += 1
        learned = run_learning_trial(
            base_config, trial_seed, iterations,
            standard_components(rule_proposer_kind="oracle", replan_limit=replan_limit),
        )
        if learned.any_task_complete():
            with_rules += 1
    return MisalignmentOutcome(no_rules, with_rules, len(seeds))
