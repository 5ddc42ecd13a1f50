"""The hooks count and check a small trial, and fail it when the program's
output is corrupted."""
import dataclasses
import json
from pathlib import Path

import pytest

import spec
import workloads
from worldalign import agent, core, experiments, learner
from worldalign.env import MarsWorld, make_config

ROOT = Path(__file__).resolve().parents[2]


def small_trial(cadence="episode"):
    config = dataclasses.replace(make_config("all_three"), max_steps=60)
    build = experiments.standard_components(
        rule_proposer_kind="noisy", cadence=cadence, proposer_seed=1
    )
    return experiments.run_learning_trial(config, 1, 2, build, target=None)


@pytest.fixture
def harness():
    h = workloads.Harness("ablation", seed=1, trace=True)
    h.install()
    yield h
    h.patcher.restore()


@pytest.mark.parametrize("cadence", ["episode", "step"])
def test_hooks_count_and_pass_a_clean_trial(harness, cadence):
    trial = small_trial(cadence)
    assert harness._problems == []
    steps = sum(e.metrics["steps"] for e in trial.episodes)
    assert len(harness.decisions) == harness.env_steps == steps
    assert harness.spans.calls["env.step"] == harness.spans.calls["agent.mpc_plan"] == steps
    assert harness.spans.calls["learner.ns_learning"] == len(harness.learns)
    assert harness.spans.calls["experiments.run_episode"] == 2
    assert all(harness.spans.self_s[name] >= 0 for name in harness.spans.self_s)


def test_a_reordered_selection_fails_its_episode(harness, monkeypatch):
    traced = learner.prune_trace
    longest = []

    def reversed_trace(matrix, limit):
        trace = traced(matrix, limit)
        longest.append(len(trace))
        return trace[::-1]

    monkeypatch.setattr(learner, "prune_trace", reversed_trace)
    small_trial()
    assert max(longest) >= 2
    assert harness._failed_ops
    assert any("recomputed greedy" in p for p in harness._problems)


def test_a_flipped_real_outcome_fails_its_episode(harness, monkeypatch):
    counted_step = MarsWorld.step

    def flipped(world, action):
        obs, reward, done, outcome = counted_step(world, action)
        if action.name == "mine" and not outcome.success:
            outcome = core.Outcome(True, outcome.feedback)
        return obs, reward, done, outcome

    monkeypatch.setattr(MarsWorld, "step", flipped)
    small_trial()
    assert any("asserts success=False" in p for p in harness._problems)


def test_an_uncounted_decision_fails_its_episode(harness, monkeypatch):
    timed_plan = agent.mpc_plan
    untimed_plan = next(original for owner, attr, original in harness.patcher._saved
                        if owner is agent and attr == "mpc_plan")
    calls = []

    def plan(*args, **kwargs):
        calls.append(1)
        return (untimed_plan if len(calls) == 5 else timed_plan)(*args, **kwargs)

    monkeypatch.setattr(agent, "mpc_plan", plan)
    small_trial()
    assert any("mpc decisions" in p for p in harness._problems)


def test_restore_puts_every_original_back():
    originals = {(id(owner), attr): vars(owner)[attr] for _, owner, attr in workloads.layer_targets()}
    h = workloads.Harness("step_learning", seed=1, trace=True)
    h.install()
    assert any(vars(owner)[attr] is not originals[(id(owner), attr)]
               for _, owner, attr in workloads.layer_targets())
    h.patcher.restore()
    for _, owner, attr in workloads.layer_targets():
        assert vars(owner)[attr] is originals[(id(owner), attr)]


def test_benchmark_json_lists_what_a_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.per_layer_units()


def test_a_raising_round_fails_all_its_operations(monkeypatch):
    h = workloads.Harness("step_learning", seed=1, trace=False)
    monkeypatch.setattr(h, "_step_learning", lambda: 1 / 0)
    result = h.run_round()
    assert result.attempted == result.failed == spec.STEP_EPISODES


def test_a_round_that_skips_operations_fails_them_all(monkeypatch):
    h = workloads.Harness("step_learning", seed=1, trace=False)
    monkeypatch.setattr(h, "_step_learning", lambda: None)
    monkeypatch.setattr(h, "_step_checks", lambda output: [])
    result = h.run_round()
    assert result.attempted == result.failed == spec.STEP_EPISODES
