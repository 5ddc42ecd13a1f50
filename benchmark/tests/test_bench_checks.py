"""Each output check passes a correct output and rejects a corrupted one."""
import itertools
import json
import math
import random

import pytest

import checks
from worldalign.core import Action, Observation, Outcome, Status, Trajectory, Transition, VisibleObject
from worldalign.env import MarsWorld, make_config
from worldalign.graphs import SceneGraph
from worldalign.learner import CoverageMatrix, prune_trace


def random_matrix(rng: random.Random, rules: int, items: int, density: float):
    return [[rng.random() < density for _ in range(items)] for _ in range(rules)]


def covered(rows, picks) -> int:
    return len({j for i in picks for j, cell in enumerate(rows[i]) if cell})


# -- the independent greedy ---------------------------------------------------

@pytest.mark.parametrize("seed", range(200))
def test_greedy_against_brute_force(seed):
    rng = random.Random(seed)
    rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 9), rng.uniform(0.1, 0.7))
    limit = rng.randint(1, len(rows))
    trace = checks.greedy_trace(rows, limit)

    # every pick is the best marginal gain among the rules left, lowest index on ties
    for step, (index, gain) in enumerate(trace):
        before = [i for i, _ in trace[:step]]
        gains = {
            i: covered(rows, before + [i]) - covered(rows, before)
            for i in range(len(rows)) if i not in before
        }
        assert gain == max(gains.values()) > 0
        assert index == min(i for i, g in gains.items() if g == gain)
    # it stops only at the limit or when no rule adds anything
    picked = [i for i, _ in trace]
    if len(trace) < limit:
        assert all(covered(rows, picked + [i]) == covered(rows, picked) for i in range(len(rows)))

    best = max(
        covered(rows, subset)
        for k in range(limit + 1)
        for subset in itertools.combinations(range(len(rows)), k)
    )
    assert covered(rows, picked) >= (1 - 1 / math.e) * best


@pytest.mark.parametrize("seed", range(50))
def test_greedy_is_exact_on_disjoint_covers(seed):
    rng = random.Random(seed)
    items = rng.randint(1, 12)
    owner = [rng.randrange(5) for _ in range(items)]
    rows = [[owner[j] == i for j in range(items)] for i in range(5)]
    limit = rng.randint(1, 5)
    sizes = sorted((sum(row) for row in rows), reverse=True)
    assert covered(rows, [i for i, _ in checks.greedy_trace(rows, limit)]) == sum(sizes[:limit])


@pytest.mark.parametrize("seed", range(100))
def test_greedy_agrees_with_the_program(seed):
    rng = random.Random(seed)
    rows = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 12), rng.uniform(0.1, 0.6))
    ids = [f"r{i}" for i in range(len(rows))]
    matrix = CoverageMatrix(tuple(ids), tuple(f"t{j}" for j in range(len(rows[0]))),
                            tuple(tuple(r) for r in rows))
    limit = rng.randint(1, 6)
    program = [(s.rule_id, s.gain) for s in prune_trace(matrix, limit)]
    assert program == [(ids[i], g) for i, g in checks.greedy_trace(rows, limit)]


# -- selection ----------------------------------------------------------------

ROWS = [
    [True, True, False, False],
    [True, True, True, False],
    [False, False, False, True],
]
IDS = ["a", "b", "c"]
GOOD = [("b", 3), ("c", 1)]


def test_selection_accepts_the_greedy():
    assert checks.selection_problems(IDS, ROWS, 6, GOOD, ["b", "c"]) == []


@pytest.mark.parametrize("trace, survivors, limit", [
    ([("c", 1), ("b", 3)], ["c", "b"], 6),  # swapped selection order
    ([("b", 3), ("c", 2)], ["b", "c"], 6),  # a wrong gain
    ([("b", 3)], ["b"], 6),  # stopped early
    ([("b", 3), ("c", 1)], ["b", "c"], 1),  # over the limit
    ([("b", 3), ("a", 0)], ["b", "a"], 6),  # a zero gain
    (GOOD, ["c", "b"], 6),  # survivors not the selection
    (GOOD, ["b", "c", "a"], 6),  # an unselected survivor
])
def test_selection_rejects_corruption(trace, survivors, limit):
    assert checks.selection_problems(IDS, ROWS, limit, trace, survivors)


# -- episodes -----------------------------------------------------------------

def counts(**change):
    base = dict(steps=400, transitions=400, decisions=400, env_steps=400, learns=1,
                expected_learns=1, max_steps=400)
    base.update(change)
    return base


def test_episode_counts_accept_a_vetted_episode():
    assert checks.episode_problems(**counts()) == []


@pytest.mark.parametrize("change", [
    {"decisions": 399},  # an action executed without an MPC decision
    {"env_steps": 401},
    {"transitions": 398},
    {"steps": 401, "transitions": 401, "decisions": 401, "env_steps": 401},  # over budget
    {"learns": 0},
])
def test_episode_counts_reject_corruption(change):
    assert checks.episode_problems(**counts(**change))


def obs(near=(), in_front="grass", inventory=None):
    visible = tuple(VisibleObject(name, 1, -i) for i, name in enumerate(near))
    return Observation("grass", in_front, visible, frozenset(near), Status(9, 9, 9, 9),
                       dict(inventory or {}))


MINE_TREE = Action("mine", {"block_name": "tree", "amount": 1})


def test_ground_truth_accepts_real_outcomes():
    truth = checks.GroundTruth(make_config("default"))
    real = [
        Transition(obs(), MINE_TREE, Outcome(False), obs()),
        Transition(obs(near=("tree",)), MINE_TREE, Outcome(True), obs(near=("tree",))),
    ]
    assert truth.problems(real) == []


def test_ground_truth_rejects_a_flipped_outcome():
    truth = checks.GroundTruth(make_config("default"))
    flipped = Transition(obs(), MINE_TREE, Outcome(True), obs())  # mined a tree out of reach
    assert any("gt_mine_target_near" in p for p in truth.problems([flipped]))


def test_ground_truth_holds_on_a_world_rollout():
    world = MarsWorld(make_config("survival", seed=3))
    current = world.observe()
    real = []
    actions = [MINE_TREE, Action("explore", {"direction": "east", "steps": 2}),
               Action("make", {"tool_name": "wood_pickaxe"}), Action("sleep", {}),
               Action("place", {"block_name": "table"})]
    for step in range(60):
        action = actions[step % len(actions)]
        nxt, _, _, outcome = world.step(action)
        real.append(Transition(current, action, outcome, nxt))
        current = nxt
    assert checks.GroundTruth(world.config).problems(real) == []


# -- mispredictions -----------------------------------------------------------------

def pair():
    t_fail = Transition(obs(), MINE_TREE, Outcome(False), obs())
    t_ok = Transition(obs(near=("tree",)), MINE_TREE, Outcome(True), obs(near=("tree",)))
    real = Trajectory((t_fail, t_ok, t_fail))
    predicted = Trajectory((
        Transition(t_fail.obs, MINE_TREE, Outcome(True), t_fail.obs),
        Transition(t_ok.obs, MINE_TREE, Outcome(True), t_ok.obs),
        Transition(t_fail.obs, MINE_TREE, Outcome(True), t_fail.obs),
    ))
    return real, predicted, t_fail, t_ok


def test_mispredictions_accept_the_deduplicated_set():
    real, predicted, t_fail, _ = pair()
    assert checks.misprediction_problems([(real, predicted)], [(t_fail, Outcome(True))]) == []


@pytest.mark.parametrize("stored", ["none", "duplicate", "extra"])
def test_mispredictions_reject_corruption(stored):
    real, predicted, t_fail, t_ok = pair()
    lists = {
        "none": [],
        "duplicate": [(t_fail, Outcome(True)), (t_fail, Outcome(True))],
        "extra": [(t_fail, Outcome(True)), (t_ok, Outcome(True))],
    }
    assert checks.misprediction_problems([(real, predicted)], lists[stored])


def test_wrong_bits_rejects_a_surviving_invalid_rule():
    truth = checks.GroundTruth(make_config("default"))
    near_rule = next(r for r in truth.rules if r.id == "gt_mine_target_near")
    history = [Transition(obs(), MINE_TREE, Outcome(False), obs())]
    assert checks.wrong_bits([near_rule], history, truth.kg, SceneGraph(), truth.tool_tiers) == []
    lucky = [Transition(obs(), MINE_TREE, Outcome(True), obs())]
    assert checks.wrong_bits([near_rule], lucky, truth.kg, SceneGraph(), truth.tool_tiers)


# -- ablation -------------------------------------------------------------------------

def table(no_pruning_mean=1.0):
    return {
        "l=6": {"limit": 6, "prune": True, "reward_mean": 17.0},
        "l=1": {"limit": 1, "prune": True, "reward_mean": 16.0},
        "no_pruning": {"limit": None, "prune": False, "reward_mean": no_pruning_mean},
    }


REWARDS = {(6, True): [17.0, 17.0], (1, True): [15.0, 17.0], (None, False): [0.5, 1.5]}


def test_ablation_accepts_a_worst_no_pruning_arm():
    assert checks.ablation_problems(REWARDS, table()) == []


def test_ablation_rejects_a_no_pruning_arm_that_is_not_worst():
    rewards = {**REWARDS, (None, False): [16.0, 16.0]}
    assert checks.ablation_problems(rewards, table(16.0))


def test_ablation_rejects_a_misreported_mean():
    assert checks.ablation_problems(REWARDS, table(no_pruning_mean=0.5))


# -- artifacts -------------------------------------------------------------------------

def rollout_text() -> str:
    world = MarsWorld(make_config("default", seed=2))
    current = world.observe()
    steps = []
    for direction in ("east", "south", "west", "north"):
        action = Action("explore", {"direction": direction, "steps": 1})
        nxt, _, _, outcome = world.step(action)
        steps.append(Transition(current, action, outcome, nxt))
        current = nxt
    return Trajectory(tuple(steps), 2, "default").to_ndjson()


def test_trajectory_check_accepts_a_written_trajectory():
    assert checks.trajectory_problems(rollout_text()) == []


def corrupt_status(text: str) -> str:
    lines = text.splitlines(keepends=True)
    record = json.loads(lines[2])
    record["obs"]["status"]["food"] -= 1  # step 1's obs no longer step 0's next_obs
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("corrupt", [
    corrupt_status,
    lambda t: t.replace('"success":', '"success" :', 1),  # a changed byte, same data
    lambda t: t.replace('{"action"', '{"actionX"', 1),  # a changed field name
    lambda t: t[:-1],  # the final newline dropped
])
def test_trajectory_check_rejects_corruption(corrupt):
    assert checks.trajectory_problems(corrupt(rollout_text()))


ROWS_JSON = [
    {"trial": t, "iteration": i, "reward": 1.0 + t, "score": 2.0, "cover_rate": 0.5,
     "steps": 100 + i, "task_complete": t != 0}
    for t in range(9) for i in range(2)
]


def summary_of(rows):
    return {"rows": {key: {"mean": round(sum(r[key] for r in rows) / len(rows), 6), "std": 0.0}
                     for key in checks.SUMMARY_KEYS}}


def test_summary_and_chain_accept_consistent_rows():
    assert checks.summary_problems(ROWS_JSON, summary_of(ROWS_JSON)) == []
    assert checks.chain_problems(ROWS_JSON, 9, 2, 8) == []


def test_summary_rejects_a_changed_mean():
    summary = summary_of(ROWS_JSON)
    summary["rows"]["reward"]["mean"] += 0.01
    assert checks.summary_problems(ROWS_JSON, summary)


def test_chain_rejects_too_few_completions_and_missing_rows():
    two_failures = [dict(r, task_complete=r["trial"] > 1) for r in ROWS_JSON]
    assert checks.chain_problems(two_failures, 9, 2, 8)
    assert checks.chain_problems(ROWS_JSON[:-1], 9, 2, 8)


def test_tree_digest_sees_a_changed_byte_and_a_renamed_file(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.json").write_text("{}\n")
    first = checks.tree_digest(tmp_path)
    assert checks.tree_digest(tmp_path) == first
    (tmp_path / "a" / "x.json").write_text("{ }\n")
    assert checks.tree_digest(tmp_path) != first
    (tmp_path / "a" / "x.json").write_text("{}\n")
    (tmp_path / "a" / "x.json").rename(tmp_path / "a" / "y.json")
    assert checks.tree_digest(tmp_path) != first


def test_rendered_check_rejects_empty_output():
    assert checks.rendered_problems("") and checks.rendered_problems(None)
    assert checks.rendered_problems("trajectory: 3 transitions") == []
