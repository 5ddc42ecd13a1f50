import math
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from worldalign import agent
from worldalign.agent import (
    EpisodeComponents,
    ScriptedPlanner,
    _ViewMap,
    mpc_plan,
    run_episode,
    score,
)
from worldalign.core import Action, Trajectory, Transition
from worldalign.dsl import parse
from worldalign.env import CONFIG_IDS, MarsWorld, make_config
from worldalign.env.world import DIR_DELTAS, WALKABLE, apply_effect
from worldalign.experiments import ProbePolicy, episode_seed, run_probe, standard_components
from worldalign.graphs import KnowledgeGraph, SceneGraph, KgEdge, kg_merge
from worldalign.learner import LearnerConfig, LearnerState, RuleEntry, RuleSet
from worldalign.proposers import OracleProposer
from worldalign.world_model import BackendUnavailable, NaivePrior

from conftest import ScriptedPredictor, make_obs


class QueueProposer:
    """Action proposer replaying a scripted sequence of candidates."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.seen_feedback: list[list[str]] = []

    def propose(self, obs, feedback, suggestions, kg):
        self.seen_feedback.append(list(feedback))
        if len(self.actions) > 1:
            return self.actions.pop(0)
        return self.actions[0]


def _mpc(obs, rules, predictor, proposer, replan_limit=3):
    config = make_config("default")
    return mpc_plan(
        obs, rules, predictor, proposer, KnowledgeGraph.empty(), SceneGraph(),
        tables=config.base_tables(), replan_limit=replan_limit,
    )


def test_first_proposal_accepted_with_replan_count_one():
    proposer = QueueProposer([Action("sleep", {})])
    steps = _mpc(make_obs(), RuleSet(), ScriptedPredictor(default=True), proposer)
    assert len(steps) == 1
    action, vetted = steps[-1]
    assert action == Action("sleep", {})
    assert vetted.predicted.success


def test_replan_correction_pattern_missing_iron():
    # First try the craft; the rule names the missing iron; second proposal
    # mines iron first and is accepted.
    rule = parse(
        "RULE model FOR make: SUCCEED ONLY IF kg_requires(action.args[tool_name]) "
        'satisfied_by inventory SUGGEST "Missing for {tool_name}: {missing}."'
    )
    kg = kg_merge(KnowledgeGraph.empty(), [KgEdge("iron_pickaxe", "iron", "consumes", 1)])
    rules = RuleSet((RuleEntry(ast=rule, source="s"),))
    obs = make_obs(near=("iron",), inventory={"wood_pickaxe": 1, "stone_pickaxe": 1})

    class CorrectingProposer:
        def propose(self, obs, feedback, suggestions, kg):
            if suggestions and "iron" in suggestions[-1]:
                return Action("mine", {"block_name": "iron", "amount": 1})
            return Action("make", {"tool_name": "iron_pickaxe"})

    config = make_config("default")
    steps = mpc_plan(obs, rules, ScriptedPredictor(default=True), CorrectingProposer(),
                     kg, SceneGraph(), tables=config.base_tables())
    assert len(steps) == 2
    assert steps[-1][0].name == "mine"
    assert steps[-1][1].predicted.success
    (first, vetoed), (second, accepted) = steps
    assert first == Action("make", {"tool_name": "iron_pickaxe"})
    assert not vetoed.predicted.success and vetoed.failing == ("model",)
    assert second == steps[-1][0] and accepted.predicted.success


def test_replan_limit_returns_last_candidate_flagged():
    rule = parse('RULE never FOR sleep: FAIL IF obs.position == "grass"')
    rules = RuleSet((RuleEntry(ast=rule, source="s"),))
    proposer = QueueProposer([Action("sleep", {})])
    steps = _mpc(make_obs(), rules, ScriptedPredictor(default=True), proposer)
    assert len(steps) == 3
    assert not steps[-1][1].predicted.success


def test_feedback_history_strictly_grows_within_one_call():
    rule = parse('RULE never FOR sleep: FAIL IF obs.position == "grass" FEEDBACK "nope"')
    rules = RuleSet((RuleEntry(ast=rule, source="s"),))
    proposer = QueueProposer([Action("sleep", {})])
    _mpc(make_obs(), rules, ScriptedPredictor(default=True), proposer, replan_limit=4)
    lengths = [len(f) for f in proposer.seen_feedback]
    assert lengths == [0, 1, 2, 3]


def test_mpc_requires_positive_replan_limit():
    with pytest.raises(ValueError):
        _mpc(make_obs(), RuleSet(), ScriptedPredictor(), QueueProposer([Action("sleep", {})]),
             replan_limit=0)


# -- score ------------------------------------------------------------------------

def test_score_all_zero():
    assert score({"a": 0.0, "b": 0.0}) == 0.0


def test_score_all_one_is_100():
    assert score({"a": 1.0, "b": 1.0, "c": 1.0}) == pytest.approx(100.0)


def test_score_half_rates_golden():
    # Independent evaluation of the formula: exp(mean(ln(1 + 100 s))) - 1
    rates = {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0}
    expected = math.exp((math.log(101.0) * 2 + 0.0 * 2) / 4) - 1
    assert score(rates) == pytest.approx(expected)
    assert round(score(rates), 3) == round(expected, 3) == 9.05


def test_score_empty_map_flagged_zero():
    assert score({}) == 0.0


def test_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        score({"a": 1.5})


def test_score_permutation_invariant_and_monotone():
    a = score({"x": 0.2, "y": 0.9})
    b = score({"y": 0.9, "x": 0.2})
    assert a == b
    assert score({"x": 0.3, "y": 0.9}) > a


# -- episodes ----------------------------------------------------------------------

def _components(config, proposer_kind="oracle"):
    return EpisodeComponents(
        predictor=NaivePrior(config),
        planner=ScriptedPlanner(config),
        rule_proposer=OracleProposer(config) if proposer_kind == "oracle" else None,
        learner_config=LearnerConfig(),
    )


def test_episode_same_seed_same_metrics():
    config = make_config("default", seed=21)
    results = []
    for _ in range(2):
        state = LearnerState()
        results.append(run_episode(config, state, _components(config)))
    assert results[0].metrics == results[1].metrics
    assert results[0].real.to_ndjson() == results[1].real.to_ndjson()


def test_episode_every_action_was_vetted_first():
    config = make_config("default", seed=21)
    state = LearnerState()
    result = run_episode(config, state, _components(config))
    # model-based contract: real and predicted trajectories are index-aligned
    assert len(result.real) == len(result.predicted)
    for r, p in zip(result.real.transitions, result.predicted.transitions):
        assert r.obs == p.obs and r.action == p.action


def test_episode_step_cadence_learns_every_step():
    config = make_config("default", seed=21)
    components = _components(config)
    components.cadence = "step"
    state = LearnerState()
    result = run_episode(config, state, components)
    assert state.iteration == result.metrics["steps"]


def test_episode_rejects_an_unknown_cadence_before_building_the_world(monkeypatch):
    config = make_config("default", seed=21)
    components = _components(config)
    components.cadence = "steps"
    built = []
    monkeypatch.setattr(agent, "MarsWorld", lambda *args: built.append(args))
    state = LearnerState()
    with pytest.raises(ValueError, match="unknown cadence 'steps'"):
        run_episode(config, state, components)
    assert built == [] and state.iteration == 0


def test_proposer_failure_propagates_from_episode():
    config = make_config("default", seed=21)

    class FlakyPlanner(ScriptedPlanner):
        calls = 0

        def propose(self, obs, feedback, suggestions, kg):
            FlakyPlanner.calls += 1
            if FlakyPlanner.calls > 5:
                raise BackendUnavailable("backend down")
            return super().propose(obs, feedback, suggestions, kg)

    components = EpisodeComponents(
        predictor=NaivePrior(config),
        planner=FlakyPlanner(config),
        rule_proposer=None,
    )
    state = LearnerState()
    with pytest.raises(BackendUnavailable, match="backend down"):
        run_episode(config, state, components)
    assert FlakyPlanner.calls == 6


def test_coverage_curve_with_aligned_predictor_is_flagged_zeros(monkeypatch):
    from worldalign import experiments

    config = make_config("default", seed=3)
    real, _ = experiments.run_probe(config, NaivePrior(config), 40)
    monkeypatch.setattr(experiments, "run_probe", lambda *a, **k: (real, real))
    curve = experiments.coverage_curve(config, OracleProposer(config), iterations=2)
    assert not curve.defined
    assert all(v == 0.0 for v in curve.series)


def _reference_probe(config, predictor, steps):
    """The probe's own act-and-record loop, as it stood before the probe
    ran through `run_episode`: the base prediction and its table estimate
    are recorded as they are."""
    world = MarsWorld(config)
    policy = ProbePolicy()
    tables = config.base_tables()
    obs = world.observe()
    real, predicted = [], []
    for _ in range(steps):
        action = policy.propose(obs, [], [], KnowledgeGraph.empty())
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


@settings(deadline=None, max_examples=30)
@given(config_id=st.sampled_from(CONFIG_IDS), seed=st.integers(0, 50), steps=st.integers(0, 500))
@example(config_id="default", seed=0, steps=0)
@example(config_id="default", seed=0, steps=500)  # past max_steps
def test_probe_through_the_episode_loop_records_what_its_own_loop_did(config_id, seed, steps):
    config = make_config(config_id, seed=seed)
    real, predicted = run_probe(config, NaivePrior(config), steps)
    ref_real, ref_predicted = _reference_probe(config, NaivePrior(config), steps)
    assert real.to_ndjson() == ref_real.to_ndjson()
    assert predicted.to_ndjson(real) == ref_predicted.to_ndjson(ref_real)


# -- one view map per observation ------------------------------------------------

_VETOES = (
    ("wood: 2 more needed, table: must be nearby", "Gather wood first."),
    ("no tree within reach", "Explore to find tree and stand next to it."),
    ("cannot place table: the cell ahead is blocked", "The cell ahead must be open."),
    ("too dangerous to sleep: zombie nearby", "Clear the threat first."),
    ("stone: 1 more needed", "Craft stone_pickaxe first."),
    ("the prediction disagrees", ""),
)


@settings(deadline=None, max_examples=30)
@given(
    config_id=st.sampled_from(CONFIG_IDS),
    seed=st.integers(0, 50),
    vetoes=st.lists(
        st.lists(st.sampled_from(range(len(_VETOES))), max_size=3), min_size=10, max_size=60
    ),
)
def test_memoised_view_map_proposes_like_a_fresh_one(config_id, seed, vetoes):
    config = make_config(config_id, seed=seed)
    world = MarsWorld(config)
    memo, fresh = ScriptedPlanner(config), ScriptedPlanner(config)
    kg = KnowledgeGraph.empty()
    obs = world.observe()
    for step_vetoes in vetoes:
        feedback: list[str] = []
        suggestions: list[str] = []
        for veto in (None, *step_vetoes):
            if veto is not None:
                feedback.append(_VETOES[veto][0])
                suggestions.append(_VETOES[veto][1])
            fresh._view = None
            action = memo.propose(obs, list(feedback), list(suggestions), kg)
            assert fresh.propose(obs, list(feedback), list(suggestions), kg) == action
        next_obs, _, done, outcome = world.step(action)
        memo.observe_result(action, outcome, next_obs)
        fresh.observe_result(action, outcome, next_obs)
        obs = next_obs
        if done:
            break


class _DivertCheckedPlanner(ScriptedPlanner):
    """A planner that checks each `observe_result` against the diversion
    bookkeeping it replaced: pop the action's `_key` when it equals the
    last desired action's `_key`."""

    pops = 0

    def observe_result(self, action, outcome, next_obs):
        expected = dict(self._diverted)
        key = self._key(action)
        if self._last_desired is not None and key == self._key(self._last_desired):
            expected.pop(key, None)
        self.pops += len(expected) < len(self._diverted)
        super().observe_result(action, outcome, next_obs)
        assert self._diverted == expected


@pytest.mark.parametrize("proposer_kind", ["oracle", "noisy"])
def test_observe_result_ends_diversions_like_the_key_comparison(proposer_kind):
    pops = 0
    for config_id in CONFIG_IDS:
        config = make_config(config_id, seed=3)
        build = standard_components(rule_proposer_kind=proposer_kind, limit=3)
        state = LearnerState()
        for iteration in range(2):
            components = build(config)
            planner = components.planner = _DivertCheckedPlanner(config)
            run_episode(replace(config, seed=episode_seed(3, iteration)), state, components)
            pops += planner.pops
    assert pops > 0  # some step ends a diversion


_window_cells = st.tuples(st.integers(-4, 4), st.integers(-3, 3))


def _bfs_step_reference(
    walkable: frozenset[tuple[int, int]], goals: set[tuple[int, int]]
) -> tuple[str, int, tuple[int, int]] | None:
    """The planner's first-in-first-out BFS over cell tuples, which the mask
    search replaced: neighbours in DIR_DELTAS order, the first goal dequeued
    wins."""
    if not goals:
        return None
    if (0, 0) in goals:
        return None
    prev: dict[tuple[int, int], tuple[int, int] | None] = {(0, 0): None}
    queue = deque([(0, 0)])
    found = None
    while queue:
        cur = queue.popleft()
        if cur in goals:
            found = cur
            break
        x, y = cur
        for nxt in ((x, y - 1), (x, y + 1), (x + 1, y), (x - 1, y)):  # DIR_DELTAS order
            if nxt in walkable and nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    if found is None:
        return None
    path = [found]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()  # origin first
    dx, dy = path[1][0] - path[0][0], path[1][1] - path[0][1]
    steps = 1
    while steps + 1 < len(path):
        nx, ny = path[steps + 1][0] - path[steps][0], path[steps + 1][1] - path[steps][1]
        if (nx, ny) != (dx, dy):
            break
        steps += 1
    direction = {(1, 0): "east", (-1, 0): "west", (0, 1): "south", (0, -1): "north"}[(dx, dy)]
    return direction, steps, found


def _adjacent_cells_reference(
    points: set[tuple[int, int]], cells: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    """The members of `cells` in the 3x3 block around any of `points`."""
    return {
        (x + dx, y + dy) for x, y in points for dx in (-1, 0, 1) for dy in (-1, 0, 1)
    } & cells


def _decode(view: _ViewMap, mask: int) -> set[tuple[int, int]]:
    """The cells of a mask, read back through the documented bit layout."""
    rx, ry = view.reach
    return {
        (bit % view.stride - rx, bit // view.stride - ry)
        for bit in range(mask.bit_length())
        if mask >> bit & 1
    }


def _cell_type_scan(obs) -> tuple[dict[tuple[int, int], set[str]], set[tuple[int, int]]]:
    """Every seen cell with its types, and the cells that hold only open ground."""
    cells: dict[tuple[int, int], set[str]] = {}
    for vis in obs.visible_objects:
        cells.setdefault((vis.x, vis.y), set()).add(vis.type)
    return cells, {pos for pos, kinds in cells.items() if kinds <= WALKABLE}


def _within(view: _ViewMap, cells: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The cells that have a bit.  Cells beyond the reach are never seen, so
    never walkable, and the planner's targets are always seen cells."""
    rx, ry = view.reach
    return {(x, y) for x, y in cells if abs(x) <= rx and abs(y) <= ry}


@settings(deadline=None, max_examples=200)
@given(
    visible=st.lists(
        st.tuples(st.sampled_from(["grass", "sand", "tree", "water", "zombie", "cow"]), _window_cells),
        min_size=1,
        max_size=80,
    ),
    targets=st.sets(_window_cells, min_size=1, max_size=4),
)
def test_view_map_matches_cell_type_scan(visible, targets):
    obs = make_obs(visible=tuple((kind, x, y) for kind, (x, y) in visible))
    cells, walkable = _cell_type_scan(obs)
    view = _ViewMap.of(obs)
    assert _decode(view, view.walkable) == walkable
    assert _decode(view, view.paths) == walkable | {(0, 0)}
    assert view.reach == (max(abs(x) for x, _ in cells), max(abs(y) for _, y in cells))
    paths = walkable | {(0, 0)}
    targets = _within(view, targets)
    scan = {
        pos
        for pos in paths
        if any(max(abs(pos[0] - tx), abs(pos[1] - ty)) <= 1 for tx, ty in targets)
    }
    assert _decode(view, view.near(view.mask(targets))) == scan


@st.composite
def _clipped_windows(draw):
    """A view window clipped to a box around the origin (as at a grid edge or
    corner), its cells open, blocked or unseen, some with a creature on top;
    and goal cells: seen cells, any cells of the full window, and maybe the
    origin."""
    xs = range(draw(st.integers(-4, 0)), draw(st.integers(0, 4)) + 1)
    ys = range(draw(st.integers(-3, 0)), draw(st.integers(0, 3)) + 1)
    terrain = st.sampled_from(["grass", "grass", "grass", "sand", "tree", "water", None])
    creature = st.sampled_from([None, None, None, None, None, "cow", "zombie"])
    visible = []
    for y in ys:
        for x in xs:
            kind = draw(terrain) if (x, y) != (0, 0) else None
            if kind is not None:
                visible.append((kind, x, y))
                if (other := draw(creature)) is not None:
                    visible.append((other, x, y))
    seen = sorted({(x, y) for _, x, y in visible})
    goals = set(draw(st.lists(st.sampled_from(seen), max_size=4))) if seen else set()
    goals |= draw(st.sets(_window_cells, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        goals.add((0, 0))
    return tuple(visible), goals


@settings(deadline=None, max_examples=300)
@given(window=_clipped_windows())
@example(window=((), set()))  # nothing seen
@example(window=((), {(1, 0), (0, -1)}))
@example(window=((("grass", 1, 0), ("grass", 2, 0)), {(2, 0)}))
@example(window=((("grass", 1, 0), ("tree", 2, 0), ("grass", 3, 0)), {(3, 0)}))  # unreachable
@example(window=((("grass", 1, 0), ("grass", 0, 1)), {(0, 0), (1, 0)}))  # origin is a goal
@example(  # clipped at a corner: nothing north or west of the agent
    window=(
        tuple(("grass", x, y) for y in range(4) for x in range(5) if (x, y) != (0, 0)),
        {(4, 3), (3, 3), (4, 2)},
    )
)
@example(  # a ring: two shortest paths, the northern one comes first
    window=(
        tuple(
            ("water" if (x, y) == (1, 0) else "grass", x, y)
            for y in (-1, 0, 1) for x in (0, 1, 2) if (x, y) != (0, 0)
        ),
        {(2, 0)},
    )
)
def test_mask_bfs_matches_tuple_bfs(window):
    visible, goals = window
    obs = make_obs(visible=visible)
    view = _ViewMap.of(obs)
    _, walkable = _cell_type_scan(obs)
    paths = walkable | {(0, 0)}
    inside = _within(view, goals)
    expected = _bfs_step_reference(frozenset(paths), goals)
    assert ScriptedPlanner._bfs_step(view, view.mask(inside)) == expected
    assert _decode(view, view.near(view.mask(inside))) == _adjacent_cells_reference(inside, paths)
    for dx, dy in DIR_DELTAS.values():
        assert view.is_walkable(dx, dy) == ((dx, dy) in walkable)
        assert view.is_walkable(2 * dx, 2 * dy) == ((2 * dx, 2 * dy) in walkable)
    if not walkable:
        planner = ScriptedPlanner(make_config("default"))
        assert planner._sweep(obs) == Action("explore", {"direction": "east", "steps": 1})
        return
    max_x = max(abs(x) for _, x, _ in visible)
    max_y = max(abs(y) for _, _, y in visible)
    edges = {
        "east": {(x, y) for x, y in walkable if x == max_x},
        "west": {(x, y) for x, y in walkable if x == -max_x},
        "south": {(x, y) for x, y in walkable if y == max_y},
        "north": {(x, y) for x, y in walkable if y == -max_y},
    }
    for direction, cells in edges.items():
        assert _decode(view, view.edge(direction)) == cells
        assert ScriptedPlanner._bfs_step(view, view.edge(direction)) == _bfs_step_reference(
            frozenset(paths), cells
        )
