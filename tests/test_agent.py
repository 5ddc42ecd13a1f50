import math

import pytest
from hypothesis import given, settings, strategies as st

from worldalign.agent import (
    EpisodeComponents,
    PlanningContext,
    ScriptedPlanner,
    _adjacent_cells,
    _ViewMap,
    mpc_plan,
    run_episode,
    score,
)
from worldalign.core import Action
from worldalign.dsl import parse
from worldalign.env import CONFIG_IDS, MarsWorld, make_config
from worldalign.env.world import WALKABLE
from worldalign.graphs import KnowledgeGraph, SceneGraph, KgEdge, kg_merge
from worldalign.learner import LearnerConfig, LearnerState, RuleEntry, RuleSet
from worldalign.proposers import OracleProposer, ProposerUnavailable
from worldalign.world_model import NaivePrior, ScriptedPredictor

from conftest import make_obs


class QueueProposer:
    """Action proposer replaying a scripted sequence of candidates."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.seen_feedback: list[list[str]] = []

    def propose(self, obs, feedback, suggestions, context):
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
    result = _mpc(make_obs(), RuleSet((), 6), ScriptedPredictor(default=True), proposer)
    assert result.replan_count == 1
    assert result.action == Action("sleep", {})
    assert result.predicted.success


def test_replan_correction_pattern_missing_iron():
    # First try the craft; the rule names the missing iron; second proposal
    # mines iron first and is accepted.
    rule = parse(
        "RULE model FOR make: SUCCEED ONLY IF kg_requires(action.args[tool_name]) "
        'satisfied_by inventory SUGGEST "Missing for {tool_name}: {missing}."'
    )
    kg = kg_merge(KnowledgeGraph.empty(), [KgEdge("iron_pickaxe", "iron", "consumes", 1)])
    rules = RuleSet((RuleEntry(ast=rule, source="s"),), 6)
    obs = make_obs(near=("iron",), inventory={"wood_pickaxe": 1, "stone_pickaxe": 1})

    class CorrectingProposer:
        def propose(self, obs, feedback, suggestions, context):
            if suggestions and "iron" in suggestions[-1]:
                return Action("mine", {"block_name": "iron", "amount": 1})
            return Action("make", {"tool_name": "iron_pickaxe"})

    config = make_config("default")
    result = mpc_plan(obs, rules, ScriptedPredictor(default=True), CorrectingProposer(),
                      kg, SceneGraph(), tables=config.base_tables())
    assert result.replan_count == 2
    assert result.action.name == "mine"
    assert result.predicted.success


def test_replan_limit_returns_last_candidate_flagged():
    rule = parse('RULE never FOR sleep: FAIL IF obs.position == "grass"')
    rules = RuleSet((RuleEntry(ast=rule, source="s"),), 6)
    proposer = QueueProposer([Action("sleep", {})])
    result = _mpc(make_obs(), rules, ScriptedPredictor(default=True), proposer)
    assert result.replan_count == 3
    assert not result.predicted.success


def test_feedback_history_strictly_grows_within_one_call():
    rule = parse('RULE never FOR sleep: FAIL IF obs.position == "grass" FEEDBACK "nope"')
    rules = RuleSet((RuleEntry(ast=rule, source="s"),), 6)
    proposer = QueueProposer([Action("sleep", {})])
    _mpc(make_obs(), rules, ScriptedPredictor(default=True), proposer, replan_limit=4)
    lengths = [len(f) for f in proposer.seen_feedback]
    assert lengths == [0, 1, 2, 3]


def test_mpc_requires_positive_replan_limit():
    with pytest.raises(ValueError):
        _mpc(make_obs(), RuleSet((), 6), ScriptedPredictor(), QueueProposer([Action("sleep", {})]),
             replan_limit=0)


# -- score ------------------------------------------------------------------------

def test_score_all_zero():
    assert score({"a": 0.0, "b": 0.0}).percent == 0.0


def test_score_all_one_is_100():
    value = score({"a": 1.0, "b": 1.0, "c": 1.0})
    assert value.percent == pytest.approx(100.0)


def test_score_half_rates_golden():
    # Independent evaluation of the formula: exp(mean(ln(1 + 100 s))) - 1
    rates = {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0}
    expected = math.exp((math.log(101.0) * 2 + 0.0 * 2) / 4) - 1
    assert score(rates).percent == pytest.approx(expected)
    assert round(score(rates).percent, 3) == round(expected, 3) == 9.05


def test_score_empty_map_flagged_zero():
    value = score({})
    assert value.percent == 0.0 and not value.defined


def test_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        score({"a": 1.5})


def test_score_permutation_invariant_and_monotone():
    a = score({"x": 0.2, "y": 0.9}).percent
    b = score({"y": 0.9, "x": 0.2}).percent
    assert a == b
    assert score({"x": 0.3, "y": 0.9}).percent > a


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
        state = LearnerState(rules=RuleSet((), 6))
        results.append(run_episode(config, state, _components(config)))
    assert results[0].metrics == results[1].metrics
    assert results[0].real.to_ndjson() == results[1].real.to_ndjson()


def test_episode_every_action_was_vetted_first():
    config = make_config("default", seed=21)
    state = LearnerState(rules=RuleSet((), 6))
    result = run_episode(config, state, _components(config))
    # model-based contract: real and predicted trajectories are index-aligned
    assert len(result.real) == len(result.predicted)
    for r, p in zip(result.real.transitions, result.predicted.transitions):
        assert r.obs == p.obs and r.action == p.action


def test_episode_step_cadence_learns_every_step():
    config = make_config("default", seed=21)
    components = _components(config)
    components.cadence = "step"
    state = LearnerState(rules=RuleSet((), 6))
    result = run_episode(config, state, components)
    assert state.iteration == result.metrics["steps"]


def test_proposer_failure_propagates_from_episode():
    config = make_config("default", seed=21)

    class FlakyPlanner(ScriptedPlanner):
        calls = 0

        def propose(self, obs, feedback, suggestions, context):
            FlakyPlanner.calls += 1
            if FlakyPlanner.calls > 5:
                raise ProposerUnavailable("backend down")
            return super().propose(obs, feedback, suggestions, context)

    components = EpisodeComponents(
        predictor=NaivePrior(config),
        planner=FlakyPlanner(config),
        rule_proposer=None,
    )
    state = LearnerState(rules=RuleSet((), 6))
    with pytest.raises(ProposerUnavailable, match="backend down"):
        run_episode(config, state, components)
    assert FlakyPlanner.calls == 6


def test_coverage_curve_with_aligned_predictor_is_flagged_zeros(monkeypatch):
    from worldalign import experiments

    config = make_config("default", seed=3)
    real, _ = experiments.run_probe(config, NaivePrior(config), 40, 20)
    monkeypatch.setattr(experiments, "run_probe", lambda *a, **k: (real, real))
    curve = experiments.coverage_curve(config, OracleProposer(config), iterations=2)
    assert not curve.defined
    assert all(v == 0.0 for v in curve.series)


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
    context = PlanningContext(KnowledgeGraph.empty(), SceneGraph.initial(world.locations()))
    obs = world.observe()
    for step_vetoes in vetoes:
        feedback: list[str] = []
        suggestions: list[str] = []
        for veto in (None, *step_vetoes):
            if veto is not None:
                feedback.append(_VETOES[veto][0])
                suggestions.append(_VETOES[veto][1])
            fresh._view = None
            action = memo.propose(obs, list(feedback), list(suggestions), context)
            assert fresh.propose(obs, list(feedback), list(suggestions), context) == action
        next_obs, _, done, outcome = world.step(action)
        memo.observe_result(action, outcome, next_obs)
        fresh.observe_result(action, outcome, next_obs)
        obs = next_obs
        if done:
            break


_window_cells = st.tuples(st.integers(-4, 4), st.integers(-3, 3))


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
    cells: dict[tuple[int, int], set[str]] = {}
    for vis in obs.visible_objects:
        cells.setdefault((vis.x, vis.y), set()).add(vis.type)
    walkable = {pos for pos, kinds in cells.items() if kinds <= WALKABLE}
    view = _ViewMap.of(obs)
    assert view.walkable == walkable
    assert view.paths == walkable | {(0, 0)}
    assert view.reach == (max(abs(x) for x, _ in cells), max(abs(y) for _, y in cells))
    paths = walkable | {(0, 0)}
    scan = {
        pos
        for pos in paths
        if any(max(abs(pos[0] - tx), abs(pos[1] - ty)) <= 1 for tx, ty in targets)
    }
    assert _adjacent_cells(targets, view.paths) == scan
