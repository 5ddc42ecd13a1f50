import functools

import pytest
from hypothesis import given, settings, strategies as st

from worldalign.core import Action, Outcome
from worldalign.dsl import ParseError, evaluate_all, parse
from worldalign.env import CONFIG_IDS, make_config, rules_for_config
from worldalign.env.config import Modification, Recipe
from worldalign.env.world import MarsWorld, apply_effect
from worldalign.graphs import KnowledgeGraph, SceneGraph, kg_merge
from worldalign.env.oracle import kg_edges_for_config
from worldalign.experiments import run_probe
from worldalign.proposers import NoisyOracleProposer
from worldalign.world_model import (
    BackendUnavailable,
    ExternalBackendPredictor,
    NaivePrior,
    map_execute,
)

from conftest import ScriptedPredictor, make_obs


def test_naive_prior_matches_default_world_on_table_check():
    config = make_config("default")
    prior = NaivePrior(config)
    obs = make_obs(near=("grass",), inventory={"wood": 2})
    outcome = prior.predict(obs, Action("make", {"tool_name": "wood_pickaxe"}))
    assert not outcome.success
    assert "table" in outcome.suggestion


def test_naive_prior_guaranteed_misprediction_under_recipe_change():
    # Tables now require diamonds (which trees drop, keeping the chain
    # closed); the prior keeps consulting defaults.
    from worldalign.env.config import MineRule

    config = make_config("default").__class__(
        config_id="diamond_tables",
        modifications=(
            Modification(
                kind="taskdep",
                recipes={
                    "table": Recipe(consumes={"diamond": 2}),
                    "wood_pickaxe": Recipe(consumes={"diamond": 1}, platform="table"),
                    "stone_pickaxe": Recipe(consumes={"diamond": 1, "stone": 1}, platform="table"),
                    "iron_pickaxe": Recipe(consumes={"coal": 1, "iron": 1}, platform="furnace"),
                    "wood_sword": Recipe(consumes={"diamond": 1}, platform="table"),
                    "stone_sword": Recipe(consumes={"stone": 1}, platform="table"),
                    "iron_sword": Recipe(consumes={"coal": 1, "iron": 1}, platform="furnace"),
                },
                mining={"tree": MineRule(drop="diamond")},
            ),
        ),
    )
    prior = NaivePrior(config)
    obs = make_obs(in_front="grass", near=("grass",), inventory={"wood": 2})
    predicted = prior.predict(obs, Action("place", {"block_name": "table"}))
    assert predicted.success  # prior is sure
    world = MarsWorld(config)
    world.inventory = {"wood": 2}
    _, _, _, real = world.step(Action("place", {"block_name": "table"}))
    assert not real.success  # the world disagrees: guaranteed misprediction


def test_naive_prior_is_context_blind_about_proximity():
    prior = NaivePrior(make_config("default"))
    obs = make_obs()  # no tree anywhere near
    assert prior.predict(obs, Action("mine", {"block_name": "tree", "amount": 1})).success


def test_naive_prior_knows_tool_tiers():
    prior = NaivePrior(make_config("default"))
    obs = make_obs(near=("iron",))
    outcome = prior.predict(obs, Action("mine", {"block_name": "iron", "amount": 1}))
    assert not outcome.success


def test_scripted_predictor_error_positions_exactly_as_scripted():
    predictor = ScriptedPredictor(by_action={"mine": False}, default=True)
    obs = make_obs()
    assert not predictor.predict(obs, Action("mine", {"block_name": "tree", "amount": 1})).success
    assert predictor.predict(obs, Action("sleep", {})).success


def test_scripted_predictor_is_deterministic():
    predictor = ScriptedPredictor(override=lambda obs, a: a.name == "sleep")
    obs = make_obs()
    outcomes = {predictor.predict(obs, Action("sleep", {})).success for _ in range(5)}
    assert outcomes == {True}


# -- map_execute -----------------------------------------------------------------

NEAR_TABLE = parse(
    'RULE near_table FOR make: FAIL IF NOT ("table" in near_objects) '
    'FEEDBACK "no table nearby" SUGGEST "Move closer to a \'table\'"'
)
MODEL = parse(
    "RULE model FOR make: SUCCEED ONLY IF kg_requires(action.args[tool_name]) "
    'satisfied_by inventory FEEDBACK "missing things" SUGGEST "gather {missing}"'
)


def _tables():
    return make_config("default").base_tables()


def test_rule_overrides_optimistic_base():
    obs = make_obs(near=("grass",))
    result = map_execute([NEAR_TABLE], obs, Action("make", {"tool_name": "wood_pickaxe"}),
                         Outcome(True, "sure"), KnowledgeGraph.empty(), SceneGraph(),
                         tables=_tables())
    assert not result.predicted.success
    assert "Move closer" in result.predicted.suggestion
    assert result.failing == ("near_table",)


def test_no_activation_passes_base_through():
    obs = make_obs()
    base = Outcome(False, "prior says no", "prior hint")
    result = map_execute([NEAR_TABLE], obs, Action("sleep", {}), base,
                         KnowledgeGraph.empty(), SceneGraph(), tables=_tables())
    assert result.predicted.success is False
    assert result.predicted.feedback == "prior says no"
    assert result.predicted.suggestion == "prior hint"


def test_rule_overrides_pessimistic_base():
    kg = kg_merge(KnowledgeGraph.empty(), [])
    obs = make_obs(near=("table",), inventory={"wood": 1})
    result = map_execute([MODEL], obs, Action("make", {"tool_name": "wood_pickaxe"}),
                         Outcome(False, "prior doubts it"), kg, SceneGraph(),
                         tables=_tables())
    assert result.predicted.success is True


def test_failure_dominates_between_two_activated_rules():
    obs = make_obs(near=("grass",), inventory={"wood": 5})
    result = map_execute([MODEL, NEAR_TABLE], obs,
                         Action("make", {"tool_name": "wood_pickaxe"}),
                         Outcome(True, "sure"), KnowledgeGraph.empty(), SceneGraph(),
                         tables=_tables())
    assert not result.predicted.success
    assert result.failing == ("near_table",)


def _reference_map_execute(rules, obs, action, base, kg, sg, tables):
    """(flag, feedback, suggestion) as `map_execute` once built them: an
    activated rule set's joint verdict replaces the base bit, and a passing
    one keeps the base feedback when it has none."""
    joint = evaluate_all(rules, obs, action, kg, sg, tool_tiers=tables.tool_tiers)
    if joint.activated_ids:
        flag = not joint.failing_ids
        feedback = joint.feedback if not flag else (joint.feedback or base.feedback)
        return flag, feedback, joint.suggestion
    return base.success, base.feedback, base.suggestion


@functools.lru_cache(maxsize=None)
def _vetting_case(config_id):
    """A probe's transitions on `config_id`, the oracle's rules plus a noisy
    proposer's (inverted ones included), the oracle KG and a fresh scene
    graph."""
    config = make_config(config_id, seed=4)
    real, _ = run_probe(config, NaivePrior(config), 60)
    rules = {}
    noisy = NoisyOracleProposer(config, corruption=0.6, seed=1)
    for text in rules_for_config(config) + noisy.propose_rules(real.transitions, []):
        try:
            rule = parse(text)
        except ParseError:
            continue
        rules.setdefault(rule.id, rule)
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
    sg = SceneGraph.initial(MarsWorld(config).locations())
    return config, real.transitions, tuple(rules.values()), kg, sg


@settings(deadline=None, max_examples=150)
@given(config_id=st.sampled_from(CONFIG_IDS), data=st.data())
def test_map_execute_prediction_matches_the_flag_feedback_suggestion_reference(config_id, data):
    config, transitions, rules, kg, sg = _vetting_case(config_id)
    t = data.draw(st.sampled_from(transitions))
    chosen = data.draw(st.lists(st.sampled_from(rules), unique=True))
    base = data.draw(st.sampled_from([
        NaivePrior(config).predict(t.obs, t.action),
        Outcome(True, "base says yes"),
        Outcome(False, "base says no", "base hint"),
    ]))
    tables = config.base_tables()
    result = map_execute(chosen, t.obs, t.action, base, kg, sg, tables=tables)
    flag, feedback, suggestion = _reference_map_execute(
        chosen, t.obs, t.action, base, kg, sg, tables)
    assert result.predicted == Outcome(flag, feedback, suggestion)
    assert result.next_obs == apply_effect(t.obs, t.action, flag, tables)


def test_next_obs_estimate_uses_shared_effect_function():
    tables = _tables()
    obs = make_obs(near=("table",), inventory={"wood": 2})
    action = Action("make", {"tool_name": "wood_pickaxe"})
    result = map_execute([], obs, action, Outcome(True, "ok"),
                         KnowledgeGraph.empty(), SceneGraph(), tables=tables)
    assert result.next_obs == apply_effect(obs, action, True, tables)
    assert result.next_obs.inventory == {"wood": 1, "wood_pickaxe": 1}


def test_effect_function_failure_leaves_observation_unchanged():
    tables = _tables()
    obs = make_obs(inventory={"wood": 2})
    action = Action("make", {"tool_name": "wood_pickaxe"})
    assert apply_effect(obs, action, False, tables) == obs


def test_effect_function_is_pure():
    tables = _tables()
    obs = make_obs(near=("water",), status=(9, 9, 3, 9))
    action = Action("mine", {"block_name": "water", "amount": 1})
    first = apply_effect(obs, action, True, tables)
    assert apply_effect(obs, action, True, tables) == first
    assert first.status.drink == 4
    assert obs.status.drink == 3  # input untouched


def test_effect_place_keeps_near_invariant():
    tables = _tables()
    obs = make_obs(in_front="grass", inventory={"wood": 2})
    estimate = apply_effect(obs, Action("place", {"block_name": "table"}), True, tables)
    assert estimate.in_front == "table"
    assert "table" in estimate.near_objects  # invariant holds by construction


# -- external backend -----------------------------------------------------------

class FakeClient:
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.replies:
            raise BackendUnavailable("out of replies")
        return self.replies.pop(0)


def test_backend_predictor_parses_verdict_line():
    predictor = ExternalBackendPredictor(FakeClient(["FAIL: not enough wood"]),
                                         "obs={observation} action={action}")
    outcome = predictor.predict(make_obs(), Action("sleep", {}))
    assert not outcome.success
    assert outcome.feedback == "not enough wood"


def test_backend_predictor_rejects_malformed_reply():
    predictor = ExternalBackendPredictor(FakeClient(["MAYBE: who knows"]),
                                         "obs={observation} action={action}")
    with pytest.raises(BackendUnavailable):
        predictor.predict(make_obs(), Action("sleep", {}))


def test_oracle_rules_make_rule_scope_predictions_exact():
    # With the ground-truth rule set installed, every transition on which
    # some rule asserts a bit is predicted with 100% accuracy.
    from worldalign.dsl import parse
    from worldalign.env.oracle import kg_edges_for_config, rules_for_config
    from test_learner import _reference_asserted_bit
    from worldalign.dsl import evaluate

    config = make_config("default", seed=6)
    tables = config.effective()
    rules = [parse(t) for t in rules_for_config(config)]
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
    real, _ = run_probe(config, NaivePrior(config), 80)
    in_scope = checked = 0
    for t in real.transitions:
        asserted = [
            _reference_asserted_bit(r, evaluate(r, t.obs, t.action, kg, SceneGraph(),
                                     tool_tiers=tables.tool_tiers))
            for r in rules
        ]
        if all(a is None for a in asserted):
            continue
        in_scope += 1
        result = map_execute(rules, t.obs, t.action, Outcome(not t.outcome.success, "wrong"),
                             kg, SceneGraph(), tables=tables)
        checked += result.predicted.success == t.outcome.success
    assert in_scope > 0
    assert checked == in_scope
