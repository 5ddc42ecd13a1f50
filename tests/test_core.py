import json

import pytest
from hypothesis import given, strategies as st

from worldalign.core import (
    Action,
    LengthMismatch,
    Observation,
    Outcome,
    PrefixMismatch,
    Status,
    Trajectory,
    Transition,
    classify_transitions,
)

from conftest import make_obs, make_transition


# -- construction invariants -------------------------------------------------

def test_action_arity_enforced():
    Action("sleep", {})
    Action("mine", {"block_name": "tree", "amount": 2})
    with pytest.raises(ValueError):
        Action("sleep", {"direction": "north"})
    with pytest.raises(ValueError):
        Action("mine", {"block_name": "tree"})
    with pytest.raises(ValueError):
        Action("mine", {"block_name": "tree", "amount": 0})
    with pytest.raises(ValueError):
        Action("explore", {"direction": "up", "steps": 1})
    with pytest.raises(ValueError):
        Action("warp", {})


def test_status_range_enforced():
    with pytest.raises(ValueError):
        Status(10, 0, 0, 0)
    with pytest.raises(ValueError):
        Status(9, -1, 0, 0)


def test_outcome_success_has_no_suggestion():
    Outcome(True, "ok")
    Outcome(False, "no", "try this")
    with pytest.raises(ValueError):
        Outcome(True, "ok", "try this")


def test_near_objects_must_be_visible():
    with pytest.raises(ValueError):
        Observation(
            position="grass",
            in_front="grass",
            visible_objects=(),
            near_objects=frozenset({"table"}),
            status=Status(9, 9, 9, 9),
        )


def test_negative_inventory_rejected():
    with pytest.raises(ValueError):
        make_obs(inventory={"wood": -1})


# -- serialization ------------------------------------------------------------

observations = st.builds(
    make_obs,
    position=st.sampled_from(["grass", "sand"]),
    in_front=st.sampled_from(["grass", "water", "table", "tree"]),
    near=st.lists(
        st.sampled_from(["table", "tree", "water", "zombie"]), max_size=3, unique=True
    ).map(tuple),
    visible=st.lists(
        st.tuples(
            st.sampled_from(["stone", "cow", "plant"]),
            st.integers(-4, 4),
            st.integers(-3, 3),
        ),
        max_size=4,
    ).map(tuple),
    status=st.tuples(*[st.integers(0, 9)] * 4),
    inventory=st.dictionaries(
        st.sampled_from(["wood", "stone", "iron", "wood_pickaxe"]),
        st.integers(0, 9),
        max_size=3,
    ),
)

actions = st.one_of(
    st.builds(lambda: Action("sleep", {})),
    st.builds(
        lambda b, n: Action("mine", {"block_name": b, "amount": n}),
        st.sampled_from(["tree", "stone", "plant"]),
        st.integers(1, 3),
    ),
    st.builds(
        lambda d, n: Action("explore", {"direction": d, "steps": n}),
        st.sampled_from(["north", "south", "east", "west"]),
        st.integers(1, 5),
    ),
    st.builds(lambda t: Action("make", {"tool_name": t}), st.sampled_from(["wood_pickaxe"])),
)


@given(observations)
def test_observation_json_round_trip(obs):
    assert Observation.from_json(json.loads(json.dumps(obs.to_json()))) == obs


@given(actions)
def test_action_json_round_trip(action):
    assert Action.from_json(json.loads(json.dumps(action.to_json()))) == action


@given(observations, actions, st.booleans(), st.text(max_size=20))
def test_transition_round_trip(obs, action, success, feedback):
    outcome = Outcome(success, feedback, "" if success else "try")
    t = Transition(obs, action, outcome, obs)
    assert Transition.from_json(json.loads(json.dumps(t.to_json()))) == t


def test_transition_digest_is_memoised_outside_equality_and_pickling():
    import copy
    import hashlib
    import pickle

    from worldalign.core import dumps_canonical

    t = make_transition(Action("sleep", {}), True, feedback="rested")
    before = pickle.dumps(t)
    expected = hashlib.sha1(dumps_canonical(t.to_json()).encode()).hexdigest()[:12]
    assert t.digest() == expected
    assert t.digest() is t.digest()  # computed once
    assert pickle.dumps(t) == before
    twin = make_transition(Action("sleep", {}), True, feedback="rested")
    assert t == twin and twin.digest() == expected
    assert pickle.loads(before) == t and copy.deepcopy(t).digest() == expected
    assert Transition.from_json(t.to_json()).to_json() == t.to_json()


def test_trajectory_ndjson_round_trip():
    t = make_transition(Action("sleep", {}), True)
    traj = Trajectory((t, t), seed=42, config_id="default")
    assert Trajectory.from_ndjson(traj.to_ndjson()) == traj


def test_trajectory_chain_validation():
    a = make_obs(position="grass")
    b = make_obs(position="sand")
    t1 = Transition(a, Action("sleep", {}), Outcome(True), b)
    t2 = Transition(b, Action("sleep", {}), Outcome(True), a)
    Trajectory((t1, t2)).validate_chain()
    broken = Trajectory((t1, Transition(a, Action("sleep", {}), Outcome(True), a)))
    with pytest.raises(ValueError):
        broken.validate_chain()


# -- classification -----------------------------------------------------------

def _pair(success_real, success_pred):
    obs = make_obs()
    action = Action("sleep", {})
    real = Transition(obs, action, Outcome(success_real, "r"), obs)
    pred = Transition(obs, action, Outcome(success_pred, "p"), obs)
    return real, pred


def _trajectories(bits):
    reals, preds = zip(*[_pair(r, p) for r, p in bits])
    return Trajectory(tuple(reals)), Trajectory(tuple(preds))


def test_classify_identity_case():
    real, pred = _trajectories([(True, True)] * 4)
    correct, incorrect = classify_transitions(real, pred)
    assert correct.indices == (0, 1, 2, 3)
    assert incorrect.indices == ()


def test_classify_forced_example():
    real, pred = _trajectories([(True, True), (False, True), (True, True)])
    correct, incorrect = classify_transitions(real, pred)
    assert correct.indices == (0, 2)
    assert incorrect.indices == (1,)
    assert incorrect.predictions[0].success is True
    assert incorrect.transitions[0].outcome.success is False


def test_classify_scripted_35_percent_wrong():
    # 20-step episode, a predictor scripted to be wrong at exactly 7 indices
    # (35% of 20); the expectation below is enumerated independently.
    wrong = {2, 5, 7, 9, 11, 13, 17}
    bits = [(True, i not in wrong) for i in range(20)]
    real, pred = _trajectories(bits)
    correct, incorrect = classify_transitions(real, pred)
    # independent enumeration of the expectation
    expected_incorrect = tuple(sorted(wrong))
    assert incorrect.indices == expected_incorrect
    assert len(incorrect) == 7
    assert len(correct) + len(incorrect) == 20


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_classification_is_a_partition(bits):
    real, pred = _trajectories(bits)
    correct, incorrect = classify_transitions(real, pred)
    assert len(correct) + len(incorrect) == len(real)
    assert set(correct.indices) | set(incorrect.indices) == set(range(len(real)))
    assert set(correct.indices) & set(incorrect.indices) == set()


def test_classify_length_mismatch():
    real, _ = _trajectories([(True, True)])
    _, pred = _trajectories([(True, True), (True, True)])
    with pytest.raises(LengthMismatch):
        classify_transitions(real, pred)


def test_classify_prefix_mismatch():
    obs = make_obs()
    real = Trajectory((Transition(obs, Action("sleep", {}), Outcome(True), obs),))
    other = Trajectory(
        (Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True), obs),)
    )
    with pytest.raises(PrefixMismatch):
        classify_transitions(real, other)
