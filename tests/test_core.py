import copy
import hashlib
import json
import pickle
import re

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
    VisibleObject,
    VisibleObjectPool,
    classify_transitions,
    dumps_canonical,
)

from conftest import actions, make_obs, make_transition, observations, runs


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

@given(observations)
def test_observation_json_round_trip(obs):
    assert Observation.from_json(json.loads(json.dumps(obs.to_json()))) == obs


def _without(key, *path):
    def edit(data):
        inner = data
        for step in path:
            inner = inner[step]
        del inner[key]
        return data
    return edit


def _set(value, key, *path):
    def edit(data):
        inner = data
        for step in path:
            inner = inner[step]
        inner[key] = value
        return data
    return edit


NOT_VISIBLE_OBJECTS = "field 'visible_objects' is not an array of {type: str, x: int, y: int}"

MALFORMED_OBSERVATIONS = {
    "not_an_object": (lambda data: [data], "not a JSON object"),
    "without_position": (_without("position"), "missing field 'position'"),
    "visible_object_without_x": (_without("x", "visible_objects", 0), NOT_VISIBLE_OBJECTS),
    "visible_object_type_is_a_number": (_set(7, "type", "visible_objects", 0),
                                        NOT_VISIBLE_OBJECTS),
    "visible_object_is_an_array": (_set([], 0, "visible_objects"), NOT_VISIBLE_OBJECTS),
    "status_food_is_a_string": (_set("9", "food", "status"),
                                "status: field 'food' has the wrong type (str)"),
    "near_object_is_a_number": (_set([7], "near_objects"),
                                "field 'near_objects' is not an array of strings"),
    "inventory_count_is_a_string": (_set({"wood": "1"}, "inventory"),
                                    "field 'inventory' is not an object of integers"),
    "near_objects_is_an_object": (_set({}, "near_objects"),
                                  "field 'near_objects' has the wrong type (dict)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OBSERVATIONS))
def test_malformed_observation_is_a_value_error_naming_the_field(case):
    edit, detail = MALFORMED_OBSERVATIONS[case]
    data = edit(make_obs(near=("tree",), visible=(("tree", 1, 0),)).to_json())
    with pytest.raises(ValueError) as err:
        Observation.from_json(data)
    assert str(err.value) == detail


@pytest.mark.parametrize("x", [True, 1.0])
def test_a_visible_object_with_a_bool_or_float_x_is_rejected_after_an_equal_int(x):
    """True and 1.0 equal 1 and hash like it, so they would hit the pooled
    object of ("tree", 1, 0); the verdict must not depend on what the pool
    already holds."""
    pool = VisibleObjectPool()
    good = make_obs(near=("tree",), visible=(("tree", 1, 0),)).to_json()
    Observation.from_json(good, pool)
    bad = _set(x, "x", "visible_objects", 0)(json.loads(json.dumps(good)))
    for fresh in (pool, VisibleObjectPool()):
        with pytest.raises(ValueError, match=re.escape(NOT_VISIBLE_OBJECTS)):
            Observation.from_json(bad, fresh)


@given(actions)
def test_action_json_round_trip(action):
    assert Action(**json.loads(json.dumps(action.to_json()))) == action


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


def test_trajectory_ndjson_round_trip():
    t = make_transition(Action("sleep", {}), True)
    for steps in ((), (t,), (t, t)):  # empty, one step, two
        traj = Trajectory(steps, seed=42, config_id="default")
        assert Trajectory.from_ndjson(traj.to_ndjson()) == traj
        assert Trajectory.from_ndjson(traj.to_ndjson(traj), traj) == traj


def _reference_lines(traj, head):
    """Format 2 dumped whole, one canonical dump per line."""
    lines = [dumps_canonical(head)]
    for t in traj.transitions:
        next_obs = "obs" if t.next_obs == t.obs else t.next_obs.to_json()
        lines.append(dumps_canonical(
            {"action": t.action.to_json(), "next_obs": next_obs, "outcome": t.outcome.to_json()}
        ))
    return "\n".join(lines) + "\n"


@given(runs())
def test_composed_ndjson_and_digest_match_the_reference(run):
    real, predicted = run
    meta = {"seed": real.seed, "config_id": real.config_id}
    first = real.transitions[0].obs.to_json() if real.transitions else None
    assert real.to_ndjson() == _reference_lines(real, {"format": 2, "meta": meta, "obs": first})
    assert predicted.to_ndjson(real) == _reference_lines(
        predicted, {"delta": "real", "format": 2, "meta": meta}
    )
    # Reference: one canonical dump per digest blob.
    for t in real.transitions + predicted.transitions:
        line = dumps_canonical(t.to_json())
        assert t.canonical() == line
        assert t.digest() == hashlib.sha1(line.encode()).hexdigest()[:12]


@given(runs())
def test_reader_interns_equal_visible_objects(run):
    real, predicted = run
    real_text, predicted_text = real.to_ndjson(), predicted.to_ndjson(real)
    parsed = Trajectory.from_ndjson(real_text)
    parsed_predicted = Trajectory.from_ndjson(predicted_text, parsed)
    assert (parsed, parsed_predicted) == (real, predicted)
    assert parsed.to_ndjson() == real_text
    assert parsed_predicted.to_ndjson(parsed) == predicted_text
    for t, after in zip(parsed.transitions, parsed.transitions[1:]):
        assert after.obs is t.next_obs
    for r, p in zip(parsed.transitions, parsed_predicted.transitions):
        assert p.obs is r.obs
    # Each file interns the objects of the observations it holds: the real
    # file all of them, the delta file the estimates it does not refer to.
    for observations in ([o for t in parsed.transitions for o in (t.obs, t.next_obs)],
                         [t.next_obs for t in parsed_predicted.transitions
                          if t.next_obs is not t.obs]):
        first: dict[VisibleObject, VisibleObject] = {}
        for obs in observations:
            for v in obs.visible_objects:
                assert first.setdefault(v, v) is v


def test_writer_rejects_what_the_format_cannot_express():
    a = make_obs(position="grass")
    b = make_obs(position="sand")
    t1 = Transition(a, Action("sleep", {}), Outcome(True), b)
    broken = Trajectory((t1, Transition(a, Action("sleep", {}), Outcome(True), a)))
    with pytest.raises(ValueError, match="chain broken between steps 0 and 1"):
        broken.to_ndjson()
    real = Trajectory((t1,))
    with pytest.raises(PrefixMismatch):  # a predicted obs that is not the real one
        Trajectory((Transition(b, Action("sleep", {}), Outcome(False), b),)).to_ndjson(real)
    with pytest.raises(LengthMismatch, match="real has 1 transitions, predicted 2"):
        Trajectory((t1, t1)).to_ndjson(real)


def test_reader_rejects_other_formats_and_a_delta_read_alone():
    t = make_transition(Action("sleep", {}), True)
    real = Trajectory((t,), 1, "default")
    v1 = dumps_canonical({"meta": {"seed": 1, "config_id": "default"}}) + "\n" + t.canonical()
    with pytest.raises(ValueError, match="not a format-2 trajectory file \\(format None\\)"):
        Trajectory.from_ndjson(v1)
    with pytest.raises(ValueError, match="delta file"):
        Trajectory.from_ndjson(real.to_ndjson(real))
    with pytest.raises(ValueError, match="delta file"):
        Trajectory.from_ndjson(real.to_ndjson(), real)
    with pytest.raises(LengthMismatch, match="real has 2"):
        Trajectory.from_ndjson(real.to_ndjson(real), Trajectory((t, t)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
def test_dumps_canonical_equals_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_visible_object_text_is_memoised_outside_equality_hashing_repr_and_pickling():
    v = VisibleObject("石", -2, 3)
    pickled, shown, hashed = pickle.dumps(v), repr(v), hash(v)
    text = v.canonical()
    assert text == dumps_canonical(v.to_json()) == '{"type":"\\u77f3","x":-2,"y":3}'
    assert v.canonical() is text  # computed once
    assert (pickle.dumps(v), repr(v), hash(v)) == (pickled, shown, hashed)
    assert v == VisibleObject("石", -2, 3)
    assert copy.deepcopy(v).canonical() == text
    # Writing a trajectory memoises its objects' texts, not its pickled state.
    t = make_transition(Action("sleep", {}), True, obs=make_obs(visible=(v, ("cow", 1, 0))))
    traj = Trajectory((t,))
    before = pickle.dumps(traj)
    traj.to_ndjson()
    assert pickle.dumps(traj) == before


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


def _expected(real, pred, indices):
    """The misprediction pairs at `indices`: the real transition itself and
    the predicted outcome itself."""
    return [(real.transitions[i], pred.transitions[i].outcome) for i in indices]


def _same_pairs(got, expected):
    return len(got) == len(expected) and all(
        t is et and o is eo for (t, o), (et, eo) in zip(got, expected)
    )


def test_classify_identity_case():
    real, pred = _trajectories([(True, True)] * 4)
    assert classify_transitions(real, pred) == []


def test_classify_forced_example():
    real, pred = _trajectories([(True, True), (False, True), (True, True)])
    mispredictions = classify_transitions(real, pred)
    assert _same_pairs(mispredictions, _expected(real, pred, [1]))
    transition, predicted = mispredictions[0]
    assert predicted.success is True
    assert transition.outcome.success is False


def test_classify_scripted_35_percent_wrong():
    # 20-step episode, a predictor scripted to be wrong at exactly 7 indices
    # (35% of 20); the expectation below is enumerated independently.
    wrong = {2, 5, 7, 9, 11, 13, 17}
    bits = [(True, i not in wrong) for i in range(20)]
    real, pred = _trajectories(bits)
    mispredictions = classify_transitions(real, pred)
    # independent enumeration of the expectation
    assert _same_pairs(mispredictions, _expected(real, pred, sorted(wrong)))
    assert len(mispredictions) == 7


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_classification_is_a_partition(bits):
    # Exactly the differing steps' pairs, in step order; the agreeing steps
    # are the rest.
    real, pred = _trajectories(bits)
    differing = [i for i, (r, p) in enumerate(bits) if r != p]
    assert _same_pairs(classify_transitions(real, pred), _expected(real, pred, differing))


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
