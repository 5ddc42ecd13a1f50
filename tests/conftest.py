from __future__ import annotations

import copy
from typing import Callable

import hypothesis
import pytest
from hypothesis import strategies as st

from worldalign.core import (
    Action,
    Observation,
    Outcome,
    Status,
    Trajectory,
    Transition,
    VisibleObject,
)


def make_obs(
    position: str = "grass",
    in_front: str = "grass",
    near: tuple[str, ...] = (),
    visible: tuple[tuple[str, int, int] | VisibleObject, ...] = (),
    status: tuple[int, int, int, int] = (9, 9, 9, 9),
    inventory: dict[str, int] | None = None,
) -> Observation:
    """Observation builder that keeps the near-implies-visible invariant.
    `visible` entries are (type, x, y) tuples or VisibleObject instances,
    which are kept as given (so observations can share them)."""
    objects = [v if isinstance(v, VisibleObject) else VisibleObject(*v) for v in visible]
    seen = {v.type for v in objects} | {position, in_front}
    for i, name in enumerate(near):
        if name not in seen:
            objects.append(VisibleObject(name, 1, -i))
            seen.add(name)
    return Observation(
        position=position,
        in_front=in_front,
        visible_objects=tuple(objects),
        near_objects=frozenset(near),
        status=Status(*status),
        inventory=dict(inventory or {}),
    )


def make_transition(
    action: Action,
    success: bool,
    obs: Observation | None = None,
    next_obs: Observation | None = None,
    feedback: str = "",
) -> Transition:
    obs = obs or make_obs()
    return Transition(obs, action, Outcome(success, feedback), next_obs or obs)


class ScriptedPredictor:
    """Table-driven predictor for tests: success keyed by action name, with
    an optional override function for finer scripting."""

    def __init__(
        self,
        by_action: dict[str, bool] | None = None,
        default: bool = True,
        override: Callable[[Observation, Action], bool | None] | None = None,
    ):
        self.by_action = dict(by_action or {})
        self.default = default
        self.override = override

    def predict(self, obs: Observation, action: Action) -> Outcome:
        if self.override is not None:
            forced = self.override(obs, action)
            if forced is not None:
                return Outcome(forced, "scripted prediction")
        return Outcome(self.by_action.get(action.name, self.default), "scripted prediction")


@pytest.fixture
def obs_factory():
    return make_obs


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_warm_up():
    """Make one draw before any test runs.  The first draw of a session
    scans the local modules for constants (cached in `.hypothesis/` only
    afterwards), which can take seconds; paid inside a test, it fails that
    test's health check for slow input generation in a fresh checkout."""
    hypothesis.find(st.text(min_size=1), lambda s: True)


# -- hypothesis strategies ------------------------------------------------------
# Names mix ASCII with accented and CJK text, which canonical JSON escapes.

TYPE_NAMES = ("stone", "cow", "plant", "table", "árbol", "石", "zömbie")
ITEM_NAMES = ("wood", "stone", "iron", "wood_pickaxe", "ñame", "鉄")

visible_objects = st.builds(
    VisibleObject, st.sampled_from(TYPE_NAMES), st.integers(-4, 4), st.integers(-3, 3)
)


def observations_over(objects: st.SearchStrategy) -> st.SearchStrategy:
    """Observations whose visible objects are drawn from `objects`; pass a
    `sampled_from` over a drawn list to share instances."""
    return st.builds(
        make_obs,
        position=st.sampled_from(["grass", "sand", "césped"]),
        in_front=st.sampled_from(["grass", "water", "table", "tree", "石"]),
        near=st.lists(
            st.sampled_from(["table", "tree", "water", "zombie", "árbol"]),
            max_size=3, unique=True,
        ).map(tuple),
        visible=st.lists(objects, max_size=5).map(tuple),
        status=st.tuples(*[st.integers(0, 9)] * 4),
        inventory=st.dictionaries(st.sampled_from(ITEM_NAMES), st.integers(0, 9), max_size=4),
    )


# Each observation draws from its own small pool, so the same VisibleObject
# instance can occur more than once in one observation.
observations = st.lists(visible_objects, min_size=1, max_size=4).flatmap(
    lambda pool: observations_over(st.sampled_from(pool))
)

actions = st.one_of(
    st.builds(lambda: Action("sleep", {})),
    st.builds(
        lambda b, n: Action("mine", {"block_name": b, "amount": n}),
        st.sampled_from(["tree", "stone", "plant", "石"]),
        st.integers(1, 3),
    ),
    st.builds(
        lambda d, n: Action("explore", {"direction": d, "steps": n}),
        st.sampled_from(["north", "south", "east", "west"]),
        st.integers(1, 5),
    ),
    st.builds(
        lambda t: Action("make", {"tool_name": t}),
        st.sampled_from(["wood_pickaxe", "pico_de_madera"]),
    ),
)

outcomes = st.booleans().flatmap(
    lambda success: st.builds(
        Outcome, st.just(success), st.text(max_size=12),
        st.just("") if success else st.text(max_size=12),
    )
)


@st.composite
def runs(draw) -> tuple[Trajectory, Trajectory]:
    """A real trajectory that chains (0 to 6 steps; a step's `next_obs` may
    be its own `obs`, or an equal copy of it) and a prediction along it: the
    same obs and actions, other outcomes, and `next_obs` estimates that do
    and do not equal the step's obs."""
    pool = draw(st.lists(visible_objects, min_size=1, max_size=6))
    seen = draw(st.lists(observations_over(st.sampled_from(pool)), min_size=1, max_size=4))
    seed, config_id = draw(st.integers(0, 99)), draw(st.sampled_from(["", "taskdep", "día"]))

    def observation():
        obs = draw(st.sampled_from(seen))
        return copy.copy(obs) if draw(st.booleans()) else obs

    obs = observation()
    real, predicted = [], []
    for _ in range(draw(st.integers(0, 6))):
        action, next_obs = draw(actions), observation()
        real.append(Transition(obs, action, draw(outcomes), next_obs))
        predicted.append(Transition(obs, action, draw(outcomes), observation()))
        obs = next_obs
    return (Trajectory(tuple(real), seed, config_id),
            Trajectory(tuple(predicted), seed, config_id))
