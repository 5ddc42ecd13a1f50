"""Shared domain types for agent-environment interaction.

Observations, actions, outcomes and trajectories are frozen dataclasses with
a stable JSON wire format, so every other module can pass them around or
persist them without ceremony.  Trajectories come in two flavours that share
one type: real ones produced by the environment (which chain step to step)
and predicted ones produced by a world model (which generally do not).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

ACTION_NAMES = ("mine", "attack", "sleep", "place", "make", "explore")

# Argument schema per action name.  Validation is strict: an action must
# carry exactly these keys with these types.
ACTION_ARGS: dict[str, dict[str, type]] = {
    "mine": {"block_name": str, "amount": int},
    "attack": {"creature": str, "amount": int},
    "sleep": {},
    "place": {"block_name": str},
    "make": {"tool_name": str},
    "explore": {"direction": str, "steps": int},
}

# Union of argument names, used by the rule DSL to type-check arg references.
ALL_ARG_NAMES: dict[str, type] = {
    name: typ for args in ACTION_ARGS.values() for name, typ in args.items()
}

STATUS_FIELDS = ("health", "food", "drink", "energy")
STATUS_MAX = 9
DIRECTIONS = ("north", "south", "east", "west")

# Mining prerequisite ladder shared by config defaults and rule evaluation.
DEFAULT_TOOL_TIERS = ("wood_pickaxe", "stone_pickaxe", "iron_pickaxe")


def has_tool_at_least(
    inventory: Mapping[str, int], tier: str | None, tiers: Sequence[str]
) -> bool:
    """True when `inventory` holds `tier` or a later entry of the `tiers`
    ladder; always true for tier None (bare hands).  Raises ValueError for a
    tier outside the ladder."""
    if tier is None:
        return True
    return any(inventory.get(t, 0) > 0 for t in tiers[tiers.index(tier):])


FORMAT = 2  # the trajectory file format `Trajectory.to_ndjson` writes


class LengthMismatch(ValueError):
    """Real and predicted trajectories differ in length."""


class PrefixMismatch(ValueError):
    """Real and predicted trajectories diverge in an (obs, action) pair."""


# Built once: `json.dumps` with non-default arguments builds a new encoder on
# every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: object) -> str:
    """Serialize to JSON with a byte-stable layout (sorted keys, no spaces)."""
    return _CANONICAL_ENCODER.encode(obj)


@dataclass(frozen=True)
class VisibleObject:
    """One entry of an observation's visible-object list, offsets relative
    to the agent (x = columns east, y = rows south)."""

    type: str
    x: int
    y: int
    # Memo read as an attribute: the class default stands in until the first
    # `canonical()` call.  Reading `__dict__` would materialise a per-instance
    # dict, which slows every later attribute read of the object.
    _text = None

    def to_json(self) -> dict:
        return {"type": self.type, "x": self.x, "y": self.y}

    def canonical(self) -> str:
        """`dumps_canonical(self.to_json())`, computed once per instance and
        stored beside the frozen fields (outside equality, hashing, repr and
        pickled state).  Interned objects therefore serialize once."""
        text = self._text
        if text is None:
            # Written out, not dumped: a `json.dumps` call costs more than the
            # rest of composing a fresh observation.  The type goes through
            # json's own ASCII escaper; x and y are ints, which json writes
            # as their repr.
            escaped = json.encoder.encode_basestring_ascii(self.type)
            text = f'{{"type":{escaped},"x":{self.x!r},"y":{self.y!r}}}'
            object.__setattr__(self, "_text", text)
        return text

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_text", None)
        return state


class VisibleObjectPool(dict):
    """(type, x, y) -> the one VisibleObject with those fields.

    A hash-consing table: observations built through one pool share their
    equal visible objects, and with them each object's memoised text."""

    def __missing__(self, key: tuple[str, int, int]) -> VisibleObject:
        obj = self[key] = VisibleObject(*key)
        return obj


@dataclass(frozen=True)
class Status:
    health: int
    food: int
    drink: int
    energy: int

    def __post_init__(self) -> None:
        for name in STATUS_FIELDS:
            value = getattr(self, name)
            if not 0 <= value <= STATUS_MAX:
                raise ValueError(f"status.{name}={value} outside [0, {STATUS_MAX}]")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in STATUS_FIELDS}

    @staticmethod
    def from_json(data: dict) -> "Status":
        return Status(*(int(data[name]) for name in STATUS_FIELDS))


@dataclass(frozen=True)
class Observation:
    """Agent-visible snapshot of the world.

    `position` is the terrain the agent stands on, `in_front` the cell it is
    facing.  `near_objects` must be a subset of what is otherwise visible.
    """

    position: str
    in_front: str
    visible_objects: tuple[VisibleObject, ...]
    near_objects: frozenset[str]
    status: Status
    inventory: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        visible_types = {v.type for v in self.visible_objects}
        visible_types.update((self.position, self.in_front))
        stray = self.near_objects - visible_types
        if stray:
            raise ValueError(f"near_objects not visible anywhere: {sorted(stray)}")
        for item, count in self.inventory.items():
            if count < 0:
                raise ValueError(f"inventory[{item}]={count} negative")

    def inventory_count(self, item: str) -> int:
        return self.inventory.get(item, 0)

    def to_json(self) -> dict:
        return {
            "position": self.position,
            "in_front": self.in_front,
            "visible_objects": [v.to_json() for v in self.visible_objects],
            "near_objects": sorted(self.near_objects),
            "status": self.status.to_json(),
            "inventory": dict(sorted(self.inventory.items())),
        }

    def canonical(self) -> str:
        """`dumps_canonical(self.to_json())`, composed from the visible
        objects' memoised texts.  `visible_objects` is the last key in sorted
        order, so the other fields are dumped as one object and the list is
        spliced in before its closing brace.  Not memoised: the inventory is
        a plain dict, and the text would outlive the writer that needs it."""
        head = dumps_canonical({
            "in_front": self.in_front,
            "inventory": self.inventory,
            "near_objects": sorted(self.near_objects),
            "position": self.position,
            "status": self.status.to_json(),
        })
        visible = ",".join(map(VisibleObject.canonical, self.visible_objects))
        return f'{head[:-1]},"visible_objects":[{visible}]}}'

    @staticmethod
    def from_json(data: dict, pool: VisibleObjectPool | None = None) -> "Observation":
        """Parse one observation; equal visible objects come from `pool`, so
        a reader that passes one pool for a whole file interns them."""
        pool = VisibleObjectPool() if pool is None else pool
        return Observation(
            position=str(data["position"]),
            in_front=str(data["in_front"]),
            visible_objects=tuple(
                pool[str(v["type"]), int(v["x"]), int(v["y"])]
                for v in data["visible_objects"]
            ),
            near_objects=frozenset(str(n) for n in data["near_objects"]),
            status=Status.from_json(data["status"]),
            inventory={str(k): int(v) for k, v in data["inventory"].items()},
        )


@dataclass(frozen=True)
class Action:
    name: str
    args: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in ACTION_NAMES:
            raise ValueError(f"unknown action {self.name!r}")
        schema = ACTION_ARGS[self.name]
        if set(self.args) != set(schema):
            raise ValueError(
                f"{self.name} takes args {sorted(schema)}, got {sorted(self.args)}"
            )
        for key, typ in schema.items():
            value = self.args[key]
            if typ is int:
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"{self.name}.{key} must be a positive int")
            elif not isinstance(value, str):
                raise ValueError(f"{self.name}.{key} must be a string")
        if "direction" in self.args and self.args["direction"] not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.args['direction']!r}")

    def to_json(self) -> dict:
        return {"name": self.name, "args": dict(sorted(self.args.items()))}

    @staticmethod
    def from_json(data: dict) -> "Action":
        return Action(str(data["name"]), dict(data["args"]))


@dataclass(frozen=True)
class Outcome:
    """Binary result of an action plus explanatory strings.

    Successful outcomes never carry a suggestion; failed ones may, when a
    rule or predictor supplied one.
    """

    success: bool
    feedback: str = ""
    suggestion: str = ""

    def __post_init__(self) -> None:
        if self.success and self.suggestion:
            raise ValueError("successful outcomes carry no suggestion")

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "feedback": self.feedback,
            "suggestion": self.suggestion,
        }

    @staticmethod
    def from_json(data: dict) -> "Outcome":
        return Outcome(
            bool(data["success"]),
            str(data.get("feedback", "")),
            str(data.get("suggestion", "")),
        )


@dataclass(frozen=True)
class Transition:
    obs: Observation
    action: Action
    outcome: Outcome
    next_obs: Observation
    _digest = None  # memo of digest(), read as an attribute like VisibleObject._text

    def to_json(self) -> dict:
        return {
            "obs": self.obs.to_json(),
            "action": self.action.to_json(),
            "outcome": self.outcome.to_json(),
            "next_obs": self.next_obs.to_json(),
        }

    @staticmethod
    def from_json(data: dict, pool: VisibleObjectPool | None = None) -> "Transition":
        pool = VisibleObjectPool() if pool is None else pool
        return Transition(
            Observation.from_json(data["obs"], pool),
            Action.from_json(data["action"]),
            Outcome.from_json(data["outcome"]),
            Observation.from_json(data["next_obs"], pool),
        )

    def canonical(self) -> str:
        """`dumps_canonical(self.to_json())`, composed from fragments in the
        canonical key order `action`, `next_obs`, `obs`, `outcome`."""
        return (
            f'{{"action":{dumps_canonical(self.action.to_json())}'
            f',"next_obs":{self.next_obs.canonical()}'
            f',"obs":{self.obs.canonical()}'
            f',"outcome":{dumps_canonical(self.outcome.to_json())}}}'
        )

    def digest(self) -> str:
        """Short content hash of `canonical()`, used as a stable transition
        id.

        Computed once per instance: the fields are frozen, so the hash is
        stored beside them (outside equality, hashing and pickled state).
        """
        cached = self._digest
        if cached is None:
            import hashlib

            cached = hashlib.sha1(self.canonical().encode()).hexdigest()[:12]
            object.__setattr__(self, "_digest", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_digest", None)
        return state


@dataclass(frozen=True)
class Trajectory:
    transitions: tuple[Transition, ...]
    seed: int = 0
    config_id: str = ""

    def __len__(self) -> int:
        return len(self.transitions)

    def __getitem__(self, i: int) -> Transition:
        return self.transitions[i]

    def validate_chain(self) -> None:
        """Check temporal consistency (real trajectories only: step t's
        next_obs is step t+1's obs)."""
        for i, (t, after) in enumerate(zip(self.transitions, self.transitions[1:])):
            if t.next_obs is not after.obs and t.next_obs != after.obs:
                raise ValueError(f"trajectory chain broken between steps {i} and {i + 1}")

    def to_ndjson(self, real: "Trajectory | None" = None) -> str:
        """Format 2: a head line, then one `{"action","next_obs","outcome"}`
        line per transition, each in canonical JSON.

        Alone, this is a real trajectory, which must chain (ValueError
        otherwise): the head holds `format`, `meta` and `obs`, the first
        observation (null when there is none), and step t+1's obs is step
        t's `next_obs`.  Given the `real` trajectory it was predicted
        along, this is a delta against it: the head holds `"delta":"real"`
        in place of `obs`, and step t's obs is the real step t's, which must
        match (LengthMismatch / PrefixMismatch otherwise).  In both, a
        `next_obs` equal to the step's own obs is written as the reference
        `"obs"`, so each observation is composed at most once.
        """
        steps = self.transitions
        meta = dumps_canonical({"seed": self.seed, "config_id": self.config_id})
        if real is None:
            self.validate_chain()
            first = steps[0].obs.canonical() if steps else "null"
            lines = [f'{{"format":{FORMAT},"meta":{meta},"obs":{first}}}']
        else:
            _same_length(real, len(steps))
            for i, (r, p) in enumerate(zip(real.transitions, steps)):
                if p.obs is not r.obs and p.obs != r.obs:
                    raise PrefixMismatch(f"obs diverge at index {i}")
            lines = [f'{{"delta":"real","format":{FORMAT},"meta":{meta}}}']
        for t in steps:
            nxt = t.next_obs
            nxt_text = '"obs"' if nxt is t.obs or nxt == t.obs else nxt.canonical()
            lines.append(
                f'{{"action":{dumps_canonical(t.action.to_json())}'
                f',"next_obs":{nxt_text}'
                f',"outcome":{dumps_canonical(t.outcome.to_json())}}}'
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_ndjson(text: str, real: "Trajectory | None" = None) -> "Trajectory":
        """Parse `to_ndjson(real)` output; a delta file needs the same
        `real`.  Step t+1's obs is step t's `next_obs` instance, and equal
        visible objects within the file are interned to one instance."""
        lines = [line for line in text.splitlines() if line.strip()]
        head = json.loads(lines[0]) if lines else None
        found = head.get("format") if isinstance(head, dict) else None
        if found != FORMAT:
            raise ValueError(f"not a format-{FORMAT} trajectory file (format {found!r})")
        if ("delta" in head) != (real is not None):
            raise ValueError("a delta file is read with its real trajectory, a real file alone")
        body = lines[1:]
        if real is not None:
            _same_length(real, len(body))
        pool = VisibleObjectPool()
        obs = Observation.from_json(head["obs"], pool) if body and real is None else None
        steps = []
        for i, line in enumerate(body):
            record = json.loads(line)
            if real is not None:
                obs = real.transitions[i].obs
            nxt = record["next_obs"]
            next_obs = obs if nxt == "obs" else Observation.from_json(nxt, pool)
            action = Action.from_json(record["action"])
            steps.append(Transition(obs, action, Outcome.from_json(record["outcome"]), next_obs))
            obs = next_obs
        meta = head["meta"]
        return Trajectory(tuple(steps), int(meta["seed"]), str(meta["config_id"]))


def _same_length(real: Trajectory, predicted: int) -> None:
    if len(real) != predicted:
        raise LengthMismatch(f"real has {len(real)} transitions, predicted {predicted}")


def classify_transitions(
    real: Trajectory, predicted: Trajectory
) -> list[tuple[Transition, Outcome]]:
    """The mispredictions of an aligned pair, in step order: each real
    transition whose predicted success bit differs from the real one, with
    the outcome the base predictor claimed for it.

    Full next observations are deliberately not compared.
    """
    _same_length(real, len(predicted))
    mispredictions = []
    for i, (r, p) in enumerate(zip(real.transitions, predicted.transitions)):
        if r.obs != p.obs or r.action != p.action:
            raise PrefixMismatch(f"(obs, action) diverge at index {i}")
        if p.outcome.success != r.outcome.success:
            mispredictions.append((r, p.outcome))
    return mispredictions
