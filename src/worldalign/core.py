"""Shared domain types for agent-environment interaction.

Observations, actions, outcomes and trajectories are frozen dataclasses with
a stable JSON wire format, so every other module can pass them around or
persist them without ceremony.  Trajectories come in two flavours that share
one type: real ones produced by the environment (which chain step to step)
and predicted ones produced by a world model (which generally do not).
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

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

NUMBER = (int, float)  # the `require` types of a JSON number

_ABSENT = MISSING  # no default, for `require` as for a dataclass field


def require(data, name: str, where: str = "", types: type | tuple = object, default=_ABSENT):
    """`data[name]` from a parsed JSON value, or a ValueError naming the
    place (`where`, e.g. "line 3: outcome") and the field when `data` is not
    an object, the field is missing and has no `default`, or its value is not
    of `types`.  A bool passes only as `bool` or `object`, never as a number."""
    try:
        value = data[name]
    except KeyError:
        if default is not _ABSENT:
            return default
        problem = f"missing field {name!r}"
    except TypeError:
        raise ValueError(f"{where} is not a JSON object" if where else "not a JSON object") from None
    else:
        if value.__class__ is types or types is object or (
            value.__class__ is not bool and isinstance(value, types)
        ):
            return value
        problem = f"field {name!r} has the wrong type ({type(value).__name__})"
    raise ValueError(f"{where}: {problem}" if where else problem)


def to_json(obj):
    """The JSON value of a plain dataclass: its fields in order, nested
    dataclasses in turn, dicts with their keys sorted, tuples as arrays."""
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: to_json(obj[key]) for key in sorted(obj)}
    if isinstance(obj, tuple):
        return [to_json(item) for item in obj]
    return obj


_hints = cache(get_type_hints)


def from_json(cls: type, data, where: str = ""):
    """Parse `to_json` output into dataclass `cls`. The field annotations are
    the schema and every leaf goes through `require`, so a malformed value,
    or one that `cls` rejects, is a ValueError naming the place and the field
    (`modifications: 0: recipes: field 'table' has the wrong type (int)`). A
    field with a default may be absent, unless `cls._json_required` names it;
    `cls._json_defaults` holds defaults that only the file format has."""
    required = getattr(cls, "_json_required", ())
    defaults = getattr(cls, "_json_defaults", {})
    values = {}
    for f in fields(cls):
        default = f.default if f.default_factory is _ABSENT else f.default_factory()
        default = _ABSENT if f.name in required else defaults.get(f.name, default)
        values[f.name] = _read(_hints(cls)[f.name], data, f.name, where, default)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}" if where else str(exc)) from None


def _read(hint, data, key, where: str, default=_ABSENT):
    """`data[key]` as type `hint`: `str`, `int` and `bool` exactly, `float` as
    any number, `X | None` as X or null; `dict[str, X]`, `tuple[X, ...]` (or
    `tuple[X, X]`: its class checks the length) and dataclasses item by item."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is not dict and origin is not tuple and not is_dataclass(hint):
        return require(data, key, where, NUMBER if hint is float else args or hint, default)
    value = require(data, key, where, list if origin is tuple else dict, default)
    if value is default:
        return value
    where = f"{where}: {key}" if where else str(key)
    if origin is dict:
        return {name: _read(args[1], value, name, where) for name in value}
    if origin is tuple:
        return tuple(_read(args[0], value, i, where) for i in range(len(value)))
    return from_json(hint, value, where)


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


class Memoised:
    """Base of the values that keep memos beside their fields, each named
    with a leading "_" (no field is) and read as an attribute whose class
    default stands in until the first computation (reading `__dict__` would
    give each instance a dict, which slows every later attribute read).
    Memos stay out of equality, repr and pickled state: a `str` hash is
    salted per process."""

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name[0] != "_"}


@dataclass(frozen=True)
class VisibleObject(Memoised):
    """One entry of an observation's visible-object list, offsets relative
    to the agent (x = columns east, y = rows south)."""

    type: str
    x: int
    y: int
    _text = None  # memo of canonical()

    def to_json(self) -> dict:
        return {"type": self.type, "x": self.x, "y": self.y}

    def canonical(self) -> str:
        """`dumps_canonical(self.to_json())`, computed once per instance, so
        interned objects serialize once."""
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
        a reader that passes one pool for a whole file interns them.  A value
        that is not an observation is a ValueError naming the field."""
        pool = VisibleObjectPool() if pool is None else pool
        visible = require(data, "visible_objects", types=list)
        near = require(data, "near_objects", types=list)
        inventory = require(data, "inventory", types=dict)
        status = require(data, "status", types=dict)
        try:
            # Every object's classes are checked, pool hits too: a bool or a
            # float x equals an int and would hit that int's object.
            objects = tuple(
                pool[v["type"], v["x"], v["y"]] for v in visible
                if v["type"].__class__ is str and v["x"].__class__ is int and v["y"].__class__ is int
            )
        except (KeyError, TypeError):
            objects = None
        if objects is None or len(objects) != len(visible):
            raise ValueError("field 'visible_objects' is not an array of {type: str, x: int, y: int}")
        if not all(n.__class__ is str for n in near):
            raise ValueError("field 'near_objects' is not an array of strings")
        if not all(count.__class__ is int for count in inventory.values()):
            raise ValueError("field 'inventory' is not an object of integers")
        return Observation(
            position=require(data, "position", types=str),
            in_front=require(data, "in_front", types=str),
            visible_objects=objects,
            near_objects=frozenset(near),
            status=Status(*(require(status, name, "status", int) for name in STATUS_FIELDS)),
            inventory=inventory,
        )


def check_action(name: str, args: dict) -> None:
    """The action schema: ValueError unless `name` is an action and `args`
    carries exactly its keys with its types (positive ints, known
    directions)."""
    schema = ACTION_ARGS.get(name)
    if schema is None:
        raise ValueError(f"unknown action {name!r}")
    if args.keys() != schema.keys():
        raise ValueError(f"{name} takes args {sorted(schema)}, got {sorted(args)}")
    for key, typ in schema.items():
        value = args[key]
        if typ is int:
            if value.__class__ is not int or value < 1:
                raise ValueError(f"{name}.{key} must be a positive int")
        elif value.__class__ is not str:
            raise ValueError(f"{name}.{key} must be a string")
    if "direction" in args and args["direction"] not in DIRECTIONS:
        raise ValueError(f"unknown direction {args['direction']!r}")


def check_outcome(success: bool, suggestion: str) -> None:
    if success and suggestion:
        raise ValueError("successful outcomes carry no suggestion")


@dataclass(frozen=True)
class Action:
    name: str
    args: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_action(self.name, self.args)

    def to_json(self) -> dict:
        return {"name": self.name, "args": dict(sorted(self.args.items()))}


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
        check_outcome(self.success, self.suggestion)

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "feedback": self.feedback,
            "suggestion": self.suggestion,
        }


@dataclass(frozen=True)
class Transition(Memoised):
    obs: Observation
    action: Action
    outcome: Outcome
    next_obs: Observation
    _digest = None  # memo of digest()

    def to_json(self) -> dict:
        return {
            "obs": self.obs.to_json(),
            "action": self.action.to_json(),
            "outcome": self.outcome.to_json(),
            "next_obs": self.next_obs.to_json(),
        }

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
        id; computed once per instance."""
        cached = self._digest
        if cached is None:
            import hashlib

            cached = hashlib.sha1(self.canonical().encode()).hexdigest()[:12]
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclass(frozen=True)
class Trajectory:
    transitions: tuple[Transition, ...]
    seed: int = 0
    config_id: str = ""

    def __len__(self) -> int:
        return len(self.transitions)

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
        visible objects within the file are interned to one instance.  A
        malformed file is a ValueError naming the line and the field."""
        head, count, steps = parse_ndjson(text)
        if ("delta" in head) != (real is not None):
            raise ValueError("a delta file is read with its real trajectory, a real file alone")
        if real is not None:
            _same_length(real, count)
        pool = VisibleObjectPool()
        obs = _observation(head["obs"], pool, 1, "obs") if count and real is None else None
        transitions = []
        for i, (name, args, success, feedback, suggestion, nxt) in enumerate(steps):
            if real is not None:
                obs = real.transitions[i].obs
            next_obs = obs if nxt == "obs" else _observation(nxt, pool, i + 2, "next_obs")
            transitions.append(Transition(
                obs, Action(name, args), Outcome(success, feedback, suggestion), next_obs
            ))
            obs = next_obs
        meta = head["meta"]
        return Trajectory(tuple(transitions), meta["seed"], meta["config_id"])


def _observation(data: dict, pool: VisibleObjectPool, line: int, name: str) -> Observation:
    try:
        return Observation.from_json(data, pool)
    except ValueError as exc:
        raise ValueError(f"line {line}: {name}: {exc}") from None


def parse_ndjson(text: str) -> tuple[dict, int, Iterator[tuple]]:
    """A format-2 file (`Trajectory.to_ndjson`) without its observations
    built: the head, the number of step lines, and the step lines, parsed as
    they are iterated to `(name, args, success, feedback, suggestion,
    next_obs)`, where `next_obs` is `"obs"` or an observation's JSON.  A
    malformed line is a ValueError naming it and the field."""
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        head = json.loads(lines[0]) if lines else None
        found = head.get("format") if isinstance(head, dict) else None
        if found != FORMAT:
            raise ValueError(f"not a format-{FORMAT} trajectory file (format {found!r})")
        meta = require(head, "meta", types=dict)
        require(meta, "seed", "meta", int)
        require(meta, "config_id", "meta", str)
        # a real file's first observation; null only when no step follows
        if "delta" not in head and (len(lines) > 1 or require(head, "obs") is not None):
            require(head, "obs", types=dict)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    return head, len(lines) - 1, map(_step, range(2, len(lines) + 1), lines[1:])


def _step(n: int, line: str) -> tuple:
    try:
        record = json.loads(line)
        action = require(record, "action", types=dict)
        outcome = require(record, "outcome", types=dict)
        next_obs = require(record, "next_obs")
        if next_obs != "obs" and next_obs.__class__ is not dict:
            raise ValueError("field 'next_obs' is neither \"obs\" nor an object")
        name = require(action, "name", "action", str)
        args = require(action, "args", "action", dict)
        success = require(outcome, "success", "outcome", bool)
        feedback = require(outcome, "feedback", "outcome", str)
        suggestion = require(outcome, "suggestion", "outcome", str, default="")
        check_action(name, args)
        check_outcome(success, suggestion)
    except ValueError as exc:
        raise ValueError(f"line {n}: {exc}") from None
    return name, args, success, feedback, suggestion, next_obs


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
