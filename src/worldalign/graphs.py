"""Knowledge-graph and scene-graph stores.

Both graphs are persistent values: every update returns a new instance, so
readers never observe partial mutations.  The knowledge graph holds
feasibility constraints (what a product requires, consumes or is collected
from); the scene graph holds monotone spatial memory keyed by location.
Proposer seats hand over typed `KgEdge`s; edge JSON is parsed only by
`KgEdge.from_json`, for a `kg.json` file and for a backend's reply.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

from .core import Memoised, Observation, Transition, require

log = logging.getLogger(__name__)

KG_RELATIONS = ("requires", "consumes", "collects", "enables")

UNEXPLORED = "Unexplored"
EXPLORED = "Explored"

_TYPE = attrgetter("type")


@dataclass(frozen=True)
class KgEdge:
    u: str
    v: str
    relation: str
    quantity: int | None = None

    def __post_init__(self) -> None:
        if not (self.u.__class__ is str and self.v.__class__ is str and self.relation.__class__ is str):
            raise ValueError("fields 'u', 'v' and 'relation' must be strings")
        if self.relation not in KG_RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.quantity is not None and (self.quantity.__class__ is not int or self.quantity < 1):
            raise ValueError("edge quantity must be an int >= 1 when present")

    def key(self) -> tuple[str, str, str]:
        return (self.u, self.v, self.relation)

    def to_json(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "label": {"relation": self.relation, "quantity": self.quantity},
        }

    @staticmethod
    def from_json(data: dict) -> "KgEdge":
        """Parse one edge; a malformed one is a ValueError naming the field.
        The quantity may come quoted ("2"), as a backend may write it."""
        try:
            label = data["label"]
            quantity = label.get("quantity")
            if quantity.__class__ is str and quantity.isdecimal():
                quantity = int(quantity)
            return KgEdge(data["u"], data["v"], label["relation"], quantity)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        except (AttributeError, TypeError):
            raise ValueError("not a JSON object with a 'label' object") from None


@dataclass(frozen=True)
class KnowledgeGraph(Memoised):
    vertices: frozenset[str] = frozenset()
    edges: tuple[KgEdge, ...] = ()
    _slots = None  # memo of each edge key's index in `edges`, kept by kg_merge

    @staticmethod
    def empty() -> "KnowledgeGraph":
        return KnowledgeGraph()

    def requirements(self, product: str) -> tuple[dict[str, int], str | None]:
        """Direct requires/consumes constraints on a product.

        Quantified edges become material quantities; an unquantified
        ``requires`` edge names the crafting platform.  No transitive
        closure is taken.
        """
        materials: dict[str, int] = {}
        platform: str | None = None
        for edge in self.edges:
            if edge.u != product or edge.relation not in ("requires", "consumes"):
                continue
            if edge.quantity is None:
                if edge.relation == "requires" and platform is None:
                    platform = edge.v
            else:
                materials[edge.v] = materials.get(edge.v, 0) + edge.quantity
        return materials, platform

    def sources(self, material: str) -> list[str]:
        """Blocks a material is known to be collected from, insertion order."""
        return [e.v for e in self.edges if e.u == material and e.relation == "collects"]

    def has_edges_for(self, product: str) -> bool:
        return any(
            e.u == product and e.relation in ("requires", "consumes") for e in self.edges
        )

    def to_json(self) -> dict:
        return {"edges": [e.to_json() for e in self.edges]}

    @staticmethod
    def from_json(data: dict) -> "KnowledgeGraph":
        """Parse `to_json` output; a malformed edge is a ValueError naming
        its index and field."""
        edges = []
        for i, edge in enumerate(require(data, "edges", types=list)):
            try:
                edges.append(KgEdge.from_json(edge))
            except ValueError as exc:
                raise ValueError(f"edge {i}: {exc}") from None
        return kg_merge(KnowledgeGraph.empty(), edges)


def kg_merge(base: KnowledgeGraph, new_edges: Iterable[KgEdge]) -> KnowledgeGraph:
    """Union edges into the graph.

    Idempotent and batch-order-insensitive at the edge-set level; a repeated
    (u, v, relation) triple with a different quantity replaces the old edge
    in place (newest wins) and logs the conflict.  Vertices gain the
    appended edges' endpoints (every graph built here holds its own).
    Returns `base` itself when the edges come out equal to base's; else
    base's edges and key index are copied on the first write.
    """
    slots = base._slots
    if slots is None:
        slots = {e.key(): i for i, e in enumerate(base.edges)}
        object.__setattr__(base, "_slots", slots)
    edges = base.edges  # a list from the first write on
    for edge in new_edges:
        key = edge.key()
        slot = slots.get(key)
        if slot is not None and edges[slot].quantity == edge.quantity:
            continue
        if edges is base.edges:
            edges, slots = list(edges), dict(slots)
        if slot is None:
            slots[key] = len(edges)
            edges.append(edge)
        else:
            log.info(
                "kg quantity conflict on %s: %r -> %r (keeping newest)",
                key, edges[slot].quantity, edge.quantity,
            )
            edges[slot] = edge
    edges = tuple(edges)  # base's own tuple when nothing was written
    if edges == base.edges:
        return base
    vertices = base.vertices.union(*((e.u, e.v) for e in edges[len(base.edges):]))
    merged = KnowledgeGraph(vertices, edges)
    object.__setattr__(merged, "_slots", slots)
    return merged


def kg_induce(window: Sequence[Transition], proposer) -> tuple[KgEdge, ...]:
    """The proposer's typed constraint edges for a window of transitions
    (none for an empty one); proposer unavailability propagates."""
    return tuple(proposer.propose_kg_edges(window)) if window else ()


@dataclass(frozen=True)
class SceneGraph(Memoised):
    vertices: frozenset[str] = frozenset()
    edges: tuple[tuple[str, str, str], ...] = ()  # (u, v, relation)
    status: dict[str, str] = field(default_factory=dict)  # location -> Explored|Unexplored
    _memo = None  # memo of _unchanged_kinds()

    @staticmethod
    def initial(locations: Sequence[str]) -> "SceneGraph":
        return SceneGraph(
            vertices=frozenset(locations),
            edges=(),
            status=dict.fromkeys(locations, UNEXPLORED),
        )

    def _unchanged_kinds(self) -> dict[str, set[str]]:
        """For each Explored location, the kinds an observation there may see
        without changing the graph: the location itself and every kind
        whose edge from it already exists with the relation it would get
        now (``adjacent`` for a known location, ``contains`` otherwise).

        A location or kind counts only if it is a vertex.  Computed once
        per instance.
        """
        memo = self._memo
        if memo is None:
            memo = {loc: {loc} for loc, st in self.status.items()
                    if st == EXPLORED and loc in self.vertices}
            for u, v, relation in self.edges:
                kinds = memo.get(u)
                if (kinds is not None and v in self.vertices
                        and relation == ("adjacent" if v in self.status else "contains")):
                    kinds.add(v)
            object.__setattr__(self, "_memo", memo)
        return memo

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": [list(e) for e in self.edges],
            "status": dict(self.status),
        }

    @staticmethod
    def from_json(data: dict) -> "SceneGraph":
        """Parse `to_json` output; a malformed graph is a ValueError naming
        the field."""
        vertices = require(data, "vertices", types=list)
        edges = require(data, "edges", types=list)
        status = require(data, "status", types=dict)
        if not all(vertex.__class__ is str for vertex in vertices):
            raise ValueError("field 'vertices' is not an array of strings")
        if not all(e.__class__ is list and len(e) == 3 and all(p.__class__ is str for p in e)
                   for e in edges):
            raise ValueError("field 'edges' is not an array of [u, v, relation] strings")
        if not all(st in (EXPLORED, UNEXPLORED) for st in status.values()):
            raise ValueError(f"field 'status' holds a value other than {EXPLORED!r} and {UNEXPLORED!r}")
        return SceneGraph(frozenset(vertices), tuple(map(tuple, edges)), dict(status))


def sg_update(sg: SceneGraph, obs: Observation) -> SceneGraph:
    """Fold an observation into the scene graph.

    Monotone: vertices and edges are only ever added.  The terrain the agent
    stands on becomes Explored; every visible object type gains an edge from
    that location (``adjacent`` for known locations, ``contains`` otherwise),
    appended in first-appearance order.  An observation that adds nothing
    returns `sg` itself, so callers that compare graphs hit on identity;
    that case is one subset test against the graph's memo.
    """
    here = obs.position
    unchanged = sg._unchanged_kinds().get(here)
    if unchanged is not None and unchanged.issuperset(map(_TYPE, obs.visible_objects)):
        return sg
    seen = set(sg.edges)
    added = []
    for vis in obs.visible_objects:
        kind = vis.type
        if kind == here:
            continue
        edge = (here, kind, "adjacent" if kind in sg.status else "contains")
        if edge not in seen:
            seen.add(edge)
            added.append(edge)
    kinds = {vis.type for vis in obs.visible_objects}
    kinds.add(here)
    return SceneGraph(sg.vertices | kinds, sg.edges + tuple(added), {**sg.status, here: EXPLORED})
