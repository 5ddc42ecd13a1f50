import copy
import logging
import pickle
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from worldalign.core import Action, Outcome, Transition
from worldalign.dsl import evaluate, parse
from worldalign.env import make_config
from worldalign.env.oracle import kg_edges_for_config
from worldalign import graphs
from worldalign.graphs import (
    EXPLORED,
    UNEXPLORED,
    KgEdge,
    KnowledgeGraph,
    SceneGraph,
    kg_induce,
    kg_merge,
    sg_update,
)

from conftest import make_obs, observations_over, visible_objects

edges_strategy = st.lists(
    st.builds(
        KgEdge,
        u=st.sampled_from(["table", "furnace", "wood_pickaxe", "iron"]),
        v=st.sampled_from(["wood", "stone", "iron", "tree", "table"]),
        relation=st.sampled_from(["requires", "consumes", "collects"]),
        quantity=st.one_of(st.none(), st.integers(1, 5)),
    ),
    max_size=10,
)


def test_edge_validation():
    with pytest.raises(ValueError):
        KgEdge("a", "b", "loves")
    with pytest.raises(ValueError):
        KgEdge("a", "b", "consumes", 0)


def test_merge_with_empty_is_identity():
    kg = kg_merge(KnowledgeGraph.empty(), [KgEdge("table", "wood", "consumes", 2)])
    assert kg_merge(kg, []) == kg


@given(edges_strategy)
def test_merge_is_idempotent(edges):
    once = kg_merge(KnowledgeGraph.empty(), edges)
    twice = kg_merge(once, edges)
    assert once == twice


@given(edges_strategy, edges_strategy)
def test_merge_batches_are_order_insensitive_as_sets(a, b):
    # Conflicting quantities aside, edge membership does not depend on order.
    quantities = {}
    for edge in a + b:
        quantities[edge.key()] = edge.quantity  # newest wins in both orders? no:
    left = kg_merge(kg_merge(KnowledgeGraph.empty(), a), b)
    right = kg_merge(kg_merge(KnowledgeGraph.empty(), b), a)
    assert {e.key() for e in left.edges} == {e.key() for e in right.edges}
    assert left.vertices == right.vertices


def test_conflicting_quantity_keeps_newest_and_logs(caplog):
    base = kg_merge(KnowledgeGraph.empty(), [KgEdge("table", "wood", "consumes", 2)])
    with caplog.at_level(logging.INFO, logger="worldalign.graphs"):
        merged = kg_merge(base, [KgEdge("table", "wood", "consumes", 3)])
    (edge,) = merged.edges
    assert edge.quantity == 3
    assert any("conflict" in record.message for record in caplog.records)


def _reference_kg_merge(base, new_edges, conflicts):
    """The full rebuild kg_merge replaced: copy every edge, index every key,
    and union every edge's endpoints.  Conflicts go to the list."""
    edges = list(base.edges)
    index = {e.key(): i for i, e in enumerate(edges)}
    for edge in new_edges:
        slot = index.get(edge.key())
        if slot is None:
            index[edge.key()] = len(edges)
            edges.append(edge)
        elif edges[slot].quantity != edge.quantity:
            conflicts.append((edge.key(), edges[slot].quantity, edge.quantity))
            edges[slot] = edge
    vertices = set(base.vertices)
    for edge in edges:
        vertices.add(edge.u)
        vertices.add(edge.v)
    return KnowledgeGraph(frozenset(vertices), tuple(edges))


@given(st.lists(edges_strategy, min_size=1, max_size=5), st.integers(0, 4))
@example([[KgEdge("table", "wood", "consumes", 2)], [KgEdge("table", "wood", "consumes", 2)]], 0)
@example([[KgEdge("table", "wood", "consumes", 2)], [KgEdge("table", "wood", "consumes", 3)]], 0)
@example([[KgEdge("table", "wood", "requires", 1)],  # a change undone in the same batch
          [KgEdge("table", "wood", "requires"), KgEdge("table", "wood", "requires", 1)]], 4)
def test_kg_merge_matches_the_full_rebuild(batches, pickled_at):
    """A chain of merges, each from the graph the last one returned (so the
    key index is handed on) and again from the same base, and one from a
    pickled copy (so the index is rebuilt):
    same edges in the same order with the same quantities, same vertices
    and conflict log lines, and `base` itself exactly when the result
    equals it."""
    kg = KnowledgeGraph.empty()
    for i, batch in enumerate(batches):
        if i == pickled_at:
            kg = pickle.loads(pickle.dumps(kg))
        conflicts = []
        expected = _reference_kg_merge(kg, batch, conflicts)
        with mock.patch.object(graphs, "log") as log:
            merged = kg_merge(kg, batch)
        assert list(merged.edges) == list(expected.edges)
        assert merged.vertices == expected.vertices
        assert [c.args[1:] for c in log.info.call_args_list] == conflicts
        assert (merged is kg) == (expected == kg)
        assert kg_merge(kg, batch) == merged  # base's own index was not written
        kg = merged


def test_knowledge_graph_memo_is_outside_equality_hashing_repr_and_pickling():
    edges = kg_edges_for_config(make_config("default"))
    kg = kg_merge(KnowledgeGraph.empty(), edges)
    twin = KnowledgeGraph(kg.vertices, kg.edges)
    pickled, shown, hashed = pickle.dumps(twin), repr(twin), hash(twin)
    assert kg_merge(kg, edges) is kg  # answered from kg's key index
    assert kg._slots is not None and twin._slots is None
    assert kg == twin
    assert (pickle.dumps(kg), repr(kg), hash(kg)) == (pickled, shown, hashed)
    assert pickle.loads(pickle.dumps(kg))._slots is None
    assert copy.deepcopy(kg)._slots is None


def test_requirements_reads_direct_edges_only():
    kg = kg_merge(KnowledgeGraph.empty(), [
        KgEdge("iron_pickaxe", "iron", "consumes", 1),
        KgEdge("iron_pickaxe", "coal", "consumes", 1),
        KgEdge("iron_pickaxe", "furnace", "requires", None),
        KgEdge("furnace", "stone", "consumes", 2),  # not transitively included
    ])
    materials, platform = kg.requirements("iron_pickaxe")
    assert materials == {"iron": 1, "coal": 1}
    assert platform == "furnace"


def test_requirements_unknown_entity_is_empty():
    assert KnowledgeGraph.empty().requirements("ghost") == ({}, None)


def test_requirements_entity_with_no_edges_is_empty():
    kg = kg_merge(KnowledgeGraph.empty(), [KgEdge("table", "wood", "consumes", 2)])
    assert kg.requirements("wood") == ({}, None)


def test_requirements_match_shipped_default_config():
    config = make_config("default")
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
    recipe = config.recipes["iron_pickaxe"]
    materials, platform = kg.requirements("iron_pickaxe")
    assert materials == recipe.consumes
    assert platform == recipe.platform


def test_oracle_kg_equals_recipe_table_after_canonicalization():
    config = make_config("taskdep")
    edges = kg_edges_for_config(config)
    tables = config.effective()
    expected = set()
    for product, recipe in tables.recipes.items():
        for material, count in recipe.consumes.items():
            expected.add((product, material, "consumes", count))
        for material, count in recipe.requires.items():
            expected.add((product, material, "requires", count))
        if recipe.platform:
            expected.add((product, recipe.platform, "requires", None))
    for block, rule in tables.mining.items():
        expected.add((rule.drop, block, "collects", None))
    assert {(e.u, e.v, e.relation, e.quantity) for e in edges} == expected


def test_kg_json_round_trip():
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(make_config("default")))
    assert KnowledgeGraph.from_json(kg.to_json()) == kg


# -- induction ------------------------------------------------------------------

class ListProposer:
    def __init__(self, edges):
        self._edges = edges
        self.calls = 0

    def propose_kg_edges(self, window):
        self.calls += 1
        return self._edges


def _window():
    obs = make_obs()
    return [Transition(obs, Action("sleep", {}), Outcome(True), obs)]


def test_kg_induce_empty_reply():
    assert kg_induce(_window(), ListProposer([])) == ()


def test_kg_induce_returns_the_proposers_edges_in_order():
    edges = kg_edges_for_config(make_config("taskdep"))
    assert kg_induce(_window(), ListProposer(edges)) == tuple(edges)


def test_kg_induce_empty_window_is_empty():
    proposer = ListProposer([KgEdge("table", "wood", "consumes", 2)])
    assert kg_induce([], proposer) == ()
    assert proposer.calls == 0


# -- scene graph ------------------------------------------------------------------

def test_fresh_graph_unexplored_equals_configured_locations():
    config = make_config("default")
    locations = sorted(config.terrain_table)
    sg = SceneGraph.initial(locations)
    assert [loc for loc, st_ in sg.status.items() if st_ == UNEXPLORED] == locations


def test_sg_update_adds_position_and_visible_objects():
    sg = SceneGraph.initial(["grass", "water"])
    obs = make_obs(position="grass", visible=(("table", 1, 0), ("water", 2, 1)), near=("table",))
    updated = sg_update(sg, obs)
    assert updated.status["grass"] == EXPLORED
    assert ("grass", "table", "contains") in updated.edges
    assert ("grass", "water", "adjacent") in updated.edges
    assert [u for u, v, rel in updated.edges if (v, rel) == ("table", "contains")] == ["grass"]


def test_sg_update_is_idempotent():
    sg = SceneGraph.initial(["grass"])
    obs = make_obs(visible=(("table", 1, 0),))
    once = sg_update(sg, obs)
    assert sg_update(once, obs) == once


@given(st.lists(st.sampled_from(["grass", "sand", "water"]), min_size=1, max_size=6))
def test_sg_monotonicity(positions):
    sg = SceneGraph.initial(["grass", "sand", "water"])
    for position in positions:
        updated = sg_update(sg, make_obs(position=position, in_front=position))
        assert updated.vertices >= sg.vertices
        assert set(updated.edges) >= set(sg.edges)
        explored_before = {l for l, s in sg.status.items() if s == EXPLORED}
        explored_after = {l for l, s in updated.status.items() if s == EXPLORED}
        assert explored_after >= explored_before
        sg = updated


def _reference_sg_update(sg: SceneGraph, obs) -> SceneGraph:
    """The fold `sg_update` replaced, which copies the whole graph on every
    observation; kept as the reference it must equal."""
    here = obs.position
    vertices = set(sg.vertices)
    vertices.add(here)
    known_locations = set(sg.status)
    edges = list(sg.edges)
    seen = set(edges)
    for vis in obs.visible_objects:
        kind = vis.type
        vertices.add(kind)
        if kind in known_locations or kind == here:
            if kind == here:
                continue
            edge = (here, kind, "adjacent")
        else:
            edge = (here, kind, "contains")
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    status = []
    found = False
    for loc, st_ in sg.status.items():
        if loc == here:
            status.append((loc, EXPLORED))
            found = True
        else:
            status.append((loc, st_))
    if not found:
        status.append((here, EXPLORED))
    return SceneGraph(frozenset(vertices), tuple(edges), dict(status))


# Locations overlap the observations' positions and visible types, so folds
# add `adjacent` and `contains` edges.
LOCATIONS = ["grass", "sand", "césped", "stone", "石", "water"]
scene_graphs = st.builds(
    lambda status, extra: SceneGraph(
        frozenset([loc for loc, _ in status] + extra), (), dict(status)
    ),
    st.lists(st.tuples(st.sampled_from(LOCATIONS), st.sampled_from([EXPLORED, "Unexplored"])),
             max_size=5),
    st.lists(st.sampled_from(["cow", "table", "tree"]), max_size=3),
)


@given(scene_graphs, st.lists(visible_objects, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(observations_over(st.sampled_from(pool)), max_size=12)))
# A kind first recorded as `contains` that later becomes a known location:
# seen again from grass, it must gain its `adjacent` edge.
@example(
    sg=SceneGraph.initial(["grass"]),
    observations=[
        make_obs(visible=(("sand", 1, 0),)),
        make_obs(visible=(("sand", 1, 0),)),
        make_obs(position="sand", in_front="sand"),
        make_obs(visible=(("sand", 1, 0),)),
    ],
)
# A position that is not yet a location, then the same observation again.
@example(
    sg=SceneGraph.initial(["grass"]),
    observations=[make_obs(position="sand", in_front="sand")] * 2,
)
def test_sg_update_matches_the_copying_fold_and_returns_an_unchanged_graph(sg, observations):
    for obs in observations:
        expected = _reference_sg_update(sg, obs)
        updated = sg_update(sg, obs)
        assert updated == expected
        assert list(updated.edges) == list(expected.edges)  # first-appearance order
        assert list(updated.status.items()) == list(expected.status.items())
        assert (updated is sg) == (expected == sg)
        sg = updated


def test_scene_graph_memo_is_outside_equality_repr_and_pickling():
    obs = make_obs(visible=(("table", 1, 0), ("sand", 2, 0)))
    sg = sg_update(SceneGraph.initial(["grass", "sand"]), obs)
    twin = SceneGraph(sg.vertices, sg.edges, dict(sg.status))
    pickled, shown = pickle.dumps(twin), repr(twin)
    assert sg_update(sg, obs) is sg  # answered from, and so fills, sg's memo
    assert sg._memo is not None and twin._memo is None
    assert sg == twin
    assert (pickle.dumps(sg), repr(sg)) == (pickled, shown)
    assert pickle.loads(pickle.dumps(sg))._memo is None
    assert copy.deepcopy(sg)._memo is None


def test_full_sweep_explores_every_location():
    # Derived by enumeration: visiting every terrain name marks all Explored.
    locations = ["grass", "sand", "water", "tree"]
    sg = SceneGraph.initial(locations)
    for loc in locations:
        sg = sg_update(sg, make_obs(position=loc, in_front=loc))
    assert [loc for loc, st_ in sg.status.items() if st_ == UNEXPLORED] == []


def test_locate_insertion_order_and_unknown_item():
    sg = SceneGraph.initial(["grass", "sand"])
    sg = sg_update(sg, make_obs(position="grass", visible=(("cow", 2, 0),)))
    sg = sg_update(sg, make_obs(position="sand", in_front="sand", visible=(("cow", 1, 1),)))
    assert [u for u, v, rel in sg.edges if (v, rel) == ("cow", "contains")] == ["grass", "sand"]

    def contains(location, item):
        rule = parse(f'RULE c FOR sleep: FAIL IF sg_contains("{location}", "{item}")')
        verdict = evaluate(rule, make_obs(), Action("sleep", {}), KnowledgeGraph.empty(), sg)
        assert verdict.activated
        return not verdict.flag

    assert contains("grass", "cow") and contains("sand", "cow")
    assert not contains("grass", "dragon") and not contains("sand", "dragon")


def test_sg_json_round_trip():
    sg = SceneGraph.initial(["grass", "sand"])
    sg = sg_update(sg, make_obs(visible=(("table", 1, 0),)))
    assert SceneGraph.from_json(sg.to_json()) == sg
