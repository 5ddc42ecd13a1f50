import copy
import dataclasses
import json
import random
import re
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from worldalign.agent import EpisodeComponents, run_episode
from worldalign.core import Action, Observation, VisibleObject, from_json, to_json
from worldalign.dsl import parse
from worldalign.env import (
    CONFIG_IDS,
    CreatureTraits,
    MarsWorld,
    MineRule,
    Modification,
    Recipe,
    UnsolvableConfig,
    WorldConfig,
    check_solvable,
    kg_edges_for_config,
    load_config,
    make_config,
    rules_for_config,
)
from worldalign.env.config import MIN_GRID_SIZE
from worldalign.env.world import CREATURE_SPAWNS, FORCED_BLOCKS
from worldalign.experiments import run_learning_trial, standard_components
from worldalign.learner import LearnerState
from worldalign.world_model import NaivePrior

GOLDEN = Path(__file__).parent / "data" / "reset_seed7.json"


def test_same_config_gives_byte_identical_observations():
    a = MarsWorld(make_config("default", seed=11)).observe()
    b = MarsWorld(make_config("default", seed=11)).observe()
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_reset_observation_schema():
    config = make_config("default", seed=5)
    obs = MarsWorld(config).observe()
    assert obs.position in config.terrain_table


def test_reset_seed7_matches_golden_file():
    obs = MarsWorld(make_config("default", seed=7)).observe()
    assert obs.inventory == {}
    assert obs.status.health == 9
    golden = json.loads(GOLDEN.read_text())
    assert obs.to_json() == golden


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_reset_terrain_matches_per_cell_draws(config_id):
    """`reset` draws the whole terrain in one batch; a `choices` call per
    cell, row by row, gives the same grid and leaves the generator in the
    same state."""
    for seed in (0, 1, 7, 23):
        world = MarsWorld(make_config(config_id, seed=seed))
        size, terrain = world.config.grid_size, world.tables.terrain_table
        names = sorted(terrain)
        weights = [terrain[n] for n in names]
        rng = random.Random(f"{seed}:worldgen")
        grid = [[rng.choices(names, weights)[0] for _ in range(size)] for _ in range(size)]
        batched = random.Random(f"{seed}:worldgen")
        cells = batched.choices(names, cum_weights=list(accumulate(weights)), k=size * size)
        assert cells == [name for row in grid for name in row]
        assert batched.getstate() == rng.getstate()
        center = size // 2
        for y in range(center - 2, center + 3):
            grid[y][center - 2:center + 3] = ["grass"] * 5
        ring = [
            (x, y) for y in range(size) for x in range(size)
            if 3 <= max(abs(x - center), abs(y - center)) <= 7
        ]
        rng.shuffle(ring)
        slots = iter(ring)
        for block, count in FORCED_BLOCKS:
            for _ in range(count):
                x, y = next(slots)
                grid[y][x] = block
        assert world.grid == grid


def test_unsolvable_config_rejected():
    # Remap away wood without fixing the recipes that consume it.
    broken = WorldConfig(
        config_id="broken",
        modifications=(Modification(kind="taskdep", removed_mining=("tree",)),),
    )
    with pytest.raises(UnsolvableConfig) as err:
        check_solvable(broken)
    assert "wood" in str(err.value)


def test_all_shipped_configs_are_solvable():
    for config_id in CONFIG_IDS:
        check_solvable(make_config(config_id))


def test_shipped_config_files_match_registry():
    root = Path(__file__).parent.parent / "configs"
    for config_id in CONFIG_IDS:
        written = json.dumps(to_json(make_config(config_id)), sort_keys=True, indent=2) + "\n"
        assert (root / f"{config_id}.json").read_bytes() == written.encode(), config_id
        assert load_config(str(root / f"{config_id}.json")) == make_config(config_id)


def test_config_json_round_trip():
    config = make_config("all_three", seed=3)
    assert from_json(WorldConfig, to_json(config)) == config


def test_a_config_file_may_leave_out_the_id_and_the_defaulted_fields():
    data = to_json(make_config("all_three", seed=3))
    for name in ("config_id", "max_steps", "modifications", "seed"):
        del data[name]
    assert from_json(WorldConfig, data) == WorldConfig(config_id="custom")


# Every value of a shipped config, at any depth, as (path, kind of JSON value).
_JSON_KIND = {bool: "bool", int: "number", float: "number", str: "text",
              type(None): "text", list: "array", dict: "object"}
_WRONG_VALUES = {"bool": [True, False], "number": [0, -3, 1.5], "text": ["x", None],
                 "array": [[], [1]], "object": [{}, {"a": 1}]}


def _nodes(value, path=()):
    if path:
        yield path, _JSON_KIND[type(value)]
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


_SHIPPED_NODES = [(config_id, path, kind) for config_id in CONFIG_IDS
                  for path, kind in _nodes(to_json(make_config(config_id)))]


@settings(deadline=None, max_examples=300)
@given(node=st.sampled_from(_SHIPPED_NODES), data=st.data())
def test_a_mistyped_value_at_any_depth_is_an_error_naming_its_key(node, data):
    # "text" stands for a string or null: either may be valid where one goes
    # (`platform`, `tool`), so neither replaces the other.
    config_id, path, kind = node
    wrong = data.draw(st.sampled_from(
        [v for k, values in _WRONG_VALUES.items() if k != kind for v in values]))
    config = copy.deepcopy(to_json(make_config(config_id)))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = wrong
    with pytest.raises(ValueError, match=f"field {re.escape(repr(path[-1]))} has the wrong type"):
        from_json(WorldConfig, config)


_names = st.from_regex(r"[a-z][a-z_]{0,7}", fullmatch=True)
_weights = st.dictionaries(_names, st.floats(0, 1) | st.integers(0, 3), max_size=3)
_counts = st.dictionaries(_names, st.integers(1, 9), max_size=3)
_recipes = st.dictionaries(_names, st.builds(
    Recipe, consumes=_counts, requires=_counts, platform=st.none() | _names), max_size=3)
_survival = st.dictionaries(_names, st.builds(
    CreatureTraits, hostile=st.booleans(), on_eat_health_delta=st.integers(-9, 9),
    on_eat_food_delta=st.integers(-9, 9)), max_size=3)


@st.composite
def world_configs(draw) -> WorldConfig:
    tiers = tuple(draw(st.lists(_names, max_size=3, unique=True)))
    tools = st.none() | st.sampled_from(tiers) if tiers else st.none()
    mining = st.dictionaries(_names, st.builds(
        MineRule, drop=_names, tool=tools, consumed=st.booleans()), max_size=3)
    modifications = st.lists(st.builds(
        Modification, kind=st.sampled_from(["terrain", "survival", "taskdep"]),
        terrain_table=_weights, recipes=_recipes, mining=mining,
        removed_mining=st.lists(_names, max_size=2).map(tuple), survival=_survival,
    ), max_size=3)
    return WorldConfig(
        config_id=draw(_names),
        grid_size=draw(st.integers(MIN_GRID_SIZE, 64)),
        view=(draw(st.integers(1, 15)), draw(st.integers(1, 15))),
        max_steps=draw(st.integers(1, 1000)),
        terrain_table={**draw(_weights), "grass": draw(st.floats(0.01, 1))},
        recipes=draw(_recipes),
        mining=draw(mining),
        tool_tiers=tiers,
        survival=draw(_survival),
        modifications=tuple(draw(modifications)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(deadline=None, max_examples=100)
@given(config=world_configs())
def test_a_config_round_trips_through_json_text(config):
    text = json.dumps(to_json(config), sort_keys=True, indent=2)
    assert from_json(WorldConfig, json.loads(text)) == config


_TABLES = ("terrain_table", "recipes", "mining", "tool_tiers", "survival")


def _reference_effective(config: WorldConfig) -> dict:
    """The five tables with every modification applied in order, merged the
    way a separate tables record once was."""
    terrain = dict(config.terrain_table)
    recipes = dict(config.recipes)
    mining = dict(config.mining)
    survival = dict(config.survival)
    for mod in config.modifications:
        terrain.update(mod.terrain_table)
        recipes.update(mod.recipes)
        mining.update(mod.mining)
        for name in mod.removed_mining:
            mining.pop(name, None)
        survival.update(mod.survival)
    return dict(zip(_TABLES, (terrain, recipes, mining, tuple(config.tool_tiers), survival)))


@settings(deadline=None, max_examples=100)
@given(config=world_configs() | st.sampled_from(CONFIG_IDS).map(make_config))
def test_effective_config_is_the_merged_tables_and_nothing_else(config):
    e = config.effective()
    reference = _reference_effective(config)
    for name in _TABLES:
        assert getattr(e, name) == reference[name], name
    assert e.modifications == ()
    for f in dataclasses.fields(WorldConfig):
        if f.name not in (*_TABLES, "modifications"):
            assert getattr(e, f.name) == getattr(config, f.name), f.name
    assert e.effective() is e
    assert e.hostiles() == config.hostiles() == sorted(
        name for name, traits in reference["survival"].items() if traits.hostile)
    base = config.base_tables()
    assert base.modifications == ()
    assert base == dataclasses.replace(config, modifications=())


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_reset_lays_out_the_smallest_grid_and_one_less_is_rejected(config_id, tmp_path):
    for seed in range(4):
        config = make_config(config_id, seed=seed)
        world = MarsWorld(dataclasses.replace(config, grid_size=MIN_GRID_SIZE))
        placed = sum(row.count(block) for row in world.grid for block, _ in FORCED_BLOCKS)
        assert placed >= sum(count for _, count in FORCED_BLOCKS)
    # One less is too small for `reset`, which is why load rejects it.
    too_small = make_config(config_id).effective()
    object.__setattr__(too_small, "grid_size", MIN_GRID_SIZE - 1)
    with pytest.raises(IndexError):
        MarsWorld(too_small)
    path = tmp_path / "small.json"
    path.write_text(json.dumps({**to_json(make_config(config_id)), "grid_size": MIN_GRID_SIZE - 1}))
    with pytest.raises(ValueError, match=rf"small.json: field 'grid_size' is {MIN_GRID_SIZE - 1}"):
        load_config(str(path))


# -- step semantics ------------------------------------------------------------

def _world_where(seed=3, config_id="default"):
    world = MarsWorld(make_config(config_id, seed=seed))
    return world


def test_make_without_table_fails_and_names_it():
    world = _world_where()
    world.inventory = {"wood": 5}
    _, _, _, outcome = world.step(Action("make", {"tool_name": "wood_pickaxe"}))
    assert not outcome.success
    assert "table" in outcome.feedback


def test_mine_iron_without_stone_pickaxe_fails():
    world = _world_where()
    world.inventory = {"wood_pickaxe": 1}
    _, _, _, outcome = world.step(Action("mine", {"block_name": "iron", "amount": 1}))
    assert not outcome.success
    assert "stone_pickaxe" in outcome.feedback


def test_place_table_consumes_wood_and_unlocks():
    world = _world_where()
    world.inventory = {"wood": 3}
    # face an open cell first
    world.step(Action("explore", {"direction": "south", "steps": 1}))
    _, reward, _, outcome = world.step(Action("place", {"block_name": "table"}))
    assert outcome.success
    assert world.inventory.get("wood", 0) == 1
    assert "place_table" in world.unlocks
    assert reward >= 1.0


def test_invalid_action_returns_failure_not_fault():
    world = _world_where()
    _, _, _, outcome = world.step(Action("mine", {"block_name": "plant", "amount": 1}))
    assert not outcome.success


def test_mine_plant_always_fails():
    world = _world_where()
    world.inventory = {"iron_pickaxe": 1}
    _, _, _, outcome = world.step(Action("mine", {"block_name": "plant", "amount": 1}))
    assert not outcome.success


def test_failed_action_never_changes_inventory():
    world = _world_where()
    world.inventory = {"wood": 2}
    before = dict(world.inventory)
    _, _, _, outcome = world.step(Action("mine", {"block_name": "diamond", "amount": 1}))
    assert not outcome.success
    assert world.inventory == before


def test_sleep_restores_energy_and_unlocks_wake_up():
    world = _world_where()
    world._set_status(energy=2)
    _, _, _, outcome = world.step(Action("sleep", {}))
    assert outcome.success
    assert world.status.energy == 9
    assert "wake_up" in world.unlocks


def test_explore_reports_blocked_but_succeeds():
    world = _world_where()
    for direction in ("north", "south", "east", "west"):
        _, _, _, outcome = world.step(Action("explore", {"direction": direction, "steps": 50}))
        assert outcome.success
    assert world.step_count == 4


# -- determinism / conservation ----------------------------------------------

class _Script:
    """Planner seat that proposes the next scripted action, whatever the veto."""

    def __init__(self, actions):
        self._actions = iter(actions)

    def propose(self, obs, feedback, suggestions, kg):
        return next(self._actions)


def _record(config, actions):
    """The real trajectory of `actions` played from reset, as the episode
    loop records it."""
    components = EpisodeComponents(NaivePrior(config), _Script(actions), replan_limit=1)
    config = dataclasses.replace(config, max_steps=min(config.max_steps, len(actions)))
    return run_episode(config, LearnerState(), components, target=None).real


def test_identical_action_sequences_replay_bit_for_bit():
    config = make_config("survival", seed=9)
    actions = [
        Action("explore", {"direction": "east", "steps": 3}),
        Action("mine", {"block_name": "tree", "amount": 1}),
        Action("sleep", {}),
        Action("explore", {"direction": "south", "steps": 2}),
    ] * 10
    first = _record(config, actions)
    second = _record(config, actions)
    assert first.to_ndjson() == second.to_ndjson()


def test_trajectory_chain_holds_after_every_step():
    config = make_config("default", seed=2)
    actions = [Action("explore", {"direction": "east", "steps": 1})] * 30
    trajectory = _record(config, actions)
    trajectory.validate_chain()


# -- oracle surface -------------------------------------------------------------

def test_ground_truth_rules_parse_and_include_near_table_rule():
    rules = [parse(text) for text in rules_for_config(make_config("default"))]
    by_id = {r.id: r for r in rules}
    assert "gt_make_model" in by_id
    assert by_id["gt_make_model"].action_guard == "make"


def test_taskdep_rules_reference_remapped_source():
    config = make_config("taskdep")
    texts = rules_for_config(config)
    # tree keeps its no-tool mining, so no tool rule for it even after remap;
    # the collects edge carries the remapping instead.
    assert not any("gt_mine_tool_tree" in t for t in texts)
    edges = {(e.u, e.v, e.relation) for e in kg_edges_for_config(config)}
    assert ("iron", "tree", "collects") in edges


def _expected_rule_count(config: WorldConfig) -> int:
    """Recompute the oracle rule count from the config's constraint
    structure: contextual rules, recipe rules, tier rules, placement bans."""
    tables = config.effective()
    contextual = 3 + (1 if tables.hostiles() else 0)  # mine/attack/place + sleep
    recipe_rules = 2  # make + place requirement checks
    tier_rules = sum(1 for rule in tables.mining.values() if rule.tool is not None)
    ban_rules = len(set(tables.terrain_table) - set(tables.mining)) + 2  # + table, furnace
    return contextual + recipe_rules + tier_rules + ban_rules


def test_rule_count_recomputable_from_config():
    for config_id in ("default", "taskdep", "all_three"):
        config = make_config(config_id)
        assert len(rules_for_config(config)) == _expected_rule_count(config)


def test_solvability_scripted_policy_completes_chain_within_budget():
    # Under every shipped config the full loop crafts the target tool in
    # at most a handful of learning episodes of 400 steps each.
    for config_id in CONFIG_IDS:
        trial = run_learning_trial(
            make_config(config_id), 1, 3, standard_components(rule_proposer_kind="oracle")
        )
        steps = [e.metrics["steps"] for e in trial.episodes if e.metrics["task_complete"]]
        assert trial.any_task_complete(), config_id
        assert min(steps) <= 400


# -- indexed grid against the scan it replaced --------------------------------

def _scan_creature_at(world, x, y):
    for creature in world.creatures:
        if creature.x == x and creature.y == y:
            return creature
    return None


def _scan_cell_name(world, x, y):
    creature = _scan_creature_at(world, x, y)
    return creature.kind if creature else world.grid[y][x]


def _sorted_near_cells(world):
    cells = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            x, y = world.agent_x + dx, world.agent_y + dy
            if world._in_bounds(x, y):
                cells.append((x, y))
    cells.sort(key=lambda c: (max(abs(c[0] - world.agent_x), abs(c[1] - world.agent_y)), c[1], c[0]))
    return cells


def _reference_observe(world):
    """The observation as the scan-based world built it: every cell's
    creature found by a pass over the creature list, fresh VisibleObjects."""
    rows, cols = world.config.view
    visible = []
    for dy in range(-(rows // 2), rows // 2 + 1):
        for dx in range(-(cols // 2), cols // 2 + 1):
            x, y = world.agent_x + dx, world.agent_y + dy
            if not world._in_bounds(x, y) or (dx == 0 and dy == 0):
                continue
            visible.append(VisibleObject(world.grid[y][x], dx, dy))
            creature = _scan_creature_at(world, x, y)
            if creature:
                visible.append(VisibleObject(creature.kind, dx, dy))
    near = set()
    for x, y in _sorted_near_cells(world):
        near.add(_scan_cell_name(world, x, y))
        near.add(world.grid[y][x])
    fx, fy = world._front()
    in_front = _scan_cell_name(world, fx, fy) if world._in_bounds(fx, fy) else "void"
    return Observation(
        position=world.grid[world.agent_y][world.agent_x],
        in_front=in_front,
        visible_objects=tuple(visible),
        near_objects=frozenset(near),
        status=world.status,
        inventory=dict(world.inventory),
    )


_DIRECTIONS = ("north", "south", "east", "west")
_world_moves = st.one_of(
    st.tuples(st.just("explore"), st.sampled_from(_DIRECTIONS), st.integers(1, 3)),
    st.tuples(st.just("attack"), st.sampled_from([k for k, _ in CREATURE_SPAWNS]), st.integers(1, 2)),
    st.tuples(st.just("sleep"), st.just(""), st.just(0)),
)


def _world_action(move):
    name, arg, amount = move
    if name == "explore":
        return Action("explore", {"direction": arg, "steps": amount})
    if name == "attack":
        return Action("attack", {"creature": arg, "amount": amount})
    return Action("sleep", {})


@settings(deadline=None, max_examples=40)
@given(
    config_id=st.sampled_from(CONFIG_IDS),
    seed=st.integers(0, 50),
    ambush=st.lists(st.sampled_from(range(8)), max_size=3, unique=True),
    moves=st.lists(_world_moves, min_size=20, max_size=60),
)
@example(config_id="default", seed=1, ambush=[4], moves=[("attack", "cow", 1)] * 20)
def test_indexed_world_matches_creature_scan(config_id, seed, ambush, moves):
    world = MarsWorld(make_config(config_id, seed=seed))
    kinds = [k for k, _ in CREATURE_SPAWNS if k in world.tables.survival]
    # Creatures placed next to the agent give the attacks something to kill.
    cells = _sorted_near_cells(world)
    for i, slot in enumerate(ambush):
        world.add_creature(kinds[i % len(kinds)], *cells[slot])
    for move in moves:
        world.step(_world_action(move))
        assert world._near_cells() == _sorted_near_cells(world)
        assert world.observe() == _reference_observe(world)
        assert world.occupancy == {(c.x, c.y): c for c in world.creatures}
        assert len(world.occupancy) == len(world.creatures)
