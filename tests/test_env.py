import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from worldalign.core import Action, Observation, VisibleObject
from worldalign.dsl import parse
from worldalign.env import (
    CONFIG_IDS,
    MarsWorld,
    Modification,
    UnsolvableConfig,
    WorldConfig,
    check_solvable,
    expected_rule_count,
    kg_edges_for_config,
    load_config,
    make_config,
    replay,
    rules_for_config,
)
from worldalign.env.world import CREATURE_SPAWNS
from worldalign.experiments import run_learning_trial, standard_components

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
        on_disk = json.loads((root / f"{config_id}.json").read_text())
        assert on_disk == make_config(config_id).to_json()
        assert load_config(str(root / f"{config_id}.json")).config_id == config_id


def test_config_json_round_trip():
    config = make_config("all_three", seed=3)
    assert WorldConfig.from_json(config.to_json()) == config


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
    assert "place_table" in world.ledger.unlocks
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
    assert "wake_up" in world.ledger.unlocks


def test_explore_reports_blocked_but_succeeds():
    world = _world_where()
    for direction in ("north", "south", "east", "west"):
        _, _, _, outcome = world.step(Action("explore", {"direction": direction, "steps": 50}))
        assert outcome.success
    assert world.step_count == 4


# -- determinism / conservation ----------------------------------------------

def test_identical_action_sequences_replay_bit_for_bit():
    config = make_config("survival", seed=9)
    actions = [
        Action("explore", {"direction": "east", "steps": 3}),
        Action("mine", {"block_name": "tree", "amount": 1}),
        Action("sleep", {}),
        Action("explore", {"direction": "south", "steps": 2}),
    ] * 10
    _, first = replay(config, actions)
    _, second = replay(config, actions)
    assert first.to_ndjson() == second.to_ndjson()


def test_trajectory_chain_holds_after_every_step():
    config = make_config("default", seed=2)
    actions = [Action("explore", {"direction": "east", "steps": 1})] * 30
    _, trajectory = replay(config, actions)
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


def test_rule_count_recomputable_from_config():
    for config_id in ("default", "taskdep", "all_three"):
        config = make_config(config_id)
        assert len(rules_for_config(config)) == expected_rule_count(config)


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
