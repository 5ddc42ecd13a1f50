"""Table rules: recipe needs, tool tiers, the shortfall text, consumption,
hostiles and walkable cells.

The characterisation digest pins what the world, the naive prior and the
oracle-ruled world model say on every table branch, including the refusals
that the golden `simulate` runs never reach.
"""
import copy
import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from worldalign.core import Action, dumps_canonical
from worldalign.dsl import format_shortfall, parse, parse_shortfall
from worldalign.env import (
    CONFIG_IDS,
    MAKEABLE,
    PLACEABLE,
    MarsWorld,
    MineRule,
    Modification,
    Recipe,
    WorldConfig,
    make_config,
)
from worldalign.env.config import DEFAULT_RECIPES
from worldalign.env.oracle import kg_edges_for_config, rules_for_config
from worldalign.graphs import KnowledgeGraph, SceneGraph, kg_merge
from worldalign.world_model import NaivePrior, map_execute

from conftest import make_obs

STOCK_ITEMS = (
    "wood", "stone", "coal", "iron", "diamond", "sapling",
    "wood_pickaxe", "stone_pickaxe", "iron_pickaxe",
    "wood_sword", "stone_sword", "iron_sword",
)
INVENTORIES = (
    {},
    *({item: 1} for item in STOCK_ITEMS),
    {"wood": 2, "stone": 1, "coal": 1, "iron": 2, "wood_pickaxe": 1},
    {"wood": 3, "stone": 2, "coal": 1, "iron": 3, "sapling": 1, "stone_pickaxe": 1},
)
# Blocks put on the agent's eight neighbours (offsets from the agent) for
# the "workshop" layout; the cell ahead (south) stays open for placement.
WORKSHOP = {
    (-1, -1): "table", (0, -1): "furnace", (1, -1): "stone",
    (-1, 0): "tree", (1, 0): "coal", (-1, 1): "iron", (1, 1): "water",
}
CHARACTERISATION_DIGEST = "65e01fbbdca1017aaacb963b4161534f889af6d6c1a9765f8d60f3a4873bed94"


def _actions(config):
    actions = [Action("make", {"tool_name": tool}) for tool in MAKEABLE]
    actions += [Action("place", {"block_name": block}) for block in PLACEABLE]
    actions += [
        Action("mine", {"block_name": block, "amount": 1})
        for block in [*sorted(config.effective().mining), "table"]
    ]
    actions.append(Action("sleep", {}))
    return actions


def _clone(world):
    """Deep copy of a world's mutable state; the config, the tables and the
    interned (immutable) view objects are shared."""
    shared = {
        id(world.config): world.config,
        id(world.tables): world.tables,
        id(world._interned): world._interned,
    }
    return copy.deepcopy(world, shared)


def _record(template, config, prior, rules, kg, action, inventory):
    world = _clone(template)
    world.inventory = dict(inventory)
    obs = world.observe()
    next_obs, reward, done, outcome = world.step(action)
    base = prior.predict(obs, action)
    sg = SceneGraph.initial(world.locations())
    result = map_execute(rules, obs, action, base, kg, sg, tables=config.base_tables())
    return {
        "config": config.config_id,
        "action": action.to_json(),
        "inventory": dict(sorted(inventory.items())),
        "world": {
            "outcome": outcome.to_json(),
            "reward": reward,
            "done": done,
            "next_obs": next_obs.to_json(),
        },
        "prior": base.to_json(),
        "model": {
            "flag": result.flag,
            "feedback": result.feedback,
            "suggestion": result.suggestion,
            "activated": list(result.activated),
            "failing": list(result.failing),
            "next_obs": result.next_obs.to_json(),
        },
    }


def characterisation_records():
    records = []
    for config_id in CONFIG_IDS:
        config = make_config(config_id, seed=3)
        prior = NaivePrior(config)
        rules = [parse(text) for text in rules_for_config(config)]
        kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
        bare = MarsWorld(config)
        workshop = _clone(bare)
        for (dx, dy), block in WORKSHOP.items():
            workshop.grid[workshop.agent_y + dy][workshop.agent_x + dx] = block
        for template in (bare, workshop):
            for action in _actions(config):
                for inventory in INVENTORIES:
                    records.append(
                        _record(template, config, prior, rules, kg, action, inventory)
                    )
        ambush = _clone(bare)
        hostile = config.effective().hostiles()[0]
        ambush.add_creature(hostile, ambush.agent_x + 1, ambush.agent_y)
        records.append(
            _record(ambush, config, prior, rules, kg, Action("sleep", {}), {})
        )
    return records


def test_table_rule_outcomes_match_characterisation_digest():
    records = characterisation_records()
    blob = "\n".join(dumps_canonical(r) for r in records)
    # Each table branch is reached at least once, so the digest pins it.
    for pattern in (
        r"cannot make \w+: missing", "a nearby", "or better", "more needed",
        "must be nearby", "Missing for", "too dangerous",
    ):
        assert re.search(pattern, blob), pattern
    assert hashlib.sha256(blob.encode()).hexdigest() == CHARACTERISATION_DIGEST


def _with_tool(data, path, tool):
    rule = data
    for key in path:
        rule = rule[key]
    rule["tool"] = tool
    return data


@pytest.mark.parametrize("path", [
    ("mining", "stone"),  # a terrain block of the base table
    ("mining", "tree"),  # a base rule that the taskdep modification overrides
    ("modifications", 0, "mining", "tree"),  # a modification's own rule
])
def test_unknown_tool_tier_rejected_at_config_load(path):
    data = _with_tool(make_config("taskdep").to_json(), path, "bronze_pickaxe")
    with pytest.raises(ValueError, match=rf"'{path[-1]}'.*'bronze_pickaxe'"):
        WorldConfig.from_json(data)


def test_unknown_tool_tier_rejected_when_constructed_directly():
    with pytest.raises(ValueError, match=r"'tree'.*'bronze_pickaxe'"):
        WorldConfig(
            mining={"tree": MineRule("wood", tool="bronze_pickaxe")},
            modifications=(Modification(kind="taskdep", mining={"tree": MineRule("iron")}),),
        )


_names = st.from_regex(r"[a-z][a-z_]{0,7}", fullmatch=True)


@settings(deadline=None, max_examples=80)
@given(
    product=st.sampled_from(MAKEABLE + PLACEABLE),
    consumes=st.dictionaries(_names, st.integers(1, 4), max_size=4),
    requires=st.dictionaries(_names, st.integers(1, 4), max_size=2),
    platform=st.none() | _names,
    stock=st.dictionaries(_names, st.integers(0, 6), max_size=5),
    near=st.lists(_names, max_size=3),
)
def test_shortfall_text_round_trips(product, consumes, requires, platform, stock, near):
    recipe = Recipe(consumes=consumes, requires=requires, platform=platform)
    obs = make_obs(near=tuple(near), inventory=stock)
    needs = recipe.needs()
    lines = format_shortfall(needs, platform, obs)
    text = ", ".join(lines)
    expected_missing = [
        (m, needs[m] - stock.get(m, 0)) for m in sorted(needs) if stock.get(m, 0) < needs[m]
    ]
    expected_platforms = [platform] if platform is not None and platform not in near else []
    assert parse_shortfall(f"Missing for {product}: {text}.") == (
        expected_missing, expected_platforms
    )

    prior = NaivePrior(WorldConfig(recipes={**DEFAULT_RECIPES, product: recipe}))
    key = "tool_name" if product in MAKEABLE else "block_name"
    name = "make" if product in MAKEABLE else "place"
    outcome = prior.predict(obs, Action(name, {key: product}))
    assert outcome.success == (not lines)
    if lines:
        assert outcome.suggestion == f"missing for {product}: {text}"
