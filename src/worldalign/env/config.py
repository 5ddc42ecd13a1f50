"""World configuration: terrain, recipes, mining table, survival traits and
the counter-commonsense modification machinery.

A config carries the *default* tables plus a list of modifications; the
environment runs on the modified (effective) tables while a naive predictor
may keep consulting the defaults.  That gap is the misalignment the learning
pipeline exists to close.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..core import DEFAULT_TOOL_TIERS, has_tool_at_least


class UnsolvableConfig(ValueError):
    """A recipe chain in the config cannot be completed from raw terrain."""


@dataclass(frozen=True)
class Recipe:
    consumes: dict[str, int] = field(default_factory=dict)
    requires: dict[str, int] = field(default_factory=dict)
    platform: str | None = None

    def needs(self) -> dict[str, int]:
        """What the inventory must hold: requires plus consumes, summed."""
        needs = dict(self.requires)
        for material, count in self.consumes.items():
            needs[material] = needs.get(material, 0) + count
        return needs

    def consume(self, inventory: dict[str, int]) -> None:
        """Take the consumed materials out of `inventory`, in place; a count
        that reaches zero (or would go below it) drops the entry."""
        for material, count in self.consumes.items():
            left = inventory.get(material, 0) - count
            if left > 0:
                inventory[material] = left
            else:
                inventory.pop(material, None)

    def to_json(self) -> dict:
        return {
            "consumes": dict(sorted(self.consumes.items())),
            "requires": dict(sorted(self.requires.items())),
            "platform": self.platform,
        }

    @staticmethod
    def from_json(data: dict) -> "Recipe":
        return Recipe(
            consumes={k: int(v) for k, v in data.get("consumes", {}).items()},
            requires={k: int(v) for k, v in data.get("requires", {}).items()},
            platform=data.get("platform"),
        )


@dataclass(frozen=True)
class MineRule:
    drop: str
    tool: str | None = None  # minimum tier in tool_tiers, None = bare hands
    consumed: bool = True  # mined cell turns to grass

    def to_json(self) -> dict:
        return {"drop": self.drop, "tool": self.tool, "consumed": self.consumed}

    @staticmethod
    def from_json(data: dict) -> "MineRule":
        return MineRule(str(data["drop"]), data.get("tool"), bool(data.get("consumed", True)))


@dataclass(frozen=True)
class CreatureTraits:
    hostile: bool
    on_eat_health_delta: int = 0
    on_eat_food_delta: int = 0

    def to_json(self) -> dict:
        return {
            "hostile": self.hostile,
            "on_eat_health_delta": self.on_eat_health_delta,
            "on_eat_food_delta": self.on_eat_food_delta,
        }

    @staticmethod
    def from_json(data: dict) -> "CreatureTraits":
        return CreatureTraits(
            bool(data["hostile"]),
            int(data.get("on_eat_health_delta", 0)),
            int(data.get("on_eat_food_delta", 0)),
        )


@dataclass(frozen=True)
class Modification:
    """One counter-commonsense toggle: a kind plus substitution tables that
    override the matching default tables."""

    kind: str  # "terrain" | "survival" | "taskdep"
    terrain_table: dict[str, float] = field(default_factory=dict)
    recipes: dict[str, Recipe] = field(default_factory=dict)
    mining: dict[str, MineRule] = field(default_factory=dict)
    removed_mining: tuple[str, ...] = ()
    survival: dict[str, CreatureTraits] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "terrain_table": dict(sorted(self.terrain_table.items())),
            "recipes": {k: v.to_json() for k, v in sorted(self.recipes.items())},
            "mining": {k: v.to_json() for k, v in sorted(self.mining.items())},
            "removed_mining": list(self.removed_mining),
            "survival": {k: v.to_json() for k, v in sorted(self.survival.items())},
        }

    @staticmethod
    def from_json(data: dict) -> "Modification":
        return Modification(
            kind=str(data["kind"]),
            terrain_table={k: float(v) for k, v in data.get("terrain_table", {}).items()},
            recipes={k: Recipe.from_json(v) for k, v in data.get("recipes", {}).items()},
            mining={k: MineRule.from_json(v) for k, v in data.get("mining", {}).items()},
            removed_mining=tuple(data.get("removed_mining", ())),
            survival={
                k: CreatureTraits.from_json(v) for k, v in data.get("survival", {}).items()
            },
        )


DEFAULT_TERRAIN = {
    "grass": 0.56,
    "sand": 0.10,
    "water": 0.06,
    "tree": 0.10,
    "stone": 0.08,
    "coal": 0.04,
    "iron": 0.03,
    "diamond": 0.01,
    "lava": 0.01,
    "plant": 0.01,
}

DEFAULT_RECIPES = {
    "table": Recipe(consumes={"wood": 2}),
    "furnace": Recipe(consumes={"stone": 2}, platform="table"),
    "sapling": Recipe(consumes={"sapling": 1}),
    "stone": Recipe(consumes={"stone": 1}),
    "wood_pickaxe": Recipe(consumes={"wood": 1}, platform="table"),
    "stone_pickaxe": Recipe(consumes={"wood": 1, "stone": 1}, platform="table"),
    "iron_pickaxe": Recipe(consumes={"wood": 1, "coal": 1, "iron": 1}, platform="furnace"),
    "wood_sword": Recipe(consumes={"wood": 1}, platform="table"),
    "stone_sword": Recipe(consumes={"wood": 1, "stone": 1}, platform="table"),
    "iron_sword": Recipe(consumes={"wood": 1, "coal": 1, "iron": 1}, platform="furnace"),
}

DEFAULT_MINING = {
    "tree": MineRule(drop="wood"),
    "stone": MineRule(drop="stone", tool="wood_pickaxe"),
    "coal": MineRule(drop="coal", tool="wood_pickaxe"),
    "iron": MineRule(drop="iron", tool="stone_pickaxe"),
    "diamond": MineRule(drop="diamond", tool="iron_pickaxe"),
    "grass": MineRule(drop="sapling", consumed=False),
    "water": MineRule(drop="drink", consumed=False),
}

DEFAULT_SURVIVAL = {
    "zombie": CreatureTraits(hostile=True),
    "skeleton": CreatureTraits(hostile=True),
    "cow": CreatureTraits(hostile=False, on_eat_health_delta=1, on_eat_food_delta=4),
    "plant": CreatureTraits(hostile=False, on_eat_health_delta=1, on_eat_food_delta=2),
}

PLACEABLE = ("table", "furnace", "sapling", "stone")
MAKEABLE = (
    "wood_pickaxe", "stone_pickaxe", "iron_pickaxe",
    "wood_sword", "stone_sword", "iron_sword",
)

ACHIEVEMENTS = (
    "collect_wood", "collect_stone", "collect_coal", "collect_iron",
    "collect_diamond", "collect_sapling", "collect_drink",
    "make_wood_pickaxe", "make_stone_pickaxe", "make_iron_pickaxe",
    "make_wood_sword", "make_stone_sword", "make_iron_sword",
    "place_table", "place_furnace", "place_plant", "place_stone",
    "kill_zombie", "kill_skeleton", "kill_cow", "eat_plant", "wake_up",
)

TARGET_CHAIN_ACHIEVEMENT = "make_iron_pickaxe"


@dataclass(frozen=True)
class WorldConfig:
    config_id: str = "default"
    grid_size: int = 32
    view: tuple[int, int] = (7, 9)  # rows, cols
    max_steps: int = 400
    terrain_table: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TERRAIN))
    recipes: dict[str, Recipe] = field(default_factory=lambda: dict(DEFAULT_RECIPES))
    mining: dict[str, MineRule] = field(default_factory=lambda: dict(DEFAULT_MINING))
    tool_tiers: tuple[str, ...] = DEFAULT_TOOL_TIERS
    survival: dict[str, CreatureTraits] = field(default_factory=lambda: dict(DEFAULT_SURVIVAL))
    modifications: tuple[Modification, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if sum(self.terrain_table.values()) <= 0:
            raise ValueError("terrain spawn weights must sum to a positive value")
        for mining in (self.mining, *(mod.mining for mod in self.modifications)):
            for block, rule in mining.items():
                if rule.tool is not None and rule.tool not in self.tool_tiers:
                    raise ValueError(
                        f"mining {block!r} names tool tier {rule.tool!r}, "
                        f"not one of tool_tiers {list(self.tool_tiers)}"
                    )

    def with_seed(self, seed: int) -> "WorldConfig":
        return replace(self, seed=seed)

    def effective(self) -> "EffectiveTables":
        """Tables after applying every modification in order."""
        terrain = dict(self.terrain_table)
        recipes = dict(self.recipes)
        mining = dict(self.mining)
        survival = dict(self.survival)
        for mod in self.modifications:
            terrain.update(mod.terrain_table)
            recipes.update(mod.recipes)
            mining.update(mod.mining)
            for name in mod.removed_mining:
                mining.pop(name, None)
            survival.update(mod.survival)
        return EffectiveTables(terrain, recipes, mining, tuple(self.tool_tiers), survival)

    def base_tables(self) -> "EffectiveTables":
        """The unmodified default tables, as a naive prior would recall them."""
        return EffectiveTables(
            dict(self.terrain_table),
            dict(self.recipes),
            dict(self.mining),
            tuple(self.tool_tiers),
            dict(self.survival),
        )

    def to_json(self) -> dict:
        return {
            "config_id": self.config_id,
            "grid_size": self.grid_size,
            "view": list(self.view),
            "max_steps": self.max_steps,
            "terrain_table": dict(sorted(self.terrain_table.items())),
            "recipes": {k: v.to_json() for k, v in sorted(self.recipes.items())},
            "mining": {k: v.to_json() for k, v in sorted(self.mining.items())},
            "tool_tiers": list(self.tool_tiers),
            "survival": {k: v.to_json() for k, v in sorted(self.survival.items())},
            "modifications": [m.to_json() for m in self.modifications],
            "seed": self.seed,
        }

    @staticmethod
    def from_json(data: dict) -> "WorldConfig":
        return WorldConfig(
            config_id=str(data.get("config_id", "custom")),
            grid_size=int(data["grid_size"]),
            view=(int(data["view"][0]), int(data["view"][1])),
            max_steps=int(data.get("max_steps", 400)),
            terrain_table={k: float(v) for k, v in data["terrain_table"].items()},
            recipes={k: Recipe.from_json(v) for k, v in data["recipes"].items()},
            mining={k: MineRule.from_json(v) for k, v in data["mining"].items()},
            tool_tiers=tuple(data["tool_tiers"]),
            survival={k: CreatureTraits.from_json(v) for k, v in data["survival"].items()},
            modifications=tuple(Modification.from_json(m) for m in data.get("modifications", ())),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class EffectiveTables:
    terrain: dict[str, float]
    recipes: dict[str, Recipe]
    mining: dict[str, MineRule]
    tool_tiers: tuple[str, ...]
    survival: dict[str, CreatureTraits]

    def hostiles(self) -> list[str]:
        return sorted(name for name, traits in self.survival.items() if traits.hostile)


def check_solvable(config: WorldConfig) -> None:
    """Verify every recipe ingredient is obtainable under the effective
    tables and the iron-pickaxe chain is closed; raise UnsolvableConfig
    otherwise."""
    tables = config.effective()
    obtainable: set[str] = set()
    craftable: dict[str, int] = {}  # one of each craftable product, as an inventory

    def recipe_ready(recipe: Recipe) -> bool:
        if not recipe.needs().keys() <= obtainable:
            return False
        return recipe.platform is None or recipe.platform in craftable

    changed = True
    while changed:
        changed = False
        for block, rule in tables.mining.items():
            if block in tables.terrain and has_tool_at_least(
                craftable, rule.tool, tables.tool_tiers
            ):
                if rule.drop not in obtainable:
                    obtainable.add(rule.drop)
                    changed = True
        for product, recipe in tables.recipes.items():
            if product not in craftable and recipe_ready(recipe):
                craftable[product] = 1
                obtainable.add(product)
                changed = True

    problems = []
    for product, recipe in tables.recipes.items():
        missing = recipe.needs().keys() - obtainable
        if missing:
            problems.append(f"{product}: unobtainable ingredients {sorted(missing)}")
        if recipe.platform is not None and recipe.platform not in craftable:
            problems.append(f"{product}: platform {recipe.platform!r} unbuildable")
    if "iron_pickaxe" not in craftable:
        problems.append("iron_pickaxe chain is not closed")
    if problems:
        raise UnsolvableConfig("; ".join(sorted(set(problems))))


def _terrain_mod() -> Modification:
    # Distribution shift only: ores migrate toward sand, coal toward grassland.
    return Modification(
        kind="terrain",
        terrain_table={
            "grass": 0.48,
            "sand": 0.18,
            "stone": 0.05,
            "coal": 0.07,
            "iron": 0.05,
            "diamond": 0.02,
        },
    )


def _survival_mod() -> Modification:
    # Cows turn aggressive and eating them hurts; zombies go passive.
    return Modification(
        kind="survival",
        survival={
            "cow": CreatureTraits(hostile=True, on_eat_health_delta=-2, on_eat_food_delta=2),
            "zombie": CreatureTraits(hostile=False),
        },
    )


def _taskdep_mod() -> Modification:
    # Trees drop iron instead of wood, and every recipe that wanted wood now
    # wants iron, so the chain stays closed while default expectations break.
    return Modification(
        kind="taskdep",
        mining={"tree": MineRule(drop="iron")},
        recipes={
            "table": Recipe(consumes={"iron": 2}),
            "wood_pickaxe": Recipe(consumes={"iron": 1}, platform="table"),
            "stone_pickaxe": Recipe(consumes={"iron": 1, "stone": 1}, platform="table"),
            "iron_pickaxe": Recipe(consumes={"coal": 1, "iron": 2}, platform="furnace"),
            "wood_sword": Recipe(consumes={"iron": 1}, platform="table"),
            "stone_sword": Recipe(consumes={"iron": 1, "stone": 1}, platform="table"),
            "iron_sword": Recipe(consumes={"coal": 1, "iron": 2}, platform="furnace"),
        },
    )


_MOD_BUILDERS = {
    "terrain": _terrain_mod,
    "survival": _survival_mod,
    "taskdep": _taskdep_mod,
}

# The eight shipped world types: default, each single modification, each
# pair, and all three combined.
_COMBOS: dict[str, tuple[str, ...]] = {
    "default": (),
    "terrain": ("terrain",),
    "survival": ("survival",),
    "taskdep": ("taskdep",),
    "terrain_survival": ("terrain", "survival"),
    "terrain_taskdep": ("terrain", "taskdep"),
    "survival_taskdep": ("survival", "taskdep"),
    "all_three": ("terrain", "survival", "taskdep"),
}
CONFIG_IDS = tuple(_COMBOS)


def make_config(config_id: str, seed: int = 0) -> WorldConfig:
    if config_id not in _COMBOS:
        raise KeyError(f"unknown config id {config_id!r}; known: {', '.join(CONFIG_IDS)}")
    mods = tuple(_MOD_BUILDERS[kind]() for kind in _COMBOS[config_id])
    return WorldConfig(config_id=config_id, modifications=mods, seed=seed)


def load_config(path_or_id: str, seed: int | None = None) -> WorldConfig:
    """Resolve a registry id or a JSON config file path."""
    if path_or_id in _COMBOS:
        config = make_config(path_or_id)
    else:
        with open(path_or_id) as fh:
            config = WorldConfig.from_json(json.load(fh))
    if seed is not None:
        config = config.with_seed(seed)
    return config
