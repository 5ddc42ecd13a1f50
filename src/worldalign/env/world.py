"""Deterministic survival grid world.

World layout, creature wander and need decay are all driven by RNG streams
derived from the config seed, so identical (config, action sequence) pairs
replay to bit-identical trajectories.  Invalid actions never raise: they
come back as failed outcomes with a feedback string.
"""
from __future__ import annotations

import random
from itertools import accumulate
from dataclasses import dataclass, replace

from ..core import (
    Action,
    Observation,
    Outcome,
    Status,
    VisibleObject,
    VisibleObjectPool,
    has_tool_at_least,
)
from .config import (
    ACHIEVEMENTS,
    MAKEABLE,
    PLACEABLE,
    WorldConfig,
    check_solvable,
)

WALKABLE = frozenset(("grass", "sand"))  # open cells: walk, spawn and place here
DIR_DELTAS = {"north": (0, -1), "south": (0, 1), "east": (1, 0), "west": (-1, 0)}
_STEPS = tuple(DIR_DELTAS.values())  # a wandering creature's moves
# The eight neighbours of a cell, in near-cell order: row by row, then column.
NEAR_OFFSETS = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy)

DECAY_PERIOD = 25  # food/drink/energy each lose one point this often
STARVE_PERIOD = 5  # health loss cadence once any need hits zero
CREATURE_PERIOD = 2  # creatures move every other step
CHASE_RANGE = 5

# Forced near-spawn placements guaranteeing the crafting chain is reachable
# regardless of how the weighted scatter falls.
FORCED_BLOCKS = (
    ("tree", 6), ("stone", 5), ("coal", 3), ("iron", 3),
    ("diamond", 2), ("water", 2), ("plant", 2),
)
CREATURE_SPAWNS = (("cow", 2), ("zombie", 1), ("skeleton", 1))


@dataclass
class _Creature:
    kind: str
    x: int
    y: int


class MarsWorld:
    """One environment instance; single-threaded, externally synchronized."""

    def __init__(self, config: WorldConfig):
        check_solvable(config)
        self.config = config
        self.tables = config.effective()
        self._hostiles = frozenset(self.tables.hostiles())
        # Observations share one immutable VisibleObject per (type, dx, dy).
        self._interned = VisibleObjectPool()
        self.reset()

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> Observation:
        rng = random.Random(f"{self.config.seed}:worldgen")
        size = self.config.grid_size
        names = sorted(self.tables.terrain_table)
        weights = [self.tables.terrain_table[n] for n in names]
        # One batched draw makes the same `random()` calls as a `choices` per cell.
        cells = rng.choices(names, cum_weights=list(accumulate(weights)), k=size * size)
        self.grid = [cells[y * size:(y + 1) * size] for y in range(size)]
        center = size // 2
        for y in range(center - 2, center + 3):
            for x in range(center - 2, center + 3):
                self.grid[y][x] = "grass"
        ring = [
            (x, y)
            for y in range(size)
            for x in range(size)
            if 3 <= max(abs(x - center), abs(y - center)) <= 7
        ]
        rng.shuffle(ring)
        slot = 0
        for block, count in FORCED_BLOCKS:
            for _ in range(count):
                x, y = ring[slot]
                self.grid[y][x] = block
                slot += 1

        self.agent_x = center
        self.agent_y = center
        self.facing = "south"
        self.status = Status(9, 9, 9, 9)
        self.inventory: dict[str, int] = {}
        self.creatures: list[_Creature] = []  # wander order
        self.occupancy: dict[tuple[int, int], _Creature] = {}  # the same creatures by cell
        spawn_rng = random.Random(f"{self.config.seed}:creatures")
        spots = [
            (x, y)
            for y in range(size)
            for x in range(size)
            if 6 <= max(abs(x - center), abs(y - center)) <= 14
            and self.grid[y][x] in WALKABLE
        ]
        spawn_rng.shuffle(spots)
        cursor = 0
        for kind, count in CREATURE_SPAWNS:
            if kind not in self.tables.survival:
                continue
            for _ in range(count):
                if cursor < len(spots):
                    x, y = spots[cursor]
                    self.add_creature(kind, x, y)
                    cursor += 1
        self._creature_rng = random.Random(f"{self.config.seed}:wander")
        self.unlocks: dict[str, int] = {}  # achievement -> step of its first unlock
        self.step_count = 0
        self.health_lost = 0
        self.health_regained = 0
        self.dead = False
        return self.observe()

    def add_creature(self, kind: str, x: int, y: int) -> None:
        creature = _Creature(kind, x, y)
        self.creatures.append(creature)
        self.occupancy[(x, y)] = creature

    # -- geometry helpers -------------------------------------------------
    def _in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.config.grid_size and 0 <= y < self.config.grid_size

    def _creature_at(self, x: int, y: int) -> _Creature | None:
        return self.occupancy.get((x, y))

    def _cell_name(self, x: int, y: int) -> str:
        creature = self._creature_at(x, y)
        return creature.kind if creature else self.grid[y][x]

    def _near_cells(self) -> list[tuple[int, int]]:
        ax, ay, size = self.agent_x, self.agent_y, self.config.grid_size
        return [
            (ax + dx, ay + dy)
            for dx, dy in NEAR_OFFSETS
            if 0 <= ax + dx < size and 0 <= ay + dy < size
        ]

    def observe(self) -> Observation:
        rows, cols = self.config.view
        ax, ay, size = self.agent_x, self.agent_y, self.config.grid_size
        interned, occupancy = self._interned, self.occupancy
        visible: list[VisibleObject] = []
        xs = range(max(0, ax - cols // 2), min(size, ax + cols // 2 + 1))
        for y in range(max(0, ay - rows // 2), min(size, ay + rows // 2 + 1)):
            row, dy = self.grid[y], y - ay
            for x in xs:
                if dy == 0 and x == ax:
                    continue
                visible.append(interned[(row[x], x - ax, dy)])
                creature = occupancy.get((x, y))
                if creature is not None:
                    visible.append(interned[(creature.kind, x - ax, dy)])
        # both the creature and the terrain it stands on count as near
        near = set()
        for x, y in self._near_cells():
            near.add(self._cell_name(x, y))
            near.add(self.grid[y][x])
        fx, fy = self._front()
        in_front = self._cell_name(fx, fy) if self._in_bounds(fx, fy) else "void"
        return Observation(
            position=self.grid[self.agent_y][self.agent_x],
            in_front=in_front,
            visible_objects=tuple(visible),
            near_objects=frozenset(near),
            status=self.status,
            inventory=dict(self.inventory),
        )

    def _front(self) -> tuple[int, int]:
        dx, dy = DIR_DELTAS[self.facing]
        return self.agent_x + dx, self.agent_y + dy

    # -- step --------------------------------------------------------------
    def step(self, action: Action) -> tuple[Observation, float, bool, Outcome]:
        if self.dead or self.step_count >= self.config.max_steps:
            obs = self.observe()
            return obs, 0.0, True, Outcome(False, "episode is over")

        unlocked_before = len(self.unlocks)
        lost_before, regained_before = self.health_lost, self.health_regained

        handler = getattr(self, f"_do_{action.name}")
        success, feedback = handler(action)

        self._wander_creatures()
        self._apply_hostile_damage()
        self._apply_decay()
        self.step_count += 1

        if self.status.health <= 0:
            self.dead = True
        done = self.dead or self.step_count >= self.config.max_steps
        reward = (
            (len(self.unlocks) - unlocked_before) * 1.0
            + (self.health_regained - regained_before) * 0.1
            - (self.health_lost - lost_before) * 0.1
        )
        return self.observe(), reward, done, Outcome(success, feedback)

    # -- action handlers -----------------------------------------------------
    def _do_mine(self, action: Action) -> tuple[bool, str]:
        block = str(action.args["block_name"])
        amount = int(action.args["amount"])
        rule = self.tables.mining.get(block)
        if rule is None:
            return False, f"{block} cannot be mined"
        if not has_tool_at_least(self.inventory, rule.tool, self.tables.tool_tiers):
            return False, f"mining {block} needs {rule.tool} or better"
        targets = [
            (x, y) for x, y in self._near_cells() if self.grid[y][x] == block
        ]
        if not targets:
            return False, f"no {block} within reach"
        mined = 0
        for x, y in targets[:amount]:
            if rule.drop == "drink":
                self._set_status(drink=min(9, self.status.drink + 1))
                self._unlock("collect_drink")
            else:
                self.inventory[rule.drop] = self.inventory.get(rule.drop, 0) + 1
                self._unlock(f"collect_{rule.drop}")
            if rule.consumed:
                self.grid[y][x] = "grass"
            mined += 1
        return True, f"mined {mined} {block}"

    def _do_attack(self, action: Action) -> tuple[bool, str]:
        target = str(action.args["creature"])
        amount = int(action.args["amount"])
        traits = self.tables.survival.get(target)
        if traits is None:
            return False, f"{target} cannot be attacked"
        near = self._near_cells()
        hits = 0
        for x, y in near:
            if hits >= amount:
                break
            creature = self._creature_at(x, y)
            if creature and creature.kind == target:
                self.creatures.remove(creature)
                del self.occupancy[(x, y)]
                self._unlock(f"kill_{target}")
                self._eat(traits)
                hits += 1
        if hits < amount and target == "plant":
            for x, y in near:
                if hits >= amount:
                    break
                if self.grid[y][x] == "plant":
                    self.grid[y][x] = "grass"
                    self._unlock("eat_plant")
                    self._eat(traits)
                    hits += 1
        if hits == 0:
            return False, f"no {target} within reach"
        return True, f"attacked {hits} {target}"

    def _eat(self, traits) -> None:
        if traits.on_eat_food_delta:
            self._set_status(food=max(0, min(9, self.status.food + traits.on_eat_food_delta)))
        if traits.on_eat_health_delta:
            self._change_health(traits.on_eat_health_delta)

    def _do_sleep(self, action: Action) -> tuple[bool, str]:
        near_kinds = {self._cell_name(x, y) for x, y in self._near_cells()}
        threats = sorted(self._hostiles & near_kinds)
        if threats:
            return False, f"too dangerous to sleep: {', '.join(threats)} nearby"
        self._set_status(energy=9)
        self._unlock("wake_up")
        return True, "slept and woke up rested"

    def _do_place(self, action: Action) -> tuple[bool, str]:
        block = str(action.args["block_name"])
        if block not in PLACEABLE:
            return False, f"{block} cannot be placed"
        recipe = self.tables.recipes.get(block)
        if recipe is None:
            return False, f"no way to place {block}"
        shortfall = self._recipe_shortfall(recipe)
        if shortfall:
            return False, f"cannot place {block}: missing {', '.join(shortfall)}"
        fx, fy = self._front()
        if (
            not self._in_bounds(fx, fy)
            or self.grid[fy][fx] not in WALKABLE
            or self._creature_at(fx, fy)
        ):
            return False, f"cannot place {block}: the cell ahead is blocked"
        recipe.consume(self.inventory)
        self.grid[fy][fx] = "plant" if block == "sapling" else block
        name = "place_plant" if block == "sapling" else f"place_{block}"
        self._unlock(name)
        return True, f"placed {block}"

    def _do_make(self, action: Action) -> tuple[bool, str]:
        tool = str(action.args["tool_name"])
        if tool not in MAKEABLE:
            return False, f"{tool} cannot be made"
        recipe = self.tables.recipes.get(tool)
        if recipe is None:
            return False, f"no recipe for {tool}"
        shortfall = self._recipe_shortfall(recipe)
        if shortfall:
            return False, f"cannot make {tool}: missing {', '.join(shortfall)}"
        recipe.consume(self.inventory)
        self.inventory[tool] = self.inventory.get(tool, 0) + 1
        self._unlock(f"make_{tool}")
        return True, f"made {tool}"

    def _do_explore(self, action: Action) -> tuple[bool, str]:
        direction = str(action.args["direction"])
        steps = int(action.args["steps"])
        self.facing = direction
        dx, dy = DIR_DELTAS[direction]
        moved = 0
        for _ in range(steps):
            nx, ny = self.agent_x + dx, self.agent_y + dy
            if (
                not self._in_bounds(nx, ny)
                or self.grid[ny][nx] not in WALKABLE
                or self._creature_at(nx, ny)
            ):
                break
            self.agent_x, self.agent_y = nx, ny
            moved += 1
        if moved < steps:
            return True, f"explored {moved} cells {direction}, then blocked"
        return True, f"explored {moved} cells {direction}"

    # -- recipe helpers ------------------------------------------------------
    def _recipe_shortfall(self, recipe) -> list[str]:
        shortfall = []
        for material, count in sorted(recipe.needs().items()):
            have = self.inventory.get(material, 0)
            if have < count:
                shortfall.append(f"{material} x{count - have}")
        if recipe.platform is not None:
            near = {self._cell_name(x, y) for x, y in self._near_cells()}
            if recipe.platform not in near:
                shortfall.append(f"a nearby {recipe.platform}")
        return shortfall

    # -- autonomous dynamics ---------------------------------------------------
    def _wander_creatures(self) -> None:
        if self.step_count % CREATURE_PERIOD != 0:
            return
        for creature in self.creatures:
            hostile = self.tables.survival[creature.kind].hostile
            dist = max(abs(creature.x - self.agent_x), abs(creature.y - self.agent_y))
            if hostile and dist <= CHASE_RANGE:
                dx = _sign(self.agent_x - creature.x)
                dy = _sign(self.agent_y - creature.y)
                options = [(dx, 0), (0, dy)] if dx and dy else [(dx, dy)]
            else:
                options = [self._creature_rng.choice(_STEPS)]
            for dx, dy in options:
                nx, ny = creature.x + dx, creature.y + dy
                if (
                    self._in_bounds(nx, ny)
                    and self.grid[ny][nx] in WALKABLE
                    and not self._creature_at(nx, ny)
                    and (nx, ny) != (self.agent_x, self.agent_y)
                ):
                    del self.occupancy[(creature.x, creature.y)]
                    creature.x, creature.y = nx, ny
                    self.occupancy[(nx, ny)] = creature
                    break

    def _apply_hostile_damage(self) -> None:
        for x, y in self._near_cells():
            creature = self._creature_at(x, y)
            if creature and creature.kind in self._hostiles:
                self._change_health(-1)

    def _apply_decay(self) -> None:
        step = self.step_count + 1
        if step % DECAY_PERIOD == 0:
            self._set_status(
                food=max(0, self.status.food - 1),
                drink=max(0, self.status.drink - 1),
                energy=max(0, self.status.energy - 1),
            )
            if self.status.food > 0 and self.status.drink > 0 and self.status.energy > 0:
                self._change_health(1)
        if step % STARVE_PERIOD == 0 and (
            self.status.food == 0 or self.status.drink == 0 or self.status.energy == 0
        ):
            self._change_health(-1)

    def _change_health(self, delta: int) -> None:
        new = max(0, min(9, self.status.health + delta))
        actual = new - self.status.health
        if actual > 0:
            self.health_regained += actual
        elif actual < 0:
            self.health_lost += -actual
        self._set_status(health=new)

    def _unlock(self, name: str) -> None:
        if name in ACHIEVEMENTS:
            self.unlocks.setdefault(name, self.step_count)

    def _set_status(self, **kwargs: int) -> None:
        self.status = replace(self.status, **kwargs)

    def locations(self) -> list[str]:
        """Location vocabulary for scene-graph initialization."""
        return sorted(self.tables.terrain_table)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def apply_effect(
    obs: Observation, action: Action, success: bool, tables: WorldConfig
) -> Observation:
    """Public effect function: estimate the next observation from (obs,
    action, success bit) using only table knowledge.

    Failed actions leave the observation unchanged (autonomous drift such as
    need decay is not modelled here).  This is the same derivation the
    environment applies to inventory and status, minus grid knowledge.  The
    estimate is `obs` itself when the action failed, or when it is an
    `explore` and no inventory count is zero; any other estimate is a new
    observation, whose inventory drops zero counts.
    """
    if not success or (action.name == "explore" and all(obs.inventory.values())):
        return obs
    inventory = dict(obs.inventory)
    status = obs.status
    in_front = obs.in_front
    near = set(obs.near_objects)
    visible = obs.visible_objects

    if action.name == "mine":
        rule = tables.mining.get(str(action.args["block_name"]))
        if rule is not None:
            amount = int(action.args["amount"])
            if rule.drop == "drink":
                status = replace(status, drink=min(9, status.drink + amount))
            else:
                inventory[rule.drop] = inventory.get(rule.drop, 0) + amount
    elif action.name == "attack":
        traits = tables.survival.get(str(action.args["creature"]))
        if traits is not None:
            food = max(0, min(9, status.food + traits.on_eat_food_delta))
            health = max(0, min(9, status.health + traits.on_eat_health_delta))
            status = replace(status, food=food, health=health)
    elif action.name == "sleep":
        status = replace(status, energy=9)
    elif action.name in ("place", "make"):
        product = str(action.args["block_name" if action.name == "place" else "tool_name"])
        recipe = tables.recipes.get(product)
        if recipe is not None:
            recipe.consume(inventory)
        if action.name == "make":
            inventory[product] = inventory.get(product, 0) + 1
        else:
            placed = "plant" if product == "sapling" else product
            in_front = placed
            near.add(placed)
            visible = visible + (VisibleObject(placed, 0, 0),)

    inventory = {k: v for k, v in inventory.items() if v > 0}
    return Observation(
        position=obs.position,
        in_front=in_front,
        visible_objects=visible,
        near_objects=frozenset(near),
        status=status,
        inventory=inventory,
    )
