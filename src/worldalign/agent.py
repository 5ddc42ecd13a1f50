"""MPC planning loop and the outer plan/act/learn alternation.

Each decision step proposes candidate actions, vets them against the
rule-corrected world model, and executes the first accepted one (or the last
candidate once the replan budget is spent, mirroring the loop's exit rule).
The scripted planner decomposes goals over knowledge-graph requirements and
reacts to world-model suggestions; an external-backend planner speaks the
same protocol through prompts.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Protocol

from .core import Action, Observation, Outcome, Trajectory, Transition, has_tool_at_least
from .dsl import parse_shortfall
from .env.config import (
    ACHIEVEMENTS,
    MAKEABLE,
    PLACEABLE,
    TARGET_CHAIN_ACHIEVEMENT,
    WorldConfig,
)
from .env.world import DIR_DELTAS, WALKABLE, MarsWorld
from .graphs import KnowledgeGraph, SceneGraph
from .learner import LearnerConfig, LearnerState, RuleSet, cover_rate, ns_learning
from .proposers import Proposer
from .world_model import BackendUnavailable, BasePredictor, MapExecuteResult, map_execute


class ActionProposer(Protocol):
    def propose(
        self,
        obs: Observation,
        feedback: list[str],
        suggestions: list[str],
        kg: KnowledgeGraph,
    ) -> Action: ...


def mpc_plan(
    obs: Observation,
    rules: RuleSet,
    wm: BasePredictor,
    proposer: ActionProposer,
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tables: WorldConfig,
    replan_limit: int = 3,
) -> tuple[tuple[Action, MapExecuteResult], ...]:
    """Propose/vet until a candidate passes the rules or the budget runs out.

    Returns every vetted candidate in order: the last one is executed, and
    step i has replan count i + 1.
    """
    if replan_limit < 1:
        raise ValueError("replan_limit must be >= 1")
    feedback: list[str] = []
    suggestions: list[str] = []
    steps: list[tuple[Action, MapExecuteResult]] = []
    asts = rules.rules
    while True:
        action = proposer.propose(obs, feedback, suggestions, kg)
        base = wm.predict(obs, action)
        vetted = map_execute(asts, obs, action, base, kg, sg, tables=tables)
        steps.append((action, vetted))
        if vetted.predicted.success or len(steps) >= replan_limit:
            return tuple(steps)
        feedback.append(vetted.predicted.feedback)
        suggestions.append(vetted.predicted.suggestion)


# Secondary goals pursued once the primary chain product is crafted, for
# achievement variety on full-budget runs.
_BONUS_GOALS = ("wood_sword", "stone_sword", "iron_sword", "sapling", "stone")


@dataclass(frozen=True)
class _ViewMap:
    """One observation's view window as bit masks, as the planner's movement
    reads it.

    `reach` (rx, ry) is the largest |x| and |y| of a seen cell, (0, 0) when
    nothing is seen.  Cell (x, y) is bit `(y + ry) * stride + x + rx`, with
    `stride = 2 * rx + 2`: rows run north to south, and each row ends in a
    spare column that no mask keeps, so that shifting a mask one bit east or
    west moves a row's edge cell into the spare column, not onto the next
    row.  A cell beyond the reach has no bit; no such cell is ever seen.
    """

    walkable: int  # cells seen to hold open ground only
    paths: int  # walkable plus the agent's own cell
    origin: int  # the agent's own cell
    reach: tuple[int, int]
    stride: int

    @staticmethod
    def of(obs: Observation) -> "_ViewMap":
        objects = obs.visible_objects
        xs, ys = {v.x for v in objects} or {0}, {v.y for v in objects} or {0}
        rx, ry = max(max(xs), -min(xs)), max(max(ys), -min(ys))
        stride = 2 * rx + 2
        centre = ry * stride + rx
        open_ = blocked = 0
        for vis in objects:
            if vis.type in WALKABLE:
                open_ |= 1 << vis.y * stride + vis.x + centre
            else:
                blocked |= 1 << vis.y * stride + vis.x + centre
        walkable = open_ & ~blocked
        return _ViewMap(walkable, walkable | 1 << centre, 1 << centre, (rx, ry), stride)

    def mask(self, cells: set[tuple[int, int]]) -> int:
        """The bits of `cells`, which must lie within the reach."""
        rx, ry = self.reach
        return sum(1 << (y + ry) * self.stride + x + rx for x, y in cells)

    def is_walkable(self, x: int, y: int) -> bool:
        rx, ry = self.reach
        return abs(x) <= rx and abs(y) <= ry and self.walkable & self.mask({(x, y)}) != 0

    def near(self, mask: int) -> int:
        """The path cells in the 3x3 block around any cell of `mask`."""
        row = mask | mask << 1 | mask >> 1
        return (row | row << self.stride | row >> self.stride) & self.paths

    def edge(self, direction: str) -> int:
        """The walkable cells in the window's outermost column or row toward
        `direction`."""
        rx, ry = self.reach
        row = (1 << 2 * rx + 1) - 1
        column = sum(1 << y * self.stride for y in range(2 * ry + 1))
        shift = {"north": 0, "south": 2 * ry * self.stride, "west": 0, "east": 2 * rx}[direction]
        return (row if direction in ("north", "south") else column) << shift & self.walkable


class ScriptedPlanner:
    """Deterministic goal-decomposition planner.

    Beliefs start from the config's default tables and are overlaid,
    product by product, with whatever the learned knowledge graph says.
    Vetoed proposals are retried along the suggestion (gather the named
    material, approach the named target, clear the named threat); when a
    suggestion is not actionable, or the same action keeps being diverted,
    the planner stands firm and lets the replan budget decide.
    """

    patience = 1  # diversions tolerated per action before standing firm

    def __init__(self, config: WorldConfig, target: str = "iron_pickaxe"):
        self.beliefs = config.base_tables()
        self.goals: tuple[str, ...] = (target,) + tuple(
            g for g in _BONUS_GOALS if g != target
        )
        self._diverted: dict[str, int] = {}
        self._done: set[str] = set()
        self._sweep_dirs = ("east", "south", "west", "north")
        self._sweep_idx = 0
        self._sweep_uses = 0
        self._pos = (0, 0)  # dead-reckoned displacement from episode start
        self._commit: dict[str, tuple[int, int, int]] = {}  # name -> (x, y, ttl)
        self._needs_approach: set[str] = set()  # block types that must be near
        self._surface_lesson = False  # placement needs an open cell ahead
        self._last_desired: Action | None = None
        self._hostiles = tuple(self.beliefs.hostiles())  # sorted: the first one near is attacked
        self._view: tuple[Observation, _ViewMap] | None = None  # last observation's map

    # -- protocol ----------------------------------------------------------
    def propose(
        self,
        obs: Observation,
        feedback: list[str],
        suggestions: list[str],
        kg: KnowledgeGraph,
    ) -> Action:
        if not feedback:
            action = self._decide(obs, kg)
            self._last_desired = action
            return action
        return self._handle_veto(obs, kg, feedback[-1], suggestions[-1])

    def observe_result(self, action: Action, outcome: Outcome, next_obs: Observation) -> None:
        key = self._key(action)
        if self._last_desired is not None and key == self._key(self._last_desired):
            self._diverted.pop(key, None)
        if not outcome.success and "within reach" in outcome.feedback:
            target = self._action_target(action)
            if target is not None:
                self._needs_approach.add(target)
        if not outcome.success and "ahead is blocked" in outcome.feedback:
            self._surface_lesson = True
        if action.name == "explore":
            match = re.match(r"explored (\d+) cells (\w+)", outcome.feedback)
            if match:
                dx, dy = DIR_DELTAS[match.group(2)]
                moved = int(match.group(1))
                self._pos = (self._pos[0] + dx * moved, self._pos[1] + dy * moved)
            if "blocked" in outcome.feedback:
                self._advance_sweep()
        if outcome.success:
            if action.name == "make":
                self._done.add(str(action.args["tool_name"]))
            elif action.name == "place":
                self._done.add(str(action.args["block_name"]))

    # -- veto handling -------------------------------------------------------
    def _handle_veto(
        self, obs: Observation, kg: KnowledgeGraph, feedback: str, suggestion: str
    ) -> Action:
        desired = self._last_desired
        assert desired is not None
        key = self._key(desired)
        if self._diverted.get(key, 0) >= self.patience:
            # Requirement vetoes on crafting get pushed through: the belief
            # graph backs the action, and executing it is the only way to
            # surface a wrong pessimistic prediction.  Everything else defers
            # to the world model and does something useful instead.
            if desired.name in ("make", "place"):
                return desired
            return self._sweep(obs)
        text = f"{feedback} {suggestion}"
        diversion = self._diversion_for(obs, kg, desired, text)
        if diversion is None:
            if desired.name in ("make", "place"):
                return desired
            self._diverted[key] = self._diverted.get(key, 0) + 1
            return self._sweep(obs)
        self._diverted[key] = self._diverted.get(key, 0) + 1
        return diversion

    def _diversion_for(
        self, obs: Observation, kg: KnowledgeGraph, desired: Action, text: str
    ) -> Action | None:
        missing, platforms = parse_shortfall(text)
        for material, count in missing:
            action = self._gather(material, count, obs, kg, set())
            if action is not None:
                return action
        for platform in platforms:
            action = self._progress_toward(platform, obs, kg, set())
            if action is not None:
                return action
        if "within reach" in text or "stand next to it" in text or "Explore to find" in text:
            target = self._action_target(desired)
            if target is not None:
                self._needs_approach.add(target)
                approach = self._approach(obs, target)
                if approach is not None:
                    return approach
            return self._sweep(obs)
        if "ahead is blocked" in text or "must be open" in text:
            self._surface_lesson = True
            return self._turn_to_open(obs)
        craft_hint = re.search(r"Craft (\w+)", text)
        if craft_hint is not None:
            action = self._progress_toward(craft_hint.group(1), obs, kg, set())
            if action is not None:
                return action
        if "threat" in text or "dangerous" in text:
            attack = self._attack_near_creature(obs)
            if attack is not None:
                return attack
        return None

    @staticmethod
    def _action_target(action: Action) -> str | None:
        for key in ("block_name", "creature"):
            if key in action.args:
                return str(action.args[key])
        return None

    @staticmethod
    def _key(action: Action) -> str:
        return f"{action.name}:{sorted(action.args.items())}"

    # -- fresh decisions -------------------------------------------------------
    def _decide(self, obs: Observation, kg: KnowledgeGraph) -> Action:
        upkeep = self._upkeep(obs)
        if upkeep is not None:
            return upkeep
        for goal in self.goals:
            if self._goal_done(goal, obs):
                continue
            action = self._progress_toward(goal, obs, kg, set())
            if action is not None:
                return action
        return self._sweep(obs)

    def _goal_done(self, goal: str, obs: Observation) -> bool:
        if goal in self._done:
            return True
        if goal in MAKEABLE:
            return obs.inventory_count(goal) > 0
        return False

    def _upkeep(self, obs: Observation) -> Action | None:
        threat = [name for name in self._hostiles if name in obs.near_objects]
        if threat:
            return Action("attack", {"creature": threat[0], "amount": 1})
        # A modified world may have hostiles the default beliefs miss; if we
        # are hurt and something stands next to us, clear it.
        if obs.status.health <= 6:
            attack = self._attack_near_creature(obs)
            if attack is not None:
                return attack
        if obs.status.drink <= 3:
            if "water" in obs.near_objects:
                return Action("mine", {"block_name": "water", "amount": 1})
            approach = self._approach(obs, "water")
            if approach is not None:
                return approach
            if obs.status.drink <= 2:
                return self._sweep(obs)
        if obs.status.food <= 3:
            action = self._find_food(obs)
            if action is not None:
                return action
        if obs.status.energy <= 3:
            return Action("sleep", {})
        return None

    def _find_food(self, obs: Observation) -> Action | None:
        for snack in ("cow", "plant"):
            if snack in obs.near_objects:
                return Action("attack", {"creature": snack, "amount": 1})
        if "cow" not in self._needs_approach and any(
            v.type == "cow" for v in obs.visible_objects
        ):
            return Action("attack", {"creature": "cow", "amount": 1})
        # Renewable fallback: grow food from saplings rather than chase cows.
        if obs.inventory_count("sapling") > 0:
            return self._place_or_turn("sapling", obs)
        if "grass" in obs.near_objects:
            return Action("mine", {"block_name": "grass", "amount": 1})
        approach = self._approach(obs, "cow")
        if approach is not None:
            return approach
        if obs.status.food <= 2:
            return self._sweep(obs)
        return None

    def _attack_near_creature(self, obs: Observation) -> Action | None:
        candidates = sorted(set(self.beliefs.survival) & obs.near_objects)
        if candidates:
            return Action("attack", {"creature": candidates[0], "amount": 1})
        return None

    # -- goal decomposition -------------------------------------------------------
    def _belief_requirements(
        self, product: str, kg: KnowledgeGraph
    ) -> tuple[dict[str, int], str | None]:
        if kg.has_edges_for(product):
            return kg.requirements(product)
        recipe = self.beliefs.recipes.get(product)
        if recipe is None:
            return {}, None
        return recipe.needs(), recipe.platform

    def _belief_sources(self, material: str, kg: KnowledgeGraph) -> list[str]:
        learned = kg.sources(material)
        if learned:
            return learned
        return sorted(
            block for block, rule in self.beliefs.mining.items() if rule.drop == material
        )

    def _progress_toward(
        self, product: str, obs: Observation, kg: KnowledgeGraph, visited: set[str]
    ) -> Action | None:
        if product in visited:
            return None
        visited.add(product)
        needs, platform = self._belief_requirements(product, kg)
        if not needs and platform is None and product not in PLACEABLE and product not in MAKEABLE:
            return None
        for material in sorted(needs):
            shortfall = needs[material] - obs.inventory_count(material)
            if shortfall > 0:
                return self._gather(material, shortfall, obs, kg, visited)
        # Materials in hand: get next to the platform (or build one), then craft.
        if platform is not None and platform not in obs.near_objects:
            approach = self._approach(obs, platform)
            if approach is not None:
                return approach
            return self._progress_toward(platform, obs, kg, visited)
        if product in PLACEABLE:
            return self._place_or_turn(product, obs, platform)
        if product in MAKEABLE or kg.has_edges_for(product):
            return Action("make", {"tool_name": product})
        return None

    def _gather(
        self,
        material: str,
        needed: int,
        obs: Observation,
        kg: KnowledgeGraph,
        visited: set[str],
    ) -> Action | None:
        for source in self._belief_sources(material, kg):
            rule = self.beliefs.mining.get(source)
            tool = rule.tool if rule is not None else None
            if not has_tool_at_least(obs.inventory, tool, self.beliefs.tool_tiers):
                sub = self._progress_toward(tool, obs, kg, visited)
                if sub is not None:
                    return sub
                continue
            if source in obs.near_objects:
                return Action(
                    "mine", {"block_name": source, "amount": max(1, min(needed, 3))}
                )
            if any(v.type == source for v in obs.visible_objects):
                # Propose the mine optimistically unless this block type has
                # already taught us it must be within reach; the world model's
                # veto (or the failure itself) supplies that lesson.
                if source not in self._needs_approach:
                    return Action(
                        "mine", {"block_name": source, "amount": max(1, min(needed, 3))}
                    )
                approach = self._approach(obs, source)
                if approach is not None:
                    return approach
        if material in PLACEABLE or material in MAKEABLE:
            sub = self._progress_toward(material, obs, kg, visited)
            if sub is not None:
                return sub
        return None

    # -- movement helpers -------------------------------------------------------
    def _approach(self, obs: Observation, name: str) -> Action | None:
        """Path toward a visible instance via BFS over the walkable cells of
        the view window; None when nothing is reachable.

        The chosen target cell is remembered in dead-reckoned coordinates so
        consecutive decisions keep walking to the same instance instead of
        thrashing between equidistant ones as the window shifts.
        """
        targets = {(v.x, v.y) for v in obs.visible_objects if v.type == name}
        if not targets or any(max(abs(x), abs(y)) <= 1 for x, y in targets):
            self._commit.pop(name, None)
            return None
        view = self._view_map(obs)

        committed: tuple[int, int] | None = None
        if name in self._commit:
            ax, ay, ttl = self._commit[name]
            rel = (ax - self._pos[0], ay - self._pos[1])
            if ttl > 0 and rel in targets:
                committed = rel
                self._commit[name] = (ax, ay, ttl - 1)
            else:
                del self._commit[name]

        step = None
        if committed is not None:
            step = self._bfs_step(view, view.near(view.mask({committed})))
            if step is None:
                del self._commit[name]
        if step is None:
            step = self._bfs_step(view, view.near(view.mask(targets)))
            if step is None:
                return None
            direction, steps, goal = step
            served = min(
                (t for t in targets if max(abs(goal[0] - t[0]), abs(goal[1] - t[1])) <= 1),
                key=lambda t: (max(abs(t[0]), abs(t[1])), t[1], t[0]),
            )
            self._commit[name] = (self._pos[0] + served[0], self._pos[1] + served[1], 10)
        else:
            direction, steps, _ = step
        return Action("explore", {"direction": direction, "steps": steps})

    @staticmethod
    def _bfs_step(view: _ViewMap, goals: int) -> tuple[str, int, tuple[int, int]] | None:
        """First move (direction, straight-run length) of a shortest path
        over `view.paths` from the origin to a cell of the `goals` mask, and
        the goal cell it ends at; None when no goal is reachable or the
        origin is one.

        One frontier mask is grown per distance until it meets a goal.  A
        backward pass then keeps, in each layer, the cells one move from a
        kept cell of the next, and a forward walk takes at each step the
        first move in DIR_DELTAS order (north, south, east, west) that stays
        on the kept cells.  Of all shortest paths to the nearest goals, this
        picks the one whose move sequence comes first in that order: the
        path and goal that a first-in-first-out BFS expanding neighbours in
        DIR_DELTAS order finds.
        """
        paths, stride, cur = view.paths, view.stride, view.origin
        if not goals or goals & cur:
            return None
        layers = []
        unseen, frontier = paths & ~cur, cur
        while not frontier & goals:
            frontier = (frontier >> stride | frontier << stride | frontier << 1 | frontier >> 1)
            frontier &= unseen
            if not frontier:
                return None
            unseen &= ~frontier
            layers.append(frontier)
        kept = layers[-1] = frontier & goals
        for k in range(len(layers) - 2, -1, -1):
            kept = (kept >> stride | kept << stride | kept << 1 | kept >> 1) & layers[k]
            layers[k] = kept
        moves = []
        for layer in layers:  # DIR_DELTAS order
            if cur >> stride & layer:
                cur, move = cur >> stride, "north"
            elif cur << stride & layer:
                cur, move = cur << stride, "south"
            elif cur << 1 & layer:
                cur, move = cur << 1, "east"
            else:
                cur, move = cur >> 1, "west"
            moves.append(move)
        steps = next((i for i, move in enumerate(moves) if move != moves[0]), len(moves))
        row, col = divmod(cur.bit_length() - 1, stride)
        return moves[0], steps, (col - view.reach[0], row - view.reach[1])

    def _view_map(self, obs: Observation) -> _ViewMap:
        if self._view is None or self._view[0] is not obs:
            self._view = (obs, _ViewMap.of(obs))
        return self._view[1]

    def _turn_to_open(self, obs: Observation, keep_near: str | None = None) -> Action:
        """Move one cell so the agent ends up facing an open cell, staying
        adjacent to `keep_near` (a crafting platform) when one is named."""
        view = self._view_map(obs)
        anchors = [
            (vis.x, vis.y)
            for vis in obs.visible_objects
            if vis.type == keep_near and max(abs(vis.x), abs(vis.y)) <= 1
        ] if keep_near else []

        def keeps_anchor(dx: int, dy: int) -> bool:
            if not anchors:
                return True
            return any(max(abs(px - dx), abs(py - dy)) <= 1 for px, py in anchors)

        ranked: list[tuple[int, str]] = []
        for direction, (dx, dy) in DIR_DELTAS.items():
            if not view.is_walkable(dx, dy):
                continue
            score = 0
            if view.is_walkable(2 * dx, 2 * dy):
                score += 2
            if keeps_anchor(dx, dy):
                score += 4
            ranked.append((score, direction))
        if ranked:
            ranked.sort(key=lambda r: -r[0])
            return Action("explore", {"direction": ranked[0][1], "steps": 1})
        return self._sweep(obs)

    def _place_or_turn(
        self, product: str, obs: Observation, platform: str | None = None
    ) -> Action:
        if obs.in_front in WALKABLE or not self._surface_lesson:
            return Action("place", {"block_name": product})
        return self._turn_to_open(obs, keep_near=platform)

    def _sweep(self, obs: Observation) -> Action:
        """Cover ground: path to a walkable cell on the window edge, preferring
        the current sweep direction and rotating when a direction is spent."""
        self._sweep_uses += 1
        if self._sweep_uses % 8 == 0:
            self._advance_sweep()
        view = self._view_map(obs)
        if not view.walkable:
            return Action("explore", {"direction": self._sweep_dirs[self._sweep_idx], "steps": 1})
        for turn in range(len(self._sweep_dirs)):
            direction = self._sweep_dirs[(self._sweep_idx + turn) % len(self._sweep_dirs)]
            step = self._bfs_step(view, view.edge(direction))
            if step is not None:
                if turn:
                    self._sweep_idx = (self._sweep_idx + turn) % len(self._sweep_dirs)
                move_dir, steps, _ = step
                return Action("explore", {"direction": move_dir, "steps": steps})
        return Action("explore", {"direction": self._sweep_dirs[self._sweep_idx], "steps": 1})

    def _advance_sweep(self) -> None:
        self._sweep_idx = (self._sweep_idx + 1) % len(self._sweep_dirs)


class ExternalBackendPlanner:
    """Action proposer backed by a text-completion endpoint."""

    _CALL_RE = re.compile(r"(\w+)\((.*)\)\s*$")

    def __init__(self, client, prompt_template: str):
        self.client = client
        self.prompt_template = prompt_template

    def propose(
        self,
        obs: Observation,
        feedback: list[str],
        suggestions: list[str],
        kg: KnowledgeGraph,
    ) -> Action:
        prompt = self.prompt_template.format(
            observation=json.dumps(obs.to_json(), indent=1),
            feedback=json.dumps(feedback),
            suggestions=json.dumps(suggestions),
        )
        reply = self.client.complete(prompt)
        action = self._parse_call(reply)
        if action is None:
            raise BackendUnavailable(f"unparseable action reply: {reply[:80]!r}")
        return action

    @classmethod
    def _parse_call(cls, reply: str) -> Action | None:
        lines = reply.strip().splitlines()
        match = cls._CALL_RE.search(lines[-1]) if lines else None
        if not match:
            return None
        name, arg_text = match.group(1), match.group(2).strip()
        args: dict[str, object] = {}
        if arg_text:
            for part in arg_text.split(","):
                if "=" not in part:
                    return None
                key, value = part.split("=", 1)
                value = value.strip().strip("\"'")
                args[key.strip()] = int(value) if value.isdecimal() else value
        try:
            return Action(name, args)
        except ValueError:
            return None


def score(success_rates: dict[str, float]) -> float:
    """Log-geometric mean of achievement success rates, in percent:
    exp(mean(ln(1 + 100 * rate))) - 1; 0.0 for no rates."""
    if not success_rates:
        return 0.0
    for name, rate in success_rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate for {name} outside [0, 1]: {rate}")
    mean_log = sum(math.log1p(100.0 * rate) for rate in success_rates.values())
    mean_log /= len(success_rates)
    return math.exp(mean_log) - 1.0


@dataclass
class EpisodeComponents:
    predictor: BasePredictor
    planner: ActionProposer
    rule_proposer: Proposer | None = None  # None disables learning
    learner_config: LearnerConfig = field(default_factory=LearnerConfig)
    cadence: str = "episode"  # "episode" | "step"
    replan_limit: int = 3


@dataclass
class EpisodeResult:
    real: Trajectory
    predicted: Trajectory
    metrics: dict


def run_episode(
    config: WorldConfig,
    state: LearnerState,
    components: EpisodeComponents,
    *,
    target: str | None = TARGET_CHAIN_ACHIEVEMENT,
) -> EpisodeResult:
    """One plan/act episode with optional learning refresh.

    Per step: MPC plans an action, the environment executes it, both
    trajectories grow.  Learning runs per step or once at episode end,
    per the configured cadence.  A backend seat's failure propagates as
    BackendUnavailable; partial learning progress stays in the state.
    """
    if components.cadence not in ("episode", "step"):
        raise ValueError(f"unknown cadence {components.cadence!r}; 'episode' or 'step'")
    world = MarsWorld(config)
    tables = config.base_tables()  # the agent's belief: map_execute's effect tables
    if not state.sg.status:
        state.sg = SceneGraph.initial(world.locations())

    obs = world.observe()
    real: list[Transition] = []
    predicted: list[Transition] = []
    total_reward = 0.0
    total_proposals = 0
    done = False

    def learn(pred_slice: list[Transition], real_slice: list[Transition]) -> None:
        pred_traj = Trajectory(tuple(pred_slice), config.seed, config.config_id)
        real_traj = Trajectory(tuple(real_slice), config.seed, config.config_id)
        ns_learning(
            pred_traj, real_traj, state, components.rule_proposer,
            components.learner_config, tool_tiers=world.tables.tool_tiers,
        )

    while not done and target not in world.unlocks:
        steps = mpc_plan(
            obs, state.rules, components.predictor, components.planner,
            state.kg, state.sg,
            tables=tables,
            replan_limit=components.replan_limit,
        )
        action, vetted = steps[-1]
        next_obs, reward, done, outcome = world.step(action)
        real.append(Transition(obs, action, outcome, next_obs))
        predicted.append(Transition(obs, action, vetted.predicted, vetted.next_obs))
        total_proposals += len(steps)
        total_reward += reward
        observe = getattr(components.planner, "observe_result", None)
        if observe is not None:
            observe(action, outcome, next_obs)
        if components.cadence == "step" and components.rule_proposer is not None:
            learn(predicted[-1:], real[-1:])
        obs = next_obs

    if components.cadence == "episode" and components.rule_proposer is not None and real:
        learn(predicted, real)

    real_traj = Trajectory(tuple(real), config.seed, config.config_id)
    pred_traj = Trajectory(tuple(predicted), config.seed, config.config_id)
    rate = cover_rate(
        state.rules, state.mispredictions, state.kg, state.sg,
        tool_tiers=world.tables.tool_tiers,
    )
    rates = {name: 1.0 if name in world.unlocks else 0.0 for name in ACHIEVEMENTS}
    metrics = {
        "reward": round(total_reward, 6),
        "score": round(score(rates), 6),
        "cover_rate": round(rate.value, 6),
        "cover_rate_defined": rate.defined,
        "achievements": dict(world.unlocks),
        "steps": world.step_count,
        "died": world.dead,
        "task_complete": target in world.unlocks,
        "proposals": total_proposals,
    }
    return EpisodeResult(real_traj, pred_traj, metrics)
