"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runtime budgets are asserted alongside the substance so regressions in
either direction surface here.
"""
import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

from worldalign.agent import run_episode, EpisodeComponents, ScriptedPlanner
from worldalign.core import Action, Outcome
from worldalign.dsl import evaluate, parse, parse_many, pretty_print
from worldalign.env import ACHIEVEMENTS, CONFIG_IDS, make_config
from worldalign.env.oracle import kg_edges_for_config, rules_for_config
from worldalign.experiments import (
    coverage_curve,
    run_ablation,
    run_misalignment,
)
from worldalign.graphs import KnowledgeGraph, SceneGraph, kg_merge, sg_update
from worldalign.learner import (
    CoverageMatrix,
    LearnerState,
    RuleSet,
    prune_trace,
)
from worldalign.proposers import OracleProposer
from worldalign.world_model import NaivePrior, map_execute

from conftest import make_obs

CORPUS = Path(__file__).parent / "data" / "mars_rules.rules"
E_BOUND = 1 - 1 / math.e


def report(number: int, label: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'} - {label}")
    assert passed, f"criterion {number}: {label}"


def matrix_from_sets(cover_sets, n):
    return CoverageMatrix(
        rule_ids=tuple(f"rule_{i + 1}" for i in range(len(cover_sets))),
        transition_ids=tuple(f"d{j + 1}" for j in range(n)),
        a=tuple(tuple(j in s for j in range(n)) for s in cover_sets),
    )


def brute_force_optimum(cover_sets, limit):
    best = 0
    for size in range(1, min(limit, len(cover_sets)) + 1):
        for combo in itertools.combinations(range(len(cover_sets)), size):
            best = max(best, len(set().union(*(cover_sets[i] for i in combo))))
    return best


def test_criterion_1_greedy_vs_optimal():
    started = time.monotonic()
    rng = random.Random(20240)
    checked = 0
    bound_ok = True
    disjoint_ok = True
    while checked < 200:
        n_rules = rng.randint(1, 10)
        n_elements = rng.randint(1, 16)
        limit = rng.randint(1, 6)
        cover_sets = [
            {j for j in range(n_elements) if rng.random() < 0.3} for _ in range(n_rules)
        ]
        greedy = sum(s.gain for s in prune_trace(matrix_from_sets(cover_sets, n_elements), limit))
        optimum = brute_force_optimum(cover_sets, limit)
        bound_ok &= greedy >= E_BOUND * optimum - 1e-9

        # pairwise-disjoint instance of the same shape: greedy must be exact
        sizes = [rng.randint(0, 3) for _ in range(n_rules)]
        disjoint, cursor = [], 0
        for size in sizes:
            disjoint.append(set(range(cursor, cursor + size)))
            cursor += size
        total = max(cursor, 1)
        greedy_d = sum(
            s.gain for s in prune_trace(matrix_from_sets(disjoint, total), limit)
        )
        disjoint_ok &= greedy_d == brute_force_optimum(disjoint, limit)
        checked += 1
    elapsed = time.monotonic() - started
    report(
        1,
        f"greedy within (1-1/e) of optimum on {checked} instances, "
        f"exact on disjoint covers, in {elapsed:.1f}s",
        bound_ok and disjoint_ok and elapsed < 10.0,
    )


def test_criterion_2_selection_trace_fidelity():
    matrix = matrix_from_sets([{0, 1}, {1, 2}, {2}], 3)
    trace = prune_trace(matrix, 2)
    got = [(s.rule_id, s.gain) for s in trace]
    report(2, f"selection trace {got}", got == [("rule_1", 2), ("rule_2", 1)])


def test_criterion_3_cover_rate_curve_shape():
    started = time.monotonic()
    config = make_config("default", seed=1)
    curve = coverage_curve(config, OracleProposer(config), iterations=5)
    elapsed = time.monotonic() - started
    series = curve.series
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
    report(
        3,
        f"cover-rate series {[round(v, 3) for v in series]} over "
        f"{curve.misprediction_count} mispredictions in {elapsed:.1f}s",
        curve.defined
        and series[0] == 0.0
        and nondecreasing
        and series[-1] >= 0.90
        and elapsed < 120.0,
    )


def test_criterion_4_pruning_ablation_ordering():
    started = time.monotonic()
    table = run_ablation(
        make_config("all_three"), limits=[6, 5, 3, 1], seeds=range(1, 10), iterations=3
    )
    elapsed = time.monotonic() - started
    rewards = [table[arm]["reward_mean"] for arm in ("l=6", "l=5", "l=3", "l=1")]
    no_pruning = table["no_pruning"]["reward_mean"]
    nonincreasing = all(a >= b - 1e-9 for a, b in zip(rewards, rewards[1:]))
    strictly_worst = no_pruning < min(rewards)
    report(
        4,
        f"rewards l=6..1 {[round(r, 2) for r in rewards]} vs no-pruning "
        f"{no_pruning:.2f} in {elapsed:.0f}s",
        nonincreasing and strictly_worst and elapsed < 600.0,
    )


def test_criterion_5_misalignment_correction_end_to_end():
    started = time.monotonic()
    outcome = run_misalignment(make_config("taskdep"), seeds=range(1, 10), iterations=5)
    elapsed = time.monotonic() - started
    report(
        5,
        f"craft chain without rules {outcome.no_rules_successes}/9, with learned "
        f"rules {outcome.with_rules_successes}/9 in {elapsed:.0f}s",
        outcome.no_rules_successes == 0
        and outcome.with_rules_successes >= 8
        and elapsed < 900.0,
    )


def test_criterion_6_rule_override_soundness():
    config = make_config("default")
    tables = config.base_tables()
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
    rules = {r.id: r for r in map(parse, rules_for_config(config))}

    # Constructed cases where exactly one oracle rule activates and its
    # verdict contradicts the base prediction.
    cases = []
    far_mine = make_obs(visible=(("tree", 3, 0),))
    cases.append((rules["gt_mine_target_near"], far_mine,
                  Action("mine", {"block_name": "tree", "amount": 1}), Outcome(True, "sure"), False))
    far_attack = make_obs(visible=(("zombie", 3, 0),))
    cases.append((rules["gt_attack_target_near"], far_attack,
                  Action("attack", {"creature": "zombie", "amount": 1}), Outcome(True, "sure"), False))
    ambush = make_obs(near=("zombie",))
    cases.append((rules["gt_sleep_safe"], ambush, Action("sleep", {}), Outcome(True, "sure"), False))
    blocked = make_obs(in_front="water", near=("table",), inventory={"wood": 1})
    cases.append((rules["gt_place_open_cell"], blocked,
                  Action("place", {"block_name": "sapling"}), Outcome(True, "sure"), False))
    no_tool = make_obs(near=("iron",))
    cases.append((rules["gt_mine_tool_iron"], no_tool,
                  Action("mine", {"block_name": "iron", "amount": 1}), Outcome(True, "sure"), False))
    ready = make_obs(near=("table",), inventory={"wood": 1})
    cases.append((rules["gt_make_model"], ready,
                  Action("make", {"tool_name": "wood_pickaxe"}), Outcome(False, "doubt"), True))
    ready_place = make_obs(in_front="grass", inventory={"stone": 1})
    cases.append((rules["gt_place_model"], ready_place,
                  Action("place", {"block_name": "stone"}), Outcome(False, "doubt"), True))
    missing = make_obs(near=("table",))
    cases.append((rules["gt_make_model"], missing,
                  Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "sure"), False))
    for block in ("plant", "sand", "lava"):
        obs = make_obs(near=(block,))
        cases.append((rules[f"gt_mine_never_{block}"], obs,
                      Action("mine", {"block_name": block, "amount": 1}), Outcome(True, "sure"), False))

    total, agreed = 0, 0
    for rule, obs, action, base, expected in cases:
        verdict = evaluate(rule, obs, action, kg, SceneGraph(), tool_tiers=tables.tool_tiers)
        assert verdict.activated, rule.id
        result = map_execute([rule], obs, action, base, kg, SceneGraph(), tables=tables)
        total += 1
        agreed += (result.predicted.success == verdict.flag == expected
                   and result.predicted.success != base.success)
    report(6, f"{agreed}/{total} constructed contradictions resolved to the rule's verdict",
           agreed == total)


def test_criterion_7_rule_corpus_fidelity():
    rules = {r.id: r for r in parse_many(CORPUS.read_text())}
    assert len(rules) == 9
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(make_config("default")))
    sg = SceneGraph()
    make_wp = Action("make", {"tool_name": "wood_pickaxe"})
    checks = []

    def flag_of(rule_id, obs, action):
        return evaluate(rules[rule_id], obs, action, kg, sg).flag

    # make without a nearby table fails; with one it passes
    checks.append(not flag_of("corpus_make_needs_table", make_obs(near=("grass",)), make_wp))
    checks.append(flag_of("corpus_make_needs_table", make_obs(near=("table",)), make_wp))
    # make without materials fails, with them passes
    checks.append(not flag_of("corpus_make_needs_materials",
                              make_obs(near=("table",)), make_wp))
    checks.append(flag_of("corpus_make_needs_materials",
                          make_obs(near=("table",), inventory={"wood": 1}), make_wp))
    # combined rule needs both
    checks.append(not flag_of("corpus_make_combined",
                              make_obs(near=("table",)), make_wp))
    checks.append(not flag_of("corpus_make_combined",
                              make_obs(near=("grass",), inventory={"wood": 1}), make_wp))
    checks.append(flag_of("corpus_make_combined",
                          make_obs(near=("table",), inventory={"wood": 1}), make_wp))
    # sapling in front of a table fails
    place_sapling = Action("place", {"block_name": "sapling"})
    checks.append(not flag_of("corpus_place_sapling_table",
                              make_obs(in_front="table"), place_sapling))
    checks.append(flag_of("corpus_place_sapling_table",
                          make_obs(in_front="grass"), place_sapling))
    # placing needs the item in inventory
    checks.append(not flag_of("corpus_place_needs_item", make_obs(), place_sapling))
    checks.append(flag_of("corpus_place_needs_item",
                          make_obs(inventory={"sapling": 1}), place_sapling))
    # do not place a second table
    place_table = Action("place", {"block_name": "table"})
    checks.append(not flag_of("corpus_place_existing_table",
                              make_obs(visible=(("table", 3, 2),)), place_table))
    checks.append(flag_of("corpus_place_existing_table", make_obs(), place_table))
    # mining iron needs stone_pickaxe or better
    mine_iron = Action("mine", {"block_name": "iron", "amount": 1})
    checks.append(not flag_of("corpus_mine_iron_tool",
                              make_obs(inventory={"wood_pickaxe": 1}), mine_iron))
    checks.append(flag_of("corpus_mine_iron_tool",
                          make_obs(inventory={"iron_pickaxe": 1}), mine_iron))
    # mining stone needs wood_pickaxe or better
    mine_stone = Action("mine", {"block_name": "stone", "amount": 1})
    checks.append(not flag_of("corpus_mine_stone_tool", make_obs(), mine_stone))
    checks.append(flag_of("corpus_mine_stone_tool",
                          make_obs(inventory={"stone_pickaxe": 1}), mine_stone))
    # mining plant always fails, and never affects other blocks
    checks.append(not flag_of("corpus_mine_plant",
                              make_obs(), Action("mine", {"block_name": "plant", "amount": 1})))
    checks.append(flag_of("corpus_mine_plant",
                          make_obs(), Action("mine", {"block_name": "tree", "amount": 1})))

    round_trips = all(parse(pretty_print(r)) == r for r in rules.values())
    report(7, f"{sum(checks)}/{len(checks)} corpus behaviors, round-trips {round_trips}",
           all(checks) and round_trips)


def _derive_achievements(trajectory):
    """Independent re-derivation of unlocks from the transitions alone."""
    unlocked: dict[str, int] = {}

    def unlock(name, step):
        if name in ACHIEVEMENTS and name not in unlocked:
            unlocked[name] = step

    for step, t in enumerate(trajectory.transitions):
        action, outcome = t.action, t.outcome
        if outcome.success:
            if action.name == "make":
                unlock(f"make_{action.args['tool_name']}", step)
            elif action.name == "place":
                block = action.args["block_name"]
                unlock("place_plant" if block == "sapling" else f"place_{block}", step)
            elif action.name == "sleep":
                unlock("wake_up", step)
            elif action.name == "attack":
                creature = action.args["creature"]
                unlock("eat_plant" if creature == "plant" else f"kill_{creature}", step)
            elif action.name == "mine" and action.args["block_name"] == "water":
                unlock("collect_drink", step)
        for item, count in t.next_obs.inventory.items():
            if count > t.obs.inventory.get(item, 0):
                unlock(f"collect_{item}", step)
    return unlocked


def test_criterion_8_determinism_and_invariants():
    started = time.monotonic()
    rng = random.Random(808)
    violations = []
    for episode_index in range(100):
        config_id = CONFIG_IDS[rng.randrange(len(CONFIG_IDS))]
        seed = rng.randrange(10_000)
        config = replace(make_config(config_id, seed=seed), max_steps=60)
        components = EpisodeComponents(
            predictor=NaivePrior(config),
            planner=ScriptedPlanner(config),
            rule_proposer=None,
        )
        state = LearnerState()
        result = run_episode(config, state, components, target=None)

        try:
            result.real.validate_chain()
        except ValueError as exc:
            violations.append(f"chain {config_id}/{seed}: {exc}")

        sg = SceneGraph.initial(sorted(config.terrain_table))
        for t in result.real.transitions:
            updated = sg_update(sg, t.obs)
            if not (updated.vertices >= sg.vertices and set(updated.edges) >= set(sg.edges)):
                violations.append(f"sg monotonicity {config_id}/{seed}")
                break
            sg = updated

        edges = kg_edges_for_config(config)
        once = kg_merge(KnowledgeGraph.empty(), edges)
        if kg_merge(once, edges) != once:
            violations.append(f"kg idempotence {config_id}/{seed}")

        derived = _derive_achievements(result.real)
        h_start = result.real.transitions[0].obs.status.health
        h_end = result.real.transitions[-1].next_obs.status.health
        expected_reward = len(derived) + 0.1 * (h_end - h_start)
        if abs(expected_reward - result.metrics["reward"]) > 1e-6:
            violations.append(
                f"reward decomposition {config_id}/{seed}: "
                f"{result.metrics['reward']} != {expected_reward}"
            )

        if episode_index % 10 == 0:
            rerun_state = LearnerState()
            rerun = run_episode(
                config, rerun_state,
                EpisodeComponents(predictor=NaivePrior(config),
                                  planner=ScriptedPlanner(config), rule_proposer=None),
                target=None,
            )
            if rerun.real.to_ndjson() != result.real.to_ndjson():
                violations.append(f"rerun bytes {config_id}/{seed}")

    elapsed = time.monotonic() - started
    report(
        8,
        f"100 fuzzed episodes, {len(violations)} violations in {elapsed:.0f}s"
        + (f": {violations[:3]}" if violations else ""),
        not violations and elapsed < 300.0,
    )
