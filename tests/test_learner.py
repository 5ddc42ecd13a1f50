import functools
import itertools
import pickle
import random
from collections import Counter
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from worldalign import learner
from worldalign.core import Action, Outcome, Trajectory, Transition, classify_transitions
from worldalign.dsl import ParseError, Polarity, RuleTypeError, evaluate, parse, pretty_print
from worldalign.env import CONFIG_IDS, make_config
from worldalign.env.oracle import kg_edges_for_config, rules_for_config
from worldalign.experiments import run_probe
from worldalign.graphs import KgEdge, KnowledgeGraph, SceneGraph, kg_merge, sg_update
from worldalign.learner import (
    WINDOW,
    CoverageMatrix,
    InductionResult,
    LearnerConfig,
    LearnerState,
    RuleEntry,
    RuleSet,
    SelectionStep,
    cover_rate,
    coverage,
    drop_invalid,
    induce_rules,
    ns_learning,
    prune_trace,
)
from worldalign.proposers import NoisyOracleProposer, OracleProposer
from worldalign.world_model import NaivePrior

from conftest import make_obs

TIERS = ("wood_pickaxe", "stone_pickaxe", "iron_pickaxe")


def matrix_from_sets(cover_sets: list[set[int]], n: int) -> CoverageMatrix:
    return CoverageMatrix(
        rule_ids=tuple(f"rule_{i + 1}" for i in range(len(cover_sets))),
        transition_ids=tuple(f"d{j + 1}" for j in range(n)),
        a=tuple(tuple(j in s for j in range(n)) for s in cover_sets),
    )


def brute_force_best_coverage(cover_sets: list[set[int]], limit: int) -> int:
    """Exhaustive subset search: the independent optimum oracle."""
    best = 0
    indices = range(len(cover_sets))
    for size in range(1, min(limit, len(cover_sets)) + 1):
        for combo in itertools.combinations(indices, size):
            covered = set().union(*(cover_sets[i] for i in combo))
            best = max(best, len(covered))
    return best


def greedy_covered(matrix: CoverageMatrix, limit: int) -> int:
    return sum(step.gain for step in prune_trace(matrix, limit))


# -- pruning -------------------------------------------------------------------

def test_prune_empty_incorrect_set():
    assert prune_trace(matrix_from_sets([set(), set()], 0), 3) == []


def test_prune_hand_built_instance_trace():
    # rules covering {d1,d2}, {d2,d3}, {d3}; limit 2.
    matrix = matrix_from_sets([{0, 1}, {1, 2}, {2}], 3)
    trace = prune_trace(matrix, 2)
    assert trace == [SelectionStep("rule_1", 2), SelectionStep("rule_2", 1)]
    # brute force over all <=2-subsets confirms greedy is optimal here
    assert greedy_covered(matrix, 2) == brute_force_best_coverage([{0, 1}, {1, 2}, {2}], 2)


def test_prune_tie_breaks_to_lowest_rule_index():
    matrix = matrix_from_sets([{0}, {1}], 2)
    assert prune_trace(matrix, 1) == [SelectionStep("rule_1", 1)]


def test_prune_stops_at_zero_gain():
    matrix = matrix_from_sets([{0, 1}, {0}, {1}], 2)
    assert prune_trace(matrix, 3) == [SelectionStep("rule_1", 2)]


def test_prune_respects_limit():
    matrix = matrix_from_sets([{0}, {1}, {2}], 3)
    assert prune_trace(matrix, 1) == [SelectionStep("rule_1", 1)]
    with pytest.raises(ValueError):
        prune_trace(matrix, 0)


def test_adversarial_instance_meets_approximation_bound():
    # Classic construction where greedy is suboptimal: a big middle set
    # splits two halves that an optimal pair covers exactly.
    sets = [{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}]
    matrix = matrix_from_sets(sets, 6)
    got = greedy_covered(matrix, 2)
    opt = brute_force_best_coverage(sets, 2)
    assert got < opt  # greedy picks the middle set first
    assert got >= (1 - 1 / 2.718281828459045) * opt


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.sets(st.integers(0, 11), max_size=12), min_size=1, max_size=m
            ),
            st.integers(1, 6),
        )
    )
)
def test_greedy_vs_brute_force_property(case):
    cover_sets, limit = case
    n = 12
    matrix = matrix_from_sets(cover_sets, n)
    got = greedy_covered(matrix, limit)
    opt = brute_force_best_coverage(cover_sets, limit)
    assert got >= (1 - 1 / 2.718281828459045) * opt - 1e-9


def test_redundant_rule_contributes_zero_gain():
    matrix = matrix_from_sets([{0, 1, 2}, {1, 2}], 3)
    assert prune_trace(matrix, 2) == [SelectionStep("rule_1", 3)]


# -- coverage -------------------------------------------------------------------

def near_table_rule():
    return parse(
        'RULE near_table FOR make: FAIL IF NOT ("table" in near_objects) '
        'FEEDBACK "no table" SUGGEST "move"'
    )


def _failed_make(near=()):
    obs = make_obs(near=near)
    return Transition(
        obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(False, "fail"), obs
    )


def test_coverage_of_corrected_misprediction():
    t = _failed_make(near=())
    assert coverage(near_table_rule(), t, Outcome(True), KnowledgeGraph.empty(),
                    SceneGraph(), tool_tiers=TIERS)


def test_coverage_guard_mismatch_is_false():
    rule = parse('RULE m FOR mine: FAIL IF action.args[block_name] == "plant"')
    t = _failed_make()
    assert not coverage(rule, t, Outcome(True), KnowledgeGraph.empty(),
                        SceneGraph(), tool_tiers=TIERS)


def test_coverage_dormant_rule_is_false():
    # Rule's condition branch does not fire (table IS near), so it covers
    # nothing even though the transition is mispredicted.
    t = _failed_make(near=("table",))
    assert not coverage(near_table_rule(), t, Outcome(True), KnowledgeGraph.empty(),
                        SceneGraph(), tool_tiers=TIERS)


def test_coverage_requires_a_misprediction():
    t = _failed_make()
    with pytest.raises(ValueError):
        coverage(near_table_rule(), t, Outcome(False), KnowledgeGraph.empty(),
                 SceneGraph(), tool_tiers=TIERS)


def test_two_sided_rule_covers_wrong_pessimism():
    rule = parse(
        "RULE model FOR make: SUCCEED ONLY IF kg_requires(action.args[tool_name]) "
        "satisfied_by inventory"
    )
    obs = make_obs(inventory={"wood": 1})
    t = Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "ok"), obs)
    # base predictor wrongly said failure; the rule asserts success
    assert coverage(rule, t, Outcome(False, "no"), KnowledgeGraph.empty(),
                    SceneGraph(), tool_tiers=TIERS)


# -- drop_invalid ------------------------------------------------------------------

def _entry(text, iteration=0):
    return RuleEntry(ast=parse(text), source=text, iteration=iteration)


def test_ground_truth_rules_survive_ground_truth_trajectories():
    config = make_config("default", seed=3)
    real, _ = run_probe(config, NaivePrior(config), 60)
    entries = tuple(_entry(t) for t in OracleProposer(config).propose_rules(
        [tr for tr in real.transitions if not tr.outcome.success] or real.transitions[:1], []
    ))
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(config))
    survivors = drop_invalid(RuleSet(entries), real.transitions, kg, SceneGraph(), tool_tiers=TIERS)
    assert {e.id for e in survivors.entries} == {e.id for e in entries}


def test_corrupted_rule_removed_after_one_contradiction():
    inverted = _entry('RULE bad FOR make: FAIL IF "table" in near_objects')
    obs = make_obs(near=("table",))
    ok = Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "ok"), obs)
    survivors = drop_invalid(
        RuleSet((inverted,)), [ok], KnowledgeGraph.empty(), SceneGraph(), tool_tiers=TIERS
    )
    assert len(survivors) == 0


def test_dormant_rule_retained():
    dormant = _entry('RULE sleepy FOR attack: FAIL IF action.args[creature] == "dragon"')
    obs = make_obs(near=("table",))
    ok = Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "ok"), obs)
    survivors = drop_invalid(
        RuleSet((dormant,)), [ok], KnowledgeGraph.empty(), SceneGraph(), tool_tiers=TIERS
    )
    assert len(survivors) == 1


# -- cover_rate -----------------------------------------------------------------

def test_cover_rate_no_rules_is_zero():
    t = _failed_make()
    rate = cover_rate(RuleSet(), [(t, Outcome(True))], KnowledgeGraph.empty(),
                      SceneGraph(), tool_tiers=TIERS)
    assert rate.value == 0.0 and rate.defined


def test_cover_rate_empty_set_is_flagged_zero():
    rate = cover_rate(RuleSet(), [], KnowledgeGraph.empty(), SceneGraph(), tool_tiers=TIERS)
    assert rate.value == 0.0 and not rate.defined


def test_cover_rate_exact_fraction_12_of_13():
    entries = (RuleEntry(ast=near_table_rule(), source="x"),)
    mispredictions = [(_failed_make(), Outcome(True)) for _ in range(12)]
    mispredictions.append((_failed_make(near=("table",)), Outcome(True)))  # uncovered
    rate = cover_rate(RuleSet(entries), mispredictions, KnowledgeGraph.empty(),
                      SceneGraph(), tool_tiers=TIERS)
    assert rate.value == pytest.approx(12 / 13)
    assert round(rate.value, 3) == 0.923


def test_cover_rate_oracle_rules_cover_all_expressible():
    entries = (RuleEntry(ast=near_table_rule(), source="x"),)
    mispredictions = [(_failed_make(), Outcome(True)) for _ in range(5)]
    rate = cover_rate(RuleSet(entries), mispredictions, KnowledgeGraph.empty(),
                      SceneGraph(), tool_tiers=TIERS)
    assert rate.value == 1.0


# -- induction -------------------------------------------------------------------

class TextProposer:
    def __init__(self, texts):
        self.texts = texts

    def propose_rules(self, window, existing):
        return list(self.texts)

    def propose_kg_edges(self, window):
        return []


def _window_with_failure():
    return [_failed_make()]


def test_induce_excludes_unparseable_as_tagged_invalid():
    proposer = TextProposer([
        'RULE ok FOR make: FAIL IF NOT ("table" in near_objects)',
        "RULE ??? broken text",
    ])
    result = induce_rules(_window_with_failure(), (), proposer, 0)
    assert len(result.new_entries) == 1
    assert len(result.invalid_texts) == 1


def test_induce_returns_malformed_texts_as_invalid_without_raising():
    good = 'RULE ok FOR make: FAIL IF NOT ("table" in near_objects)'
    malformed = [
        "RULE cut FOR mine: FAIL IF obs.",
        "RULE deep FOR mine: FAIL IF " + "NOT " * 500 + '"table" in near_objects',
        'RULE sq FOR mine: FAIL IF inventory["wood"] >= ²',
    ]
    result = induce_rules(_window_with_failure(), (), TextProposer([*malformed, good]), 0)
    assert [e.source for e in result.new_entries] == [good]
    assert result.invalid_texts == tuple(malformed)


def test_induce_drops_duplicates_by_canonical_form():
    text = 'RULE near FOR make: FAIL IF NOT ("table" in near_objects)'
    spaced = 'RULE near FOR make: FAIL IF NOT ( "table" in near_objects )'
    existing = (_entry(text),)
    result = induce_rules(_window_with_failure(), existing, TextProposer([text, spaced]), 0)
    assert result.new_entries == ()


def test_induce_compiles_each_new_rule_with_a_unique_id():
    text = 'RULE near FOR make: FAIL IF NOT ("table" in near_objects)'
    result = induce_rules(_window_with_failure(), (_entry(text),), TextProposer([
        text.replace("table", "furnace"), "RULE ??? broken text",
    ]), 4)
    [entry] = result.new_entries
    assert (entry.id, entry.iteration) == ("near__2", 4)
    assert entry.ast == replace(parse(entry.source), id="near__2")
    assert result.invalid_texts == ("RULE ??? broken text",)


def test_renamed_rule_is_not_accepted_again():
    """A rule renamed on an id collision duplicates its own text in every
    later window and call: equality ignores the id."""
    text = 'RULE near FOR make: FAIL IF NOT ("table" in near_objects)'
    proposer = TextProposer([text, text.replace("table", "furnace")])
    config = make_config("default", seed=3)
    real, predicted = _aligned_pair(config, steps=40)
    assert len(real.transitions) > WINDOW  # two induction windows
    state = LearnerState()
    for _ in range(2):
        rules = ns_learning(predicted, real, state, proposer,
                            LearnerConfig(prune=False), tool_tiers=TIERS)
        assert [e.id for e in rules.entries] == ["near", "near__2"]


def test_oracle_emits_only_for_failed_actions():
    config = make_config("default")
    proposer = OracleProposer(config)
    successes = [Transition(make_obs(), Action("sleep", {}), Outcome(True, "ok"), make_obs())]
    assert proposer.propose_rules(successes, []) == []
    failures = _window_with_failure()
    texts = proposer.propose_rules(failures, [])
    assert texts and all(" FOR make:" in t for t in texts)
    # On every config's probe windows: the ground-truth texts whose guard
    # failed, in the config's order, as a reference that reads each guard
    # out of its text on every call.
    for config_id in CONFIG_IDS:
        config = make_config(config_id, seed=3)
        real, _ = run_probe(config, NaivePrior(config), 100)
        truth = rules_for_config(config)
        for start in range(0, len(real), 7):
            for size in (1, 5, WINDOW):
                window = real.transitions[start : start + size]
                failed = {t.action.name for t in window if not t.outcome.success}
                assert OracleProposer(config).propose_rules(window, []) == [
                    text for text in truth if text.split(" FOR ")[1].split(":")[0] in failed
                ]


def test_oracle_emits_near_table_knowledge_for_failed_make():
    config = make_config("default")
    texts = OracleProposer(config).propose_rules(_window_with_failure(), [])
    assert any("gt_make_model" in t for t in texts)


def test_noisy_oracle_corruption_rate():
    config = make_config("default")
    window = _window_with_failure() + [
        Transition(make_obs(), Action("mine", {"block_name": "plant", "amount": 1}),
                   Outcome(False, "no"), make_obs()),
    ]
    drawn, bad = 0, 0
    proposer = NoisyOracleProposer(config, corruption=0.3, seed=7)
    for _ in range(100):
        for text in proposer.propose_rules(window, []):
            drawn += 1
            try:
                rule = parse(text)
                if rule.id.startswith("bad_"):
                    bad += 1
            except Exception:
                bad += 1
    assert drawn > 500
    assert 0.2 < bad / drawn < 0.4  # ~30% fail parsing or later validity checks


# -- ns_learning -----------------------------------------------------------------

def _aligned_pair(config, steps=60):
    return run_probe(config, NaivePrior(config), steps)


def test_ns_learning_cold_start_yields_positive_cover():
    config = make_config("default", seed=3)
    real, predicted = _aligned_pair(config)
    state = LearnerState()
    state.sg = SceneGraph.initial(sorted(config.terrain_table))
    rules = ns_learning(predicted, real, state, OracleProposer(config),
                        LearnerConfig(), tool_tiers=TIERS)
    assert len(rules) > 0
    rate = cover_rate(rules, state.mispredictions, state.kg, state.sg, tool_tiers=TIERS)
    assert rate.value > 0.0
    assert len(state.kg.edges) > 0  # graph side output retained in state


def test_ns_learning_is_idempotent_for_deterministic_proposer():
    config = make_config("default", seed=3)
    real, predicted = _aligned_pair(config)
    state = LearnerState()
    first = ns_learning(predicted, real, state, OracleProposer(config),
                        LearnerConfig(), tool_tiers=TIERS)
    second = ns_learning(predicted, real, state, OracleProposer(config),
                         LearnerConfig(), tool_tiers=TIERS)
    assert ([pretty_print(e.ast) for e in first.entries]
            == [pretty_print(e.ast) for e in second.entries])
    assert len(state.mispredictions) == len({
        t.digest() + str(p.success) for t, p in state.mispredictions
    })


def test_ns_learning_limit_one_keeps_max_gain_rule():
    config = make_config("default", seed=3)
    real, predicted = _aligned_pair(config)
    state = LearnerState()
    rules = ns_learning(predicted, real, state, OracleProposer(config),
                        LearnerConfig(limit=1), tool_tiers=TIERS)
    assert len(rules) == 1
    assert state.last_trace[0].rule_id == rules.entries[0].id


def test_ns_learning_no_prune_keeps_everything_parsed():
    config = make_config("default", seed=3)
    real, predicted = _aligned_pair(config)
    pruned_state = LearnerState()
    pruned = ns_learning(predicted, real, pruned_state, OracleProposer(config),
                         LearnerConfig(prune=True), tool_tiers=TIERS)
    open_state = LearnerState()
    unpruned = ns_learning(predicted, real, open_state, OracleProposer(config),
                           LearnerConfig(prune=False), tool_tiers=TIERS)
    assert len(unpruned) >= len(pruned)


def test_cover_rate_monotone_over_iterations():
    config = make_config("default", seed=4)
    real, predicted = _aligned_pair(config, steps=5 * WINDOW)
    state = LearnerState()
    state.sg = SceneGraph.initial(sorted(config.terrain_table))
    frozen = [
        (r, p.outcome)
        for r, p in zip(real.transitions, predicted.transitions)
        if r.outcome.success != p.outcome.success
    ]
    previous = 0.0
    for i in range(5):
        lo, hi = i * WINDOW, (i + 1) * WINDOW
        ns_learning(
            Trajectory(predicted.transitions[lo:hi]),
            Trajectory(real.transitions[lo:hi]),
            state, OracleProposer(config), LearnerConfig(), tool_tiers=TIERS,
        )
        rate = cover_rate(state.rules, frozen, state.kg, state.sg, tool_tiers=TIERS)
        assert rate.value >= previous - 1e-12
        previous = rate.value


def test_rule_set_rejects_duplicate_ids():
    entry = _entry('RULE dup FOR make: FAIL IF NOT ("table" in near_objects)')
    with pytest.raises(ValueError):
        RuleSet((entry, entry))


def test_rule_set_json_round_trip():
    entry = _entry('RULE near FOR make: FAIL IF NOT ("table" in near_objects)', iteration=2)
    restored = RuleSet.from_json(RuleSet((entry,)).to_json())
    assert restored.entries[0].ast == entry.ast
    assert restored.entries[0].iteration == 2


def test_selection_coverage_at_least_best_single_rule():
    rng = random.Random(5)
    for _ in range(50):
        sets = [
            {j for j in range(10) if rng.random() < 0.35}
            for _ in range(rng.randint(1, 8))
        ]
        matrix = matrix_from_sets(sets, 10)
        for limit in (1, 2, 4):
            selected = greedy_covered(matrix, limit)
            best_single = max((len(s) for s in sets), default=0)
            assert selected >= best_single


def test_rule_set_reload_honors_stored_ids_after_collision():
    text = 'RULE near FOR make: FAIL IF NOT ("table" in near_objects)'
    doc = [
        {"id": "near", "source": text},
        {"id": "near__2", "source": text.replace("NOT ", "")},
    ]
    restored = RuleSet.from_json(doc)
    assert [e.id for e in restored.entries] == ["near", "near__2"]


# -- incremental validation ------------------------------------------------------

def test_watermark_skips_the_checked_prefix():
    # a rule proven valid on the first two transitions is not re-checked on
    # them, so a contradiction hidden there goes unseen; the third is scanned
    rule = _entry('RULE bad FOR make: FAIL IF "table" in near_objects')
    obs = make_obs(near=("table",))
    ok = Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "ok"), obs)
    other = Transition(make_obs(), Action("sleep", {}), Outcome(True, "ok"), make_obs())
    watermark = {rule.ast: 2}
    kept = drop_invalid(RuleSet((rule,)), [ok, ok, other], KnowledgeGraph.empty(),
                        SceneGraph(), tool_tiers=TIERS, watermark=watermark)
    assert len(kept) == 1 and watermark == {rule.ast: 3}
    kept = drop_invalid(RuleSet((rule,)), [ok, ok, other, ok], KnowledgeGraph.empty(),
                        SceneGraph(), tool_tiers=TIERS, watermark=watermark)
    assert len(kept) == 0 and watermark == {}


def test_watermark_is_keyed_by_ast_not_id():
    valid = _entry('RULE twin FOR make: FAIL IF "furnace" in near_objects')
    reused = _entry('RULE twin FOR make: FAIL IF "table" in near_objects')
    obs = make_obs(near=("table",))
    ok = Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(True, "ok"), obs)
    watermark = {valid.ast: 1}
    kept = drop_invalid(RuleSet((reused,)), [ok], KnowledgeGraph.empty(), SceneGraph(),
                        tool_tiers=TIERS, watermark=watermark)
    assert len(kept) == 0


NEAR = "NOT (action.args[block_name] in near_objects)"
# Each graph- or tier-reading rule equals `near` (so it covers mispredictions
# and survives) until a graph or tier change makes it fire on every mine.
DIFFERENTIAL_POOL = (
    f'RULE near_cow FOR mine: FAIL IF {NEAR} OR sg_contains("grass", "cow")',
    f'RULE near_sand FOR mine: FAIL IF {NEAR} OR NOT sg_unexplored("sand")',
    f"RULE near_kg FOR mine: FAIL IF {NEAR} OR "
    "NOT kg_requires(action.args[block_name]) satisfied_by inventory",
    f'RULE near_tier FOR mine: FAIL IF {NEAR} OR has_tool_at_least("wood_pickaxe")',
    f"RULE near FOR mine: FAIL IF {NEAR}",
    # equals `near` until the agent holds 20 saplings: valid on a prefix only
    f'RULE near_few FOR mine: FAIL IF {NEAR} OR inventory["sapling"] >= 20',
    'RULE twin FOR mine: FAIL IF obs.in_front == "tree"',
    'RULE twin FOR mine: FAIL IF NOT (obs.in_front == "tree")',
    "RULE attack FOR attack: FAIL IF NOT (action.args[creature] in near_objects)",
)
DIFFERENTIAL_EDGES = (
    KgEdge("grass", "diamond", "requires", 1),
    KgEdge("tree", "diamond", "requires", 1),
    KgEdge("stone", "wood_pickaxe", "requires", 1),
)
DIFFERENTIAL_OBS = (
    make_obs(position="sand"),
    make_obs(visible=(("cow", 1, 0),)),
    make_obs(position="tree", visible=(("zombie", 0, 1),)),
)
# Under these tiers a sapling counts as a tool, so `near_tier` fires once
# the agent has gathered one.
ALT_TIERS = ("wood_pickaxe", "sapling")
# Each equals `near` until a graph or tier change makes it dormant on some
# mines: its coverage row changes while it stays valid.
DORMANT_POOL = (
    f'RULE near_no_cow FOR mine: FAIL IF {NEAR} AND NOT sg_contains("grass", "cow")',
    f'RULE near_no_sand FOR mine: FAIL IF {NEAR} AND sg_unexplored("sand")',
    f"RULE near_kg_met FOR mine: FAIL IF {NEAR} AND "
    "kg_requires(action.args[block_name]) satisfied_by inventory",
    f'RULE near_no_tier FOR mine: FAIL IF {NEAR} AND NOT has_tool_at_least("wood_pickaxe")',
)


class _ScriptedProposer:
    """Returns whatever the test queued for the next call."""

    def __init__(self) -> None:
        self.rules: list[str] = []
        self.edges: list[KgEdge] = []

    def propose_rules(self, window, existing):
        return list(self.rules)

    def propose_kg_edges(self, window):
        return list(self.edges)


@functools.lru_cache(maxsize=1)
def _differential_probe():
    config = make_config("default", seed=3)
    return run_probe(config, NaivePrior(config), 100), sorted(config.terrain_table)


def _mask(bits: int, pool):
    return [item for i, item in enumerate(pool) if bits >> i & 1]


def _learn(state, lo, hi, proposer, limit, tiers):
    """One ns_learning call on probe steps [lo, hi)."""
    (real, predicted), _ = _differential_probe()
    ns_learning(
        Trajectory(predicted.transitions[lo:hi]), Trajectory(real.transitions[lo:hi]),
        state, proposer, LearnerConfig(limit=limit), tool_tiers=tiers,
    )


@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("append", "kg", "sg", "tiers", "rewrite")),
            st.integers(0, 99),
        ),
        min_size=1,
        max_size=10,
    ),
)
# A rewrite that puts other transitions below the checked length.
@example(ops=[("append", 80), ("sg", 1), ("rewrite", 0)])
def test_watermark_drop_invalid_matches_from_scratch(ops):
    """The watermark ns_learning builds from its memo, with a limit that
    keeps every rule that covers a misprediction: after each history
    append, KG merge, SG update, tool-tier switch or history rewrite, the
    incremental check equals a from-scratch one, and the watermark holds
    only rules the state kept."""
    _, locations = _differential_probe()
    texts = [t for t in DIFFERENTIAL_POOL if "twin" not in t]
    proposer = _ScriptedProposer()
    proposer.rules = texts
    state = LearnerState(sg=SceneGraph.initial(locations))
    tiers = TIERS
    original = learner.drop_invalid

    def checked(rules, transitions, kg, sg, *, tool_tiers, watermark=None):
        assert set(watermark) <= {e.ast for e in state.rules.entries}
        got = original(rules, transitions, kg, sg, tool_tiers=tool_tiers, watermark=watermark)
        assert got == original(rules, transitions, kg, sg, tool_tiers=tool_tiers)
        return got

    with mock.patch.object(learner, "drop_invalid", checked):
        for op, arg in ops:
            lo = hi = 0
            if op == "append":  # three probe transitions from anywhere in the run
                lo, hi = arg, arg + 3
            elif op == "kg":
                state.kg = kg_merge(state.kg, [DIFFERENTIAL_EDGES[arg % 3]])
            elif op == "sg":
                state.sg = sg_update(state.sg, DIFFERENTIAL_OBS[arg % 3])
            elif op == "tiers":
                tiers = ALT_TIERS if tiers == TIERS else TIERS
            else:  # cut the history back, then append in the same call
                state.history = state.history[: len(state.history) * arg // 100]
                lo, hi = arg, arg + 3
            _learn(state, lo, hi, proposer, len(texts), tiers)


_STEP = st.tuples(
    st.integers(0, 4),  # new transitions
    st.integers(0, 2 ** len(DIFFERENTIAL_POOL) - 1),  # rules proposed
    st.integers(0, 2 ** len(DIFFERENTIAL_EDGES) - 1),  # edges proposed
    st.sampled_from(("none", "kg", "sg", "tiers", "truncate")),  # outside change
    st.integers(0, len(DIFFERENTIAL_OBS) - 1),
)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 60),
    st.integers(1, 4),
    st.lists(_STEP, min_size=1, max_size=8),
)
def test_incremental_drop_invalid_matches_from_scratch(offset, limit, steps):
    """Random history appends, KG merges, SG updates, tool-tier switches and
    history truncations: every validity check ns_learning makes with the
    watermark it builds from its memo equals a from-scratch check, and the
    map holds at most the `limit` rules the state kept."""
    (real, predicted), locations = _differential_probe()
    original = learner.drop_invalid
    checks = []

    def checked(rules, transitions, kg, sg, *, tool_tiers, watermark=None):
        assert len(watermark) <= limit
        assert set(watermark) <= {e.ast for e in state.rules.entries}
        expected = original(rules, transitions, kg, sg, tool_tiers=tool_tiers, watermark={})
        got = original(rules, transitions, kg, sg, tool_tiers=tool_tiers, watermark=watermark)
        assert got == expected
        checks.append(len(got))
        return got

    proposer = _ScriptedProposer()
    state = LearnerState()
    state.sg = SceneGraph.initial(locations)
    tiers = TIERS
    cursor = offset
    with mock.patch.object(learner, "drop_invalid", checked):
        for count, rule_bits, edge_bits, change, obs_index in steps:
            if change == "kg":
                state.kg = kg_merge(state.kg, _mask(edge_bits, DIFFERENTIAL_EDGES))
            elif change == "sg":
                state.sg = sg_update(state.sg, DIFFERENTIAL_OBS[obs_index])
            elif change == "tiers":
                tiers = ALT_TIERS if tiers == TIERS else TIERS
            elif change == "truncate":
                state.history = state.history[: len(state.history) // 2]
            proposer.rules = _mask(rule_bits, DIFFERENTIAL_POOL)
            proposer.edges = _mask(edge_bits, DIFFERENTIAL_EDGES)
            hi = min(cursor + count, len(real))
            ns_learning(
                Trajectory(predicted.transitions[cursor:hi]),
                Trajectory(real.transitions[cursor:hi]),
                state, proposer, LearnerConfig(limit=limit), tool_tiers=tiers,
            )
            cursor = hi
    assert len(checks) == len(steps)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 4),
    st.lists(
        st.tuples(
            st.sampled_from(
                ("append", "rules", "kg", "sg", "tiers", "rewrite", "replace")
            ),
            st.integers(0, 2 ** 11 - 1),
        ),
        min_size=1,
        max_size=10,
    ),
)
# A kept rule whose row a graph or tier change alters (the lowest mask bit
# picks it over the rules with equal rows), and a replaced list.
@example(limit=1, ops=[("append", 0), ("rules", 1), ("sg", 1)])
@example(limit=1, ops=[("append", 0), ("rules", 4), ("kg", 1)])
@example(limit=1, ops=[("append", 0), ("rules", 8), ("tiers", 0)])
@example(limit=1, ops=[("append", 0), ("rules", 1), ("replace", 5)])
def test_kept_coverage_rows_match_a_from_scratch_matrix(limit, ops):
    """The rows ns_learning builds from its memo and the kept rules' rows in
    `state.coverage`: after each history append, pool rules proposed anew,
    KG merge, SG update, tool-tier switch, history rewrite or replaced
    misprediction list, every matrix equals a from-scratch one and the map
    holds only rows of rules the state kept."""
    (real, predicted), locations = _differential_probe()
    pairs = classify_transitions(real, predicted)
    rules = [t for t in DORMANT_POOL + DIFFERENTIAL_POOL if "twin" not in t]
    twins = [t for t in DIFFERENTIAL_POOL if "twin" in t]
    proposer = _ScriptedProposer()
    state = LearnerState(sg=SceneGraph.initial(locations))
    tiers = TIERS
    original = learner.build_matrix
    matrices = []

    def checked(entries, mispredictions, kg, sg, *, tool_tiers, rows=None, ids=()):
        assert set(rows) <= {e.ast for e in state.rules.entries}
        got = original(entries, mispredictions, kg, sg, tool_tiers=tool_tiers, rows=rows, ids=ids)
        assert got == original(entries, mispredictions, kg, sg, tool_tiers=tool_tiers)
        matrices.append(got)
        return got

    with mock.patch.object(learner, "build_matrix", checked):
        for op, bits in ops:
            arg, lo, hi = bits % 100, 0, 0
            if op == "append":  # three probe transitions from anywhere in the run
                lo, hi = arg, arg + 3
            elif op == "rules":  # pool rules drawn anew, one of the same-id twins
                proposer.rules = _mask(bits, rules) + [twins[bits % 2]]
                lo, hi = arg, arg + 3
            elif op == "kg":
                state.kg = kg_merge(state.kg, [DIFFERENTIAL_EDGES[arg % 3]])
            elif op == "sg":
                state.sg = sg_update(state.sg, DIFFERENTIAL_OBS[arg % 3])
            elif op == "tiers":
                tiers = ALT_TIERS if tiers == TIERS else TIERS
            elif op == "rewrite":  # cut the history back, then append in the same call
                state.history = state.history[: len(state.history) * arg // 100]
                lo, hi = arg, arg + 3
            else:  # a list rebuilt elsewhere: other pairs, at least as many
                start = arg % len(pairs)
                rebuilt = (pairs[start:] + pairs[:start])[: len(state.mispredictions) + 1]
                state.mispredictions = [(t, p) for t, p in rebuilt]
            _learn(state, lo, hi, proposer, limit, tiers)
            proposer.rules = []
    assert len(matrices) == len(ops)


# -- guard-matched evaluation ---------------------------------------------------

# Rules of every guard the probe's actions take, and one (make) it never
# takes; a graph-reading rule, and atoms that cannot be resolved on the
# actions they guard (an unknown location, a missing argument, an unknown
# tool tier).
GUARDED_POOL = (
    f"RULE near FOR mine: FAIL IF {NEAR}",
    f'RULE near_cow FOR mine: FAIL IF {NEAR} OR sg_contains("grass", "cow")',
    'RULE volcano FOR mine: FAIL IF sg_contains("volcano", "cow")',
    'RULE gold FOR mine: SUCCEED ONLY IF has_tool_at_least("gold_pickaxe")',
    "RULE attack FOR attack: FAIL IF NOT (action.args[creature] in near_objects)",
    'RULE attack_block FOR attack: FAIL IF action.args[block_name] == "tree"',
    "RULE rested FOR sleep: SUCCEED ONLY IF obs.status.energy < 9",
    'RULE explore FOR explore: FAIL IF obs.in_front == "water"',
    'RULE table FOR make: FAIL IF NOT ("table" in near_objects)',
)


def _reference_asserted_bit(rule, verdict):
    """The reference for `RuleVerdict.asserted`: the success bit a rule
    claims, from its polarity and verdict, or None where it claims none.  A
    FAIL IF rule claims failure only when its condition fires; a SUCCEED
    ONLY IF rule claims its verdict whenever it activates."""
    if not verdict.activated:
        return None
    if rule.polarity is Polarity.FAIL_IF:
        return False if not verdict.flag else None
    return verdict.flag


def _counted_evaluate(rule, obs, action, kg, sg, *, tool_tiers, dormant):
    """`evaluate`, adding one to `dormant[rule.id]` for each guard-matched
    evaluation that comes back dormant; `dormant=None` counts nothing."""
    verdict = evaluate(rule, obs, action, kg, sg, tool_tiers=tool_tiers)
    if dormant is not None and action.name == rule.action_guard and not verdict.activated:
        dormant[rule.id] += 1
    return verdict


def _reference_drop_invalid(rules, transitions, kg, sg, *, tool_tiers, watermark, dormant):
    """`drop_invalid` as it was before the guard skip: every rule is
    evaluated on every transition past its watermark."""
    keep = []
    for entry in rules.entries:
        valid = True
        for t in transitions[watermark.get(entry.ast, 0):]:
            verdict = _counted_evaluate(entry.ast, t.obs, t.action, kg, sg,
                                        tool_tiers=tool_tiers, dormant=dormant)
            asserted = _reference_asserted_bit(entry.ast, verdict)
            if asserted is not None and asserted != t.outcome.success:
                valid = False
                break
        if valid:
            keep.append(entry)
            watermark[entry.ast] = len(transitions)
        else:
            watermark.pop(entry.ast, None)
    return RuleSet(tuple(keep))


def _reference_coverage(rule, transition, predicted, kg, sg, *, tool_tiers, dormant):
    if predicted.success == transition.outcome.success:
        raise ValueError("coverage is defined over mispredicted transitions only")
    verdict = _counted_evaluate(rule, transition.obs, transition.action, kg, sg,
                                tool_tiers=tool_tiers, dormant=dormant)
    return _reference_asserted_bit(rule, verdict) == transition.outcome.success


def _reference_matrix(entries, mispredictions, kg, sg, *, tool_tiers, rows, dormant):
    for entry in entries:
        row = rows.get(entry.ast, ())
        rows[entry.ast] = row + tuple(
            _reference_coverage(entry.ast, t, predicted, kg, sg,
                                tool_tiers=tool_tiers, dormant=dormant)
            for t, predicted in mispredictions[len(row):]
        )
    return CoverageMatrix(
        tuple(e.id for e in entries),
        tuple(t.digest() for t, _ in mispredictions),
        tuple(rows[e.ast] for e in entries),
    )


def _reference_cover_rate(rules, mispredictions, kg, sg, *, tool_tiers, dormant):
    if not mispredictions:
        return learner.CoverRate(0.0, defined=False)
    hits = sum(
        1 for t, predicted in mispredictions
        if any(_reference_coverage(e.ast, t, predicted, kg, sg,
                                   tool_tiers=tool_tiers, dormant=dormant)
               for e in rules.entries)
    )
    return learner.CoverRate(hits / len(mispredictions), defined=True)


def _raised(call):
    try:
        return call()
    except ValueError:
        return ValueError


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 2 ** len(GUARDED_POOL) - 1),
    st.lists(st.tuples(st.integers(0, 99), st.booleans()), max_size=30),
    st.integers(0, len(DIFFERENTIAL_OBS)),
    st.sampled_from((TIERS, ALT_TIERS)),
    st.integers(0, 30),
    st.integers(0, 2 ** len(GUARDED_POOL) - 1),
)
def test_guard_matched_learning_matches_evaluating_every_pair(
    rule_bits, picks, obs_index, tiers, prefix, known_bits
):
    """`drop_invalid` (fresh and from a watermark), `build_matrix` (fresh and
    from kept rows), `coverage` and `cover_rate` equal references that
    evaluate every (rule, transition) pair, with the same count of dormant
    guard-matched evaluations per rule, and never evaluate a rule on an
    action its guard does not match."""
    (real, _), locations = _differential_probe()
    rules = RuleSet(tuple(_mask(rule_bits, [_entry(t) for t in GUARDED_POOL])))
    known = [e.ast for e in _mask(known_bits, rules.entries)]
    history = [real.transitions[i] for i, _ in picks]
    predicted = [Outcome(t.outcome.success != wrong) for t, (_, wrong) in zip(history, picks)]
    mispredictions = [(t, p) for t, p in zip(history, predicted) if p.success != t.outcome.success]
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(make_config("default", seed=3)))
    sg = SceneGraph.initial(locations)
    if obs_index < len(DIFFERENTIAL_OBS):
        sg = sg_update(sg, DIFFERENTIAL_OBS[obs_index])
    fast, slow = Counter(), Counter()

    def guard_matched(rule, obs, action, kg, sg, *, tool_tiers):
        assert action.name == rule.action_guard
        return _counted_evaluate(rule, obs, action, kg, sg, tool_tiers=tool_tiers, dormant=fast)

    with mock.patch.object(learner, "evaluate", guard_matched):
        for start in (0, prefix):
            watermark = {ast: min(start, len(history)) for ast in known}
            expected_watermark = dict(watermark)
            assert drop_invalid(
                rules, history, kg, sg, tool_tiers=tiers, watermark=watermark
            ) == _reference_drop_invalid(
                rules, history, kg, sg, tool_tiers=tiers,
                watermark=expected_watermark, dormant=slow,
            )
            assert watermark == expected_watermark
        for rows_from in (None, prefix):
            rows, expected_rows = {}, {}
            if rows_from is not None:
                lead = mispredictions[:rows_from]
                _reference_matrix(_mask(known_bits, rules.entries), lead, kg, sg,
                                  tool_tiers=tiers, rows=rows, dormant=None)
                expected_rows = dict(rows)
            assert learner.build_matrix(
                rules.entries, mispredictions, kg, sg, tool_tiers=tiers, rows=rows
            ) == _reference_matrix(
                rules.entries, mispredictions, kg, sg, tool_tiers=tiers,
                rows=expected_rows, dormant=slow,
            )
            assert rows == expected_rows
        assert cover_rate(
            rules, mispredictions, kg, sg, tool_tiers=tiers
        ) == _reference_cover_rate(
            rules, mispredictions, kg, sg, tool_tiers=tiers, dormant=slow
        )
        for t, p in zip(history, predicted):  # correct predictions raise too
            for entry in rules.entries:
                assert _raised(
                    lambda: coverage(entry.ast, t, p, kg, sg, tool_tiers=tiers)
                ) == _raised(
                    lambda: _reference_coverage(entry.ast, t, p, kg, sg,
                                                tool_tiers=tiers, dormant=slow)
                )
    assert fast == slow


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(GUARDED_POOL),
    st.integers(0, 99),
    st.integers(0, len(DIFFERENTIAL_OBS)),
    st.sampled_from((TIERS, ALT_TIERS)),
)
# `rested` (SUCCEED ONLY IF) holding, then failing: few probe steps sleep.
@example(text=GUARDED_POOL[6], pick=60, obs_index=0, tiers=TIERS)
@example(text=GUARDED_POOL[6], pick=62, obs_index=0, tiers=TIERS)
def test_a_verdict_carries_the_bit_its_rule_asserts(text, pick, obs_index, tiers):
    """`RuleVerdict.asserted` is the bit the reference reads off the rule's
    polarity and verdict, over both polarities, guard mismatches and
    unresolvable atoms."""
    (real, _), locations = _differential_probe()
    t = real.transitions[pick]
    rule = parse(text)
    kg = kg_merge(KnowledgeGraph.empty(), kg_edges_for_config(make_config("default", seed=3)))
    sg = SceneGraph.initial(locations)
    if obs_index < len(DIFFERENTIAL_OBS):
        sg = sg_update(sg, DIFFERENTIAL_OBS[obs_index])
    verdict = evaluate(rule, t.obs, t.action, kg, sg, tool_tiers=tiers)
    assert verdict.asserted == _reference_asserted_bit(rule, verdict)


# -- one owner for the selection step ------------------------------------------

def test_select_rules_keeps_entries_and_rows_in_pick_order():
    entries = [_entry(f'RULE rule_{i + 1} FOR make: FAIL IF NOT ("table" in near_objects)')
               for i in range(3)]
    matrix = matrix_from_sets([{2}, {0, 1}, {1, 2}], 3)
    kept, trace, rows = learner.select_rules(entries, matrix, 2)
    assert trace == (SelectionStep("rule_2", 2), SelectionStep("rule_1", 1))
    assert [(e.id, e.covered) for e in kept] == [("rule_2", 2), ("rule_1", 1)]
    assert rows == CoverageMatrix(
        ("rule_2", "rule_1"), matrix.transition_ids, (matrix.a[1], matrix.a[0])
    )
    assert rows.to_json(trace, 2) == {
        "rules": ["rule_2", "rule_1"],
        "transitions": ["d1", "d2", "d3"],
        "matrix": [[1, 1, 0], [0, 0, 1]],
        "selection": [{"rule_id": "rule_2", "gain": 2}, {"rule_id": "rule_1", "gain": 1}],
        "limit": 2,
    }


@settings(deadline=None, max_examples=30)
@given(
    config_id=st.sampled_from(CONFIG_IDS),
    seed=st.integers(0, 40),
    cadence=st.sampled_from(("episode", "step")),
    proposer=st.sampled_from(("oracle", "noisy")),
    prune=st.booleans(),
    limit=st.integers(1, 6),
)
# Two runs whose greedy picks come out of pool order, so that a selection
# kept in pool order is caught on every run.
@example(config_id="all_three", seed=0, cadence="episode", proposer="oracle", prune=True, limit=2)
@example(config_id="default", seed=0, cadence="step", proposer="noisy", prune=True, limit=2)
def test_learner_coverage_matches_a_rebuilt_matrix(config_id, seed, cadence, proposer, prune, limit):
    """After every pruned update the kept rows on the state equal a matrix
    rebuilt from the kept rules, and the kept rules are the trace's picks in
    order with their gains; a no-pruning update keeps no rows."""
    from worldalign import agent
    from worldalign.experiments import run_learning_trial, standard_components

    original = learner.ns_learning
    updates = []

    def checked(pred, real, state, rule_proposer, config, *, tool_tiers):
        rules = original(pred, real, state, rule_proposer, config, tool_tiers=tool_tiers)
        if config.prune:
            rebuilt = learner.build_matrix(
                state.rules.entries, state.mispredictions, state.kg, state.sg,
                tool_tiers=tool_tiers,
            )
            assert state.coverage == rebuilt
            assert [(e.id, e.covered) for e in state.rules.entries] == [
                (step.rule_id, step.gain) for step in state.last_trace
            ]
        else:
            assert state.coverage == CoverageMatrix()
        updates.append(len(state.rules))
        return rules

    build = standard_components(
        rule_proposer_kind=proposer, cadence=cadence, prune=prune, limit=limit,
        proposer_seed=seed,
    )
    with mock.patch.object(agent, "ns_learning", checked):
        run_learning_trial(make_config(config_id), seed, 2, build)
    assert updates


# -- state kept between learning calls ------------------------------------------

def _reference_induce_rules(window, pool, proposer, iteration):
    """induce_rules as it was before the anonymous twins were kept: each
    call builds every pool rule's id-less copy again."""
    raw = proposer.propose_rules(window, [e.source for e in pool])
    known = {replace(e.ast, id="") for e in pool}
    taken = {e.id for e in pool}
    new, invalid = [], []
    for text in raw:
        try:
            ast = parse(text)
        except (ParseError, RuleTypeError):
            invalid.append(text)
            continue
        anonymous = replace(ast, id="")
        if anonymous in known:
            continue
        known.add(anonymous)
        rule_id = learner._unique_id(ast.id, taken)
        taken.add(rule_id)
        if rule_id != ast.id:
            ast = replace(ast, id=rule_id)
        new.append(RuleEntry(ast=ast, source=text, iteration=iteration))
    return InductionResult(tuple(new), tuple(invalid))


# The differential pool with respaced copies, texts whose ids collide with
# other rules' ids or with a renamed id, and one text that does not parse.
INDUCED_TEXTS = (
    *DIFFERENTIAL_POOL,
    *(t.replace("FAIL IF", "FAIL  IF") for t in DIFFERENTIAL_POOL[:3]),
    'RULE near FOR mine: FAIL IF obs.in_front == "tree"',
    'RULE near__2 FOR mine: FAIL IF obs.in_front == "sand"',
    "RULE ??? broken text",
)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2 ** len(INDUCED_TEXTS) - 1),
    st.lists(st.lists(st.sampled_from(INDUCED_TEXTS), max_size=8), min_size=1, max_size=3),
)
def test_induce_rules_decides_duplicates_and_ids_as_the_rebuilding_reference(pool_bits, batches):
    """Over calls that grow one pool, so that its rules' kept twins are
    reused: the same new entries with the same ids, and the same invalid
    texts, as the reference."""
    pool = tuple(_entry(t) for t in _mask(pool_bits, INDUCED_TEXTS) if "???" not in t)
    pool = tuple({e.id: e for e in pool}.values())  # one entry per id, as a RuleSet holds
    window = _window_with_failure()
    for iteration, texts in enumerate(batches):
        got = induce_rules(window, pool, TextProposer(texts), iteration)
        assert got == _reference_induce_rules(window, pool, TextProposer(texts), iteration)
        pool += got.new_entries


class _RebuiltKeys(LearnerState):
    """The reference: a state that keeps no memo, so every call keys the
    whole misprediction list again and rebuilds every row and id."""

    _progress = property(lambda self: None, lambda self, value: None)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2 ** len(DIFFERENTIAL_POOL) - 1),
    st.lists(
        st.tuples(
            st.integers(-6, 6),  # step the probe window back (repeats) or on
            st.sampled_from(("none", "replace", "shorten", "history")),
            st.integers(0, 99),
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(rule_bits=16, steps=[(6, "none", 0), (-6, "shorten", 50), (6, "none", 0)])
@example(rule_bits=16, steps=[(6, "none", 0), (0, "replace", 3), (6, "none", 0)])
def test_kept_misprediction_keys_and_ids_match_from_scratch(rule_bits, steps):
    """ns_learning with the key set and transition ids its memo keeps,
    beside a state that rebuilds them: after every call, and after the list
    is replaced by fresh pairs or shortened in place, or the history cut,
    the memo's keys, the stored mispredictions and the matrix's transition
    ids equal from-scratch ones."""
    (real, predicted), locations = _differential_probe()
    proposer = _ScriptedProposer()
    proposer.rules = _mask(rule_bits, DIFFERENTIAL_POOL)
    kept, rebuilt = LearnerState(), _RebuiltKeys()
    for state in (kept, rebuilt):
        state.sg = SceneGraph.initial(locations)
    cursor = 0
    for move, change, arg in steps:
        for state in (kept, rebuilt):
            if change == "replace":  # other pairs, at least as many, in fresh tuples
                pairs = classify_transitions(real, predicted)
                start = arg % len(pairs)
                state.mispredictions = [
                    (t, p) for t, p in (pairs[start:] + pairs[:start])[: len(state.mispredictions) + 1]
                ]
            elif change == "shorten":
                del state.mispredictions[len(state.mispredictions) * arg // 100:]
            elif change == "history":
                state.history = state.history[: len(state.history) // 2]
        start = max(0, min(cursor + min(move, 0), len(real)))
        cursor = min(len(real), start + abs(move))
        for state in (kept, rebuilt):
            _learn(state, start, cursor, proposer, 2, TIERS)
        assert rebuilt._progress is None
        assert kept.mispredictions == rebuilt.mispredictions
        digests = tuple(t.digest() for t, _ in kept.mispredictions)
        assert kept._progress.keys == set(digests)
        assert kept.coverage.transition_ids == digests
        assert kept.coverage == rebuilt.coverage


STATE_FIELDS = {
    "rules", "kg", "sg", "history", "mispredictions", "iteration", "last_trace", "coverage",
}


def test_learner_state_memo_is_outside_equality_and_pickling():
    (real, predicted), locations = _differential_probe()
    state = LearnerState(sg=SceneGraph.initial(locations))
    ns_learning(predicted, real, state, _ScriptedProposer(), LearnerConfig(), tool_tiers=TIERS)
    assert state.mispredictions and state._progress is not None
    assert {f.name for f in fields(LearnerState) if f.compare} == STATE_FIELDS
    assert set(state.__getstate__()) == STATE_FIELDS
    twin = pickle.loads(pickle.dumps(state))
    assert twin._progress is None and twin == state
    assert "_progress" not in repr(state)


# The replacement rule sets: the pool with one twin, so that ids are unique.
# `twin` and `near_few` are invalid on parts of the probe.
REPLACEMENT_POOL = tuple(t for t in DIFFERENTIAL_POOL if "NOT (obs.in_front" not in t)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 4),
    st.lists(
        st.tuples(
            st.integers(0, 6),  # new transitions
            st.integers(0, 2 ** len(DIFFERENTIAL_POOL) - 1),  # rules proposed
            st.sampled_from(("none", "rules", "coverage", "both")),  # field replaced
            st.integers(0, 2 ** len(REPLACEMENT_POOL) - 1),  # the replacement
        ),
        min_size=1,
        max_size=6,
    ),
)
# A replaced rule set holding a rule that the kept rows would vouch for;
# kept rows replaced by their negation.
@example(limit=2, steps=[(6, 16, "none", 0), (6, 0, "rules", 64), (6, 0, "none", 0)])
@example(limit=2, steps=[(6, 16, "none", 0), (0, 0, "coverage", 0), (6, 0, "none", 0)])
def test_a_state_without_its_memo_continues_to_the_kept_state(limit, steps):
    """Before every call a twin of the state is made by a pickle round-trip,
    which drops the memo: after the call, with the rules, the coverage or
    both replaced on the state beforehand, the twin equals the state that
    kept its memo."""
    _, locations = _differential_probe()
    proposer = _ScriptedProposer()
    state = LearnerState(sg=SceneGraph.initial(locations))
    cursor = 0
    for count, rule_bits, change, bits in steps:
        if change in ("rules", "both"):
            state.rules = RuleSet(tuple(_entry(t) for t in _mask(bits, REPLACEMENT_POOL)))
        if change in ("coverage", "both"):
            old = state.coverage
            state.coverage = replace(old, a=tuple(tuple(not c for c in row) for row in old.a))
        twin = pickle.loads(pickle.dumps(state))
        assert twin._progress is None and twin == state
        proposer.rules = _mask(rule_bits, DIFFERENTIAL_POOL)
        for s in (state, twin):
            _learn(s, cursor, cursor + count, proposer, limit, TIERS)
        cursor += count
        assert twin == state


def _learned_state(config_id, seed):
    """Top level, so that a spawned worker can run it: the learner state
    after two noisy iterations."""
    from worldalign.experiments import run_learning_trial, standard_components

    build = standard_components(rule_proposer_kind="noisy", proposer_seed=seed)
    return run_learning_trial(make_config(config_id, seed=seed), seed, 2, build, target=None).state


def test_rule_asts_returned_by_a_worker_pool_hash_as_the_parents_own():
    """A str hash is salted per process, so a hash a worker memoised must
    not come back with its rule: every returned AST is found through ASTs
    that the parent parsed itself, and no learning memo comes back, so the
    parent's next call builds its watermark and rows from those ASTs."""
    from worldalign.experiments import run_trials

    states = run_trials(_learned_state, [("default", 1), ("all_three", 2)], 2)
    for state in states:
        by_ast = {replace(parse(e.source), id=e.id): e.id for e in state.rules.entries}
        assert by_ast
        assert [by_ast[e.ast] for e in state.rules.entries] == [e.id for e in state.rules.entries]
        assert state._progress is None
