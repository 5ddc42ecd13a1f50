"""Four-stage learning pipeline: classify mispredictions, induce rule texts
and graph edges, compile to ASTs, then validate and prune by greedy maximum
coverage.

Pruning works on an indicator matrix over the accumulated misprediction set,
so the surviving rules are exactly the ones that correct the base
predictor's observed mistakes; rules covering only correct transitions get
zero gain and are never selected.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .core import Memoised, Outcome, Trajectory, Transition, classify_transitions, require, to_json
from .dsl import (
    ParseError,
    RuleAst,
    RuleTypeError,
    evaluate,
    parse,
    uses_graphs,
)
from .graphs import KnowledgeGraph, SceneGraph, kg_induce, kg_merge, sg_update

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RuleEntry:
    ast: RuleAst
    source: str
    iteration: int = 0
    covered: int = 0

    @property
    def id(self) -> str:
        return self.ast.id


@dataclass(frozen=True)
class RuleSet:
    entries: tuple[RuleEntry, ...] = ()

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("rule ids must be unique within a set")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def rules(self) -> tuple[RuleAst, ...]:
        return tuple(e.ast for e in self.entries)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": e.id,
                "source": e.source,
                "iteration_learned": e.iteration,
                "covered_count": e.covered,
            }
            for e in self.entries
        ]

    @staticmethod
    def from_json(data: list[dict]) -> "RuleSet":
        """Parse `to_json` output; a malformed entry is a ValueError naming
        its index and field."""
        if not isinstance(data, list):
            raise ValueError("rules file must be a JSON array")
        entries = []
        for i, item in enumerate(data):
            where = f"entry {i}"
            stored_id = require(item, "id", where, str)
            source = require(item, "source", where, str)
            try:
                ast = parse(source)
            except ValueError as exc:
                raise ValueError(f"{where}: source: {exc}") from None
            if stored_id != ast.id:
                # ids may have been uniquified after a collision; the stored
                # id wins so reloaded sets keep their identities
                ast = replace(ast, id=stored_id)
            entries.append(
                RuleEntry(
                    ast=ast,
                    source=source,
                    iteration=require(item, "iteration_learned", where, int, default=0),
                    covered=require(item, "covered_count", where, int, default=0),
                )
            )
        return RuleSet(tuple(entries))


WINDOW = 20  # transitions per induction chunk


@dataclass(frozen=True)
class LearnerConfig:
    limit: int = 6  # rule budget after pruning
    prune: bool = True  # False = ablation arm: skip validity drop and pruning


@dataclass
class ValidityWatermark:
    """What the last validity check and coverage matrix already proved, so
    the next ones compute only new work.

    `upto[ast]` is the number of leading history transitions the rule is
    known to assert no wrong bit on.  `rows[ast]` is the rule's coverage
    row over the leading mispredictions.  The key is the whole AST, so a
    rule id reused for another text misses.  Both hold only for the graphs
    and tool tiers they were computed under and for the history and
    misprediction list they were computed on; `refresh` forgets whatever
    the current inputs no longer vouch for.  `ids` holds the leading
    mispredictions' digests, which depend on that list alone.
    """

    upto: dict[RuleAst, int] = field(default_factory=dict)
    rows: dict[RuleAst, tuple[bool, ...]] = field(default_factory=dict)
    ids: tuple[str, ...] = ()
    graphs: tuple[KnowledgeGraph, SceneGraph] | None = None
    tool_tiers: tuple[str, ...] | None = None
    checked: int = 0  # history length at the last check
    last: Transition | None = None  # history[checked - 1] at the last check
    seen: int = 0  # misprediction count at the last check
    last_seen: tuple[Transition, Outcome] | None = None  # mispredictions[seen - 1]

    def refresh(
        self,
        history: Sequence[Transition],
        kg: KnowledgeGraph,
        sg: SceneGraph,
        tool_tiers: Sequence[str],
        mispredictions: Sequence[tuple[Transition, Outcome]],
    ) -> dict[RuleAst, int]:
        """Drop the entries the inputs invalidate and return `upto`.

        Every entry goes when the tool tiers change or the history is not
        an extension of the one last checked (its last checked transition is
        no longer in place); only the graph-reading rules' entries go when
        the graphs' content changed.  Every row, and `ids`, also go when
        the misprediction list is not an extension of the one last seen (its
        last seen pair is no longer in place).  Graphs are compared by
        value; an unchanged graph is the same instance, which compares
        at once.
        """
        tool_tiers = tuple(tool_tiers)
        if not _extends(history, self.checked, self.last) or tool_tiers != self.tool_tiers:
            self.upto.clear()
            self.rows.clear()
        elif (kg, sg) != self.graphs:
            for known in (self.upto, self.rows):
                for ast in [a for a in known if uses_graphs(a)]:
                    del known[ast]
        if not _extends(mispredictions, self.seen, self.last_seen):
            self.rows.clear()
            self.ids = ()
        self.graphs = (kg, sg)
        self.tool_tiers = tool_tiers
        self.checked = len(history)
        self.last = history[-1] if history else None
        self.seen = len(mispredictions)
        self.last_seen = mispredictions[-1] if mispredictions else None
        return self.upto

    def keep_only(self, entries: Sequence["RuleEntry"]) -> None:
        self.upto = {e.ast: self.upto[e.ast] for e in entries if e.ast in self.upto}
        self.rows = {e.ast: self.rows[e.ast] for e in entries if e.ast in self.rows}


def _extends(items: Sequence, n: int, last) -> bool:
    """Whether `items` still holds, at index n - 1, the item last seen there."""
    return len(items) >= n and (n == 0 or items[n - 1] is last)


@dataclass(frozen=True)
class SelectionStep:
    rule_id: str
    gain: int


@dataclass(frozen=True)
class CoverageMatrix:
    rule_ids: tuple[str, ...] = ()
    transition_ids: tuple[str, ...] = ()
    a: tuple[tuple[bool, ...], ...] = ()  # a[i][j]: rule i covers misprediction j

    def to_json(self, trace: Sequence[SelectionStep], limit: int) -> dict:
        """The `coverage.json` document: this matrix plus the greedy trace
        that selected from it."""
        return {
            "rules": list(self.rule_ids),
            "transitions": list(self.transition_ids),
            "matrix": [[1 if cell else 0 for cell in row] for row in self.a],
            "selection": [to_json(step) for step in trace],
            "limit": limit,
        }


@dataclass
class LearnerState(Memoised):
    """Single-owner state threading through learning iterations."""

    rules: RuleSet = field(default_factory=RuleSet)
    kg: KnowledgeGraph = field(default_factory=KnowledgeGraph)
    sg: SceneGraph = field(default_factory=SceneGraph)
    history: list[Transition] = field(default_factory=list)
    mispredictions: list[tuple[Transition, Outcome]] = field(default_factory=list)
    iteration: int = 0
    last_trace: tuple[SelectionStep, ...] = ()
    coverage: CoverageMatrix = field(default_factory=CoverageMatrix)  # kept rules' rows
    validity: ValidityWatermark = field(default_factory=ValidityWatermark)
    _keys = None  # memo of misprediction_keys(): the set, and _extends's count and last pair

    def misprediction_keys(self) -> set[str]:
        """The transition digest of every stored misprediction, kept: a call
        keys only the pairs appended since, or all when the list no longer
        extends the one covered.  A caller that appends a pair may add its
        key."""
        items = self.mispredictions
        keys, n, last = self._keys or (set(), 0, None)
        if not _extends(items, n, last):
            keys, n = set(), 0
        keys.update(t.digest() for t, _ in items[n:])
        self._keys = (keys, len(items), items[-1] if items else None)
        return keys


@dataclass(frozen=True)
class InductionResult:
    new_entries: tuple[RuleEntry, ...]
    invalid_texts: tuple[str, ...]


def _unique_id(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}__{n}" in taken:
        n += 1
    return f"{base}__{n}"


def induce_rules(
    window: Sequence[Transition],
    pool: Sequence[RuleEntry],
    proposer,
    iteration: int,
) -> InductionResult:
    """Ask the proposer for new rules over a window and compile each text
    once.

    Texts that fail to parse are returned tagged-invalid for logging and
    excluded.  A text that equals a pool rule, or one accepted earlier in
    the same batch, in everything but its id is a duplicate and silently
    dropped.  Every new rule gets an id no pool rule holds.
    """
    raw = proposer.propose_rules(window, [e.source for e in pool])
    known = {e.ast.anonymous() for e in pool}
    taken = {e.id for e in pool}
    new: list[RuleEntry] = []
    invalid: list[str] = []
    for text in raw:
        try:
            ast = parse(text)
        except (ParseError, RuleTypeError) as exc:
            log.info("discarding unparseable rule: %s (%s)", text[:60], exc)
            invalid.append(text)
            continue
        anonymous = ast.anonymous()
        if anonymous in known:
            continue
        known.add(anonymous)
        rule_id = _unique_id(ast.id, taken)
        taken.add(rule_id)
        if rule_id != ast.id:
            ast = replace(ast, id=rule_id)
        new.append(RuleEntry(ast=ast, source=text, iteration=iteration))
    return InductionResult(tuple(new), tuple(invalid))


def coverage(
    rule: RuleAst,
    transition: Transition,
    base_prediction: Outcome,
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str],
) -> bool:
    """True iff the rule asserts a bit on the transition and that bit matches
    the real outcome where the base prediction was wrong.  A transition
    whose action does not match the rule's guard is answered without
    evaluating the rule."""
    if base_prediction.success == transition.outcome.success:
        raise ValueError("coverage is defined over mispredicted transitions only")
    if transition.action.name != rule.action_guard:
        return False  # a guard mismatch never activates, so asserts no bit
    verdict = evaluate(
        rule, transition.obs, transition.action, kg, sg, tool_tiers=tool_tiers
    )
    return verdict.asserted == transition.outcome.success


def build_matrix(
    entries: Sequence[RuleEntry],
    mispredictions: Sequence[tuple[Transition, Outcome]],
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str],
    rows: dict[RuleAst, tuple[bool, ...]] | None = None,
    ids: tuple[str, ...] = (),
) -> CoverageMatrix:
    """Each entry's coverage row over the mispredictions, in order.

    `rows` maps a rule's AST to its row over the leading mispredictions;
    only the cells past it are evaluated.  The map is updated in place with
    every entry's full row.  An empty or absent map builds from scratch.
    Only the mispredictions past `ids`, the leading ones' digests, are digested.
    """
    if rows is None:
        rows = {}
    for entry in entries:
        row = rows.get(entry.ast, ())
        rows[entry.ast] = row + tuple(
            coverage(entry.ast, t, predicted, kg, sg, tool_tiers=tool_tiers)
            for t, predicted in mispredictions[len(row):]
        )
    return CoverageMatrix(
        rule_ids=tuple(e.id for e in entries),
        transition_ids=ids + tuple(t.digest() for t, _ in mispredictions[len(ids):]),
        a=tuple(rows[e.ast] for e in entries),
    )


def prune_trace(matrix: CoverageMatrix, limit: int) -> list[SelectionStep]:
    """Greedy maximum-coverage selection.

    Each round picks the rule with the largest marginal gain over the
    not-yet-covered mispredictions (ties broken by lowest rule index), and
    stops when everything is covered, no rule adds anything, or the rule
    budget is reached.
    """
    if limit < 1:
        raise ValueError("rule limit must be >= 1")
    n = len(matrix.transition_ids)
    covered: set[int] = set()
    selected: list[SelectionStep] = []
    remaining = set(range(len(matrix.rule_ids)))
    while len(covered) < n and remaining:
        best_i, best_gain = -1, 0
        for i in sorted(remaining):
            gain = sum(1 for j in range(n) if matrix.a[i][j] and j not in covered)
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_gain == 0:
            break
        selected.append(SelectionStep(matrix.rule_ids[best_i], best_gain))
        covered.update(j for j in range(n) if matrix.a[best_i][j])
        remaining.discard(best_i)
        if len(selected) == limit:
            break
    return selected


def select_rules(
    entries: Sequence[RuleEntry], matrix: CoverageMatrix, limit: int
) -> tuple[tuple[RuleEntry, ...], tuple[SelectionStep, ...], CoverageMatrix]:
    """Apply the greedy pick to `entries`, whose rows `matrix` holds in the
    same order.

    Returns the kept entries in pick order, each with its marginal gain as
    `covered`; the selection trace; and the kept entries' rows, in the same
    order, over the same mispredictions.
    """
    trace = tuple(prune_trace(matrix, limit))
    picked = [matrix.rule_ids.index(step.rule_id) for step in trace]
    kept = tuple(
        RuleEntry(entries[i].ast, entries[i].source, entries[i].iteration, step.gain)
        for i, step in zip(picked, trace)
    )
    rows = CoverageMatrix(
        tuple(step.rule_id for step in trace),
        matrix.transition_ids,
        tuple(matrix.a[i] for i in picked),
    )
    return kept, trace, rows


def drop_invalid(
    rules: RuleSet,
    transitions: Sequence[Transition],
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str],
    watermark: dict[RuleAst, int] | None = None,
) -> RuleSet:
    """Remove every rule that, on any transition where it asserts a success
    bit, asserts the wrong one.  Dormant transitions are excluded, so a rule
    whose condition branch never fires in the data is untouched; a
    transition whose action does not match the rule's guard is skipped
    without evaluating it.

    `watermark` maps a rule's AST to the number of leading transitions it is
    already known to be valid on; only the rest are scanned.  The map is
    updated in place: a kept rule's entry advances to the full length and a
    dropped rule's entry goes.  An empty or absent map checks from scratch.
    """
    if watermark is None:
        watermark = {}
    keep = []
    for entry in rules.entries:
        valid = True
        guard = entry.ast.action_guard
        for t in transitions[watermark.get(entry.ast, 0):]:
            if t.action.name != guard:
                continue  # dormant: a guard mismatch never activates
            verdict = evaluate(entry.ast, t.obs, t.action, kg, sg, tool_tiers=tool_tiers)
            if verdict.asserted is not None and verdict.asserted != t.outcome.success:
                valid = False
                log.info("dropping invalid rule %s (contradicted by a real transition)", entry.id)
                break
        if valid:
            keep.append(entry)
            watermark[entry.ast] = len(transitions)
        else:
            watermark.pop(entry.ast, None)
    return RuleSet(tuple(keep))


@dataclass(frozen=True)
class CoverRate:
    value: float
    defined: bool  # False when the misprediction set was empty


def cover_rate(
    rules: RuleSet,
    mispredictions: Sequence[tuple[Transition, Outcome]],
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str],
) -> CoverRate:
    """Fraction of mispredictions corrected by at least one rule."""
    if not mispredictions:
        return CoverRate(0.0, defined=False)
    hits = 0
    for transition, predicted in mispredictions:
        if any(
            coverage(e.ast, transition, predicted, kg, sg, tool_tiers=tool_tiers)
            for e in rules.entries
        ):
            hits += 1
    return CoverRate(float(Fraction(hits, len(mispredictions))), defined=True)


def ns_learning(
    pred: Trajectory,
    real: Trajectory,
    state: LearnerState,
    proposer,
    config: LearnerConfig,
    *,
    tool_tiers: Sequence[str],
) -> RuleSet:
    """One learning iteration over an aligned (predicted, real) pair.

    Stages: classify, induce and compile (rules and edges, chunked by the
    context window), validate against all real transitions seen so far,
    then prune by greedy maximum coverage over the accumulated misprediction
    set; the kept rules' rows of that coverage matrix stay on
    `state.coverage`.  Graph updates land in the state even if the proposer
    fails midway.

    Validation and coverage are incremental: `state.validity` remembers how
    far each surviving rule was already checked and its coverage row, so a
    call evaluates new rules on the whole history and every misprediction,
    and old rules on the new transitions and mispredictions only (all of
    them again for graph-reading rules once the graphs changed).
    """
    known = state.misprediction_keys()
    for pair in classify_transitions(real, pred):
        key = pair[0].digest()
        if key not in known:
            known.add(key)
            state.mispredictions.append(pair)

    sg = state.sg
    for transition in real.transitions:
        sg = sg_update(sg, transition.obs)
    if real.transitions:
        sg = sg_update(sg, real.transitions[-1].next_obs)
    state.sg = sg

    entries = list(state.rules.entries)
    for start in range(0, len(real.transitions), WINDOW):
        chunk = real.transitions[start : start + WINDOW]
        state.kg = kg_merge(state.kg, kg_induce(chunk, proposer))
        entries += induce_rules(chunk, entries, proposer, state.iteration).new_entries

    state.history.extend(real.transitions)
    pool = RuleSet(tuple(entries))

    if config.prune:
        watermark = state.validity.refresh(
            state.history, state.kg, state.sg, tool_tiers, state.mispredictions
        )
        pool = drop_invalid(
            pool, state.history, state.kg, state.sg,
            tool_tiers=tool_tiers, watermark=watermark,
        )
        matrix = build_matrix(
            pool.entries, state.mispredictions, state.kg, state.sg,
            tool_tiers=tool_tiers, rows=state.validity.rows, ids=state.validity.ids,
        )
        state.validity.ids = matrix.transition_ids
        kept, state.last_trace, state.coverage = select_rules(
            pool.entries, matrix, config.limit
        )
        state.validity.keep_only(kept)
        pool = RuleSet(kept)
    else:
        state.last_trace = ()
        state.coverage = CoverageMatrix()

    state.rules = pool
    state.iteration += 1
    return pool
