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

from .core import Outcome, Trajectory, Transition, classify_transitions
from .dsl import (
    EvalDiagnostics,
    ParseError,
    Polarity,
    RuleAst,
    RuleTypeError,
    evaluate,
    parse,
    pretty_print,
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

    def canonical(self) -> str:
        return pretty_print(self.ast)


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
        entries = []
        for item in data:
            ast = parse(item["source"])
            stored_id = str(item.get("id", ast.id))
            if stored_id != ast.id:
                # ids may have been uniquified after a collision; the stored
                # id wins so reloaded sets keep their identities
                ast = replace(ast, id=stored_id)
            entries.append(
                RuleEntry(
                    ast=ast,
                    source=item["source"],
                    iteration=int(item.get("iteration_learned", 0)),
                    covered=int(item.get("covered_count", 0)),
                )
            )
        return RuleSet(tuple(entries))


@dataclass(frozen=True)
class LearnerConfig:
    window: int = 20  # transitions per induction chunk
    limit: int = 6  # rule budget after pruning
    prune: bool = True  # False = ablation arm: skip validity drop and pruning


@dataclass
class ValidityWatermark:
    """What the last validity check already proved, so the next one scans
    only new work.

    `upto[ast]` is the number of leading history transitions the rule is
    known to assert no wrong bit on.  The key is the whole AST, so a rule
    id reused for another text misses.  Those verdicts hold only for the
    graphs and tool tiers they were computed under and for the history they
    were computed on; `refresh` forgets whatever the current inputs no
    longer vouch for.
    """

    upto: dict[RuleAst, int] = field(default_factory=dict)
    graphs: tuple[KnowledgeGraph, SceneGraph] | None = None
    tool_tiers: tuple[str, ...] | None = None
    checked: int = 0  # history length at the last check
    last: Transition | None = None  # history[checked - 1] at the last check

    def refresh(
        self,
        history: Sequence[Transition],
        kg: KnowledgeGraph,
        sg: SceneGraph,
        tool_tiers: Sequence[str],
    ) -> dict[RuleAst, int]:
        """Drop the entries the inputs invalidate and return the map.

        Every entry goes when the tool tiers change or the history is not
        an extension of the one last checked (its last checked transition is
        no longer in place); only the graph-reading rules' entries go when
        the graphs' content changed.  Graphs are compared by value; an
        unchanged scene graph is the same instance, which compares at once.
        """
        tool_tiers = tuple(tool_tiers)
        n = self.checked
        extended = len(history) >= n and (n == 0 or history[n - 1] is self.last)
        if not extended or tool_tiers != self.tool_tiers:
            self.upto.clear()
        elif (kg, sg) != self.graphs:
            for ast in [a for a in self.upto if uses_graphs(a)]:
                del self.upto[ast]
        self.graphs = (kg, sg)
        self.tool_tiers = tool_tiers
        self.checked = len(history)
        self.last = history[-1] if history else None
        return self.upto

    def keep_only(self, entries: Sequence["RuleEntry"]) -> None:
        self.upto = {e.ast: self.upto[e.ast] for e in entries if e.ast in self.upto}


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
            "selection": [{"rule_id": s.rule_id, "gain": s.gain} for s in trace],
            "limit": limit,
        }


def misprediction_key(transition: Transition, predicted: Outcome) -> str:
    return transition.digest() + str(predicted.success)


@dataclass
class LearnerState:
    """Single-owner state threading through learning iterations."""

    rules: RuleSet = field(default_factory=RuleSet)
    kg: KnowledgeGraph = field(default_factory=KnowledgeGraph)
    sg: SceneGraph = field(default_factory=SceneGraph)
    history: list[Transition] = field(default_factory=list)
    mispredictions: list[tuple[Transition, Outcome]] = field(default_factory=list)
    iteration: int = 0
    last_trace: tuple[SelectionStep, ...] = ()
    coverage: CoverageMatrix = field(default_factory=CoverageMatrix)  # kept rules' rows
    diagnostics: EvalDiagnostics = field(default_factory=EvalDiagnostics)
    validity: ValidityWatermark = field(default_factory=ValidityWatermark)

    def misprediction_keys(self) -> set[str]:
        return {misprediction_key(t, p) for t, p in self.mispredictions}


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
    known = {replace(e.ast, id="") for e in pool}
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
        anonymous = replace(ast, id="")
        if anonymous in known:
            continue
        known.add(anonymous)
        rule_id = _unique_id(ast.id, taken)
        taken.add(rule_id)
        if rule_id != ast.id:
            ast = replace(ast, id=rule_id)
        new.append(RuleEntry(ast=ast, source=text, iteration=iteration))
    return InductionResult(tuple(new), tuple(invalid))


def asserted_bit(rule: RuleAst, verdict) -> bool | None:
    """The success bit a rule actively claims for a transition, or None when
    the rule is dormant there.

    A fail-if rule asserts failure only when its condition branch fires;
    otherwise its output is null.  A succeed-only-if rule models its action
    completely and asserts a bit whenever it activates.
    """
    if not verdict.activated:
        return None
    if rule.polarity is Polarity.FAIL_IF:
        return False if not verdict.flag else None
    return verdict.flag


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
    the real outcome where the base prediction was wrong."""
    if base_prediction.success == transition.outcome.success:
        raise ValueError("coverage is defined over mispredicted transitions only")
    verdict = evaluate(
        rule, transition.obs, transition.action, kg, sg, tool_tiers=tool_tiers
    )
    return asserted_bit(rule, verdict) == transition.outcome.success


def build_matrix(
    entries: Sequence[RuleEntry],
    mispredictions: Sequence[tuple[Transition, Outcome]],
    kg: KnowledgeGraph,
    sg: SceneGraph,
    *,
    tool_tiers: Sequence[str],
) -> CoverageMatrix:
    rows = []
    for entry in entries:
        rows.append(
            tuple(
                coverage(entry.ast, t, predicted, kg, sg, tool_tiers=tool_tiers)
                for t, predicted in mispredictions
            )
        )
    return CoverageMatrix(
        rule_ids=tuple(e.id for e in entries),
        transition_ids=tuple(t.digest() for t, _ in mispredictions),
        a=tuple(rows),
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
        replace(entries[i], covered=step.gain) for i, step in zip(picked, trace)
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
    whose condition branch never fires in the data is untouched.

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
        for t in transitions[watermark.get(entry.ast, 0):]:
            verdict = evaluate(entry.ast, t.obs, t.action, kg, sg, tool_tiers=tool_tiers)
            asserted = asserted_bit(entry.ast, verdict)
            if asserted is not None and asserted != t.outcome.success:
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

    Validation is incremental: `state.validity` remembers how far each
    surviving rule was already checked, so a call checks new rules against
    the whole history and old rules against the new transitions only (all
    of it again for graph-reading rules once the graphs changed).
    """
    known = state.misprediction_keys()
    for pair in classify_transitions(real, pred):
        key = misprediction_key(*pair)
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
    step = config.window
    for start in range(0, len(real.transitions), step):
        chunk = real.transitions[start : start + step]
        state.kg = kg_merge(state.kg, kg_induce(chunk, proposer).edges)
        entries += induce_rules(chunk, entries, proposer, state.iteration).new_entries

    state.history.extend(real.transitions)
    pool = RuleSet(tuple(entries))

    if config.prune:
        watermark = state.validity.refresh(state.history, state.kg, state.sg, tool_tiers)
        pool = drop_invalid(
            pool, state.history, state.kg, state.sg,
            tool_tiers=tool_tiers, watermark=watermark,
        )
        matrix = build_matrix(
            pool.entries, state.mispredictions, state.kg, state.sg, tool_tiers=tool_tiers
        )
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
