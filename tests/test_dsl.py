import copy
import pickle
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from worldalign.core import Action
from worldalign.dsl import (
    And,
    ArgCmp,
    ArgRef,
    HasToolAtLeast,
    InventoryAtLeast,
    KgSatisfied,
    Lit,
    Membership,
    Not,
    ObsCmp,
    Or,
    ParseError,
    Polarity,
    RuleAst,
    RuleTypeError,
    RuleVerdict,
    SgContains,
    SgUnexplored,
    evaluate,
    evaluate_all,
    parse,
    parse_many,
    pretty_print,
    uses_graphs,
)
from worldalign.dsl.parser import MAX_NESTING, Token, _tokenize
from worldalign.graphs import KgEdge, KnowledgeGraph, SceneGraph, kg_merge, sg_update

from conftest import make_obs

CORPUS = Path(__file__).parent / "data" / "mars_rules.rules"

R6_TEXT = (
    'RULE r6 FOR make: FAIL IF NOT ("table" in near_objects) '
    'FEEDBACK "Action failed: \'table\' is not nearby." '
    'SUGGEST "Move closer to a table"'
)


def kg_with(edges):
    return kg_merge(KnowledgeGraph.empty(), edges)


# -- parsing -------------------------------------------------------------------

def test_parse_r6_shape():
    rule = parse(R6_TEXT)
    assert rule.id == "r6"
    assert rule.action_guard == "make"
    assert rule.polarity is Polarity.FAIL_IF
    assert rule.condition == Not(Membership(Lit("table"), "near_objects"))
    assert rule.suggestion_template == "Move closer to a table"


def test_parse_empty_string_errors_at_1_1():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.line == 1
    assert err.value.col == 1
    assert "RULE" in err.value.expected


def test_parse_error_carries_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse("RULE x FOR make FAIL IF 1 > 2")
    assert err.value.expected == (":",)


def test_unknown_obs_field_is_a_type_error():
    with pytest.raises(RuleTypeError) as err:
        parse('RULE x FOR make: FAIL IF obs.mana > 3')
    assert "mana" in str(err.value)


def test_unknown_action_arg_is_a_type_error():
    with pytest.raises(RuleTypeError):
        parse('RULE x FOR make: FAIL IF action.args[spell] == "fire"')


def test_unknown_guard_is_a_type_error():
    with pytest.raises(RuleTypeError):
        parse('RULE x FOR fly: FAIL IF "table" in near_objects')


def test_string_fields_reject_ordering_comparators():
    with pytest.raises(RuleTypeError):
        parse('RULE x FOR make: FAIL IF obs.position < "grass"')


def test_type_mismatch_rejected():
    with pytest.raises(RuleTypeError):
        parse("RULE x FOR make: FAIL IF obs.position == 3")
    with pytest.raises(RuleTypeError):
        parse('RULE x FOR make: FAIL IF obs.status.health == "low"')


@pytest.mark.parametrize("text,col", [
    ('RULE a FOR "make": FAIL IF obs.position == "x"', 12),
    ('RULE a FOR make: FAIL IF obs."position" == "x"', 30),
    ('RULE a FOR make: FAIL IF obs.status."health" > 2', 37),
    ('RULE a FOR make: FAIL IF action.args["tool_name"] == "y"', 38),
], ids=["guard", "obs_field", "obs_subfield", "args_key"])
def test_a_quoted_name_is_a_parse_error_at_the_string(text, col):
    """The guard, the obs field path and the action.args key are names,
    written bare; a quoted one would give a rule a second spelling."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.expected) == (1, col, ("IDENT",))
    assert parse(text.replace('"make"', "make").replace('"position"', "position")
                 .replace('"health"', "health").replace('"tool_name"', "tool_name"))


def test_parse_many_stanzas_and_comments():
    rules = parse_many(CORPUS.read_text())
    assert len(rules) == 9
    assert len({r.id for r in rules}) == 9


# -- pretty printing -----------------------------------------------------------

atoms = st.one_of(
    st.builds(ObsCmp, st.just(("position",)), st.sampled_from(["==", "!="]),
              st.sampled_from(["grass", "sand"])),
    st.builds(ObsCmp, st.just(("status", "health")),
              st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), st.integers(0, 9)),
    st.builds(Membership,
              st.one_of(st.builds(Lit, st.sampled_from(["table", "iron", "zombie"])),
                        st.builds(ArgRef, st.sampled_from(["block_name", "creature"]))),
              st.sampled_from(["near_objects", "visible_objects"])),
    st.builds(InventoryAtLeast, st.builds(Lit, st.sampled_from(["wood", "stone"])),
              st.integers(0, 5)),
    st.builds(HasToolAtLeast, st.sampled_from(["wood_pickaxe", "stone_pickaxe"])),
    st.builds(KgSatisfied, st.builds(ArgRef, st.just("tool_name"))),
    st.builds(SgContains, st.sampled_from(["grass", "stone"]), st.sampled_from(["table", "iron"])),
    st.builds(SgUnexplored, st.sampled_from(["grass", "water"])),
    st.builds(ArgCmp, st.just("block_name"), st.sampled_from(["==", "!="]),
              st.sampled_from(["plant", "iron"])),
)

expressions = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(lambda parts: And(tuple(parts)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda parts: Or(tuple(parts)), st.lists(children, min_size=2, max_size=3)),
    ),
    max_leaves=8,
)

rule_asts = st.builds(
    RuleAst,
    id=st.sampled_from(["r1", "rule_two", "x9"]),
    action_guard=st.sampled_from(["mine", "make", "place", "sleep"]),
    polarity=st.sampled_from([Polarity.FAIL_IF, Polarity.SUCCEED_ONLY_IF]),
    condition=expressions,
    feedback_template=st.sampled_from(["", "failed: {block_name}", 'quote " inside']),
    suggestion_template=st.sampled_from(["", "gather {missing}"]),
)


@given(rule_asts)
def test_pretty_print_parse_round_trip(rule):
    assert parse(pretty_print(rule)) == rule


@given(rule_asts)
def test_pretty_print_is_stable(rule):
    text = pretty_print(rule)
    assert pretty_print(parse(text)) == text


def _field_tuple(rule):
    return (rule.id, rule.action_guard, rule.polarity, rule.condition,
            rule.feedback_template, rule.suggestion_template)


@given(rule_asts)
def test_rule_hash_and_anonymous_twin_are_memoised_outside_equality_repr_and_pickling(rule):
    """The memoised hash is the dataclass hash of the field tuple, and the
    twin is the rule with an empty id; neither shows in equality, repr or
    pickled state."""
    fresh = replace(rule)
    pickled, shown = pickle.dumps(fresh), repr(fresh)
    assert hash(rule) == hash(_field_tuple(rule))
    assert rule._hash == hash(rule)  # kept
    twin = rule.anonymous()
    assert twin == replace(rule, id="") and rule.anonymous() is twin
    assert (pickle.dumps(rule), repr(rule), rule) == (pickled, shown, fresh)
    for copied in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
        assert copied == rule
        assert copied._hash is None and copied._anonymous is None


def test_corpus_round_trips():
    for rule in parse_many(CORPUS.read_text()):
        assert parse(pretty_print(rule)) == rule


@given(expressions, st.integers(0, 2 ** 12 - 1))
def test_printed_expression_preserves_truth_tables(expr, assignment_seed):
    # Independent oracle: evaluate original and reparsed trees on a random
    # boolean assignment of their atoms via a stub evaluator.
    rule = RuleAst("t", "mine", Polarity.FAIL_IF, expr)
    reparsed = parse(pretty_print(rule)).condition

    rng = random.Random(assignment_seed)
    truth: dict[str, bool] = {}

    def eval_with_stub(node):
        if isinstance(node, Not):
            return not eval_with_stub(node.expr)
        if isinstance(node, And):
            return all(eval_with_stub(p) for p in node.parts)
        if isinstance(node, Or):
            return any(eval_with_stub(p) for p in node.parts)
        key = repr(node)
        if key not in truth:
            truth[key] = rng.random() < 0.5
        return truth[key]

    assert eval_with_stub(expr) == eval_with_stub(reparsed)


# -- lexing and totality ------------------------------------------------------

_REFERENCE_PUNCT = ("==", "!=", "<=", ">=", "<", ">", "(", ")", "[", "]", ":", ",", ".")


def _reference_tokenize(source):
    """The character loop the one-pattern lexer replaced, kept as its
    reference."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    buf.append(source[i + 1])
                    i += 2
                    col += 2
                elif source[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                else:
                    buf.append(source[i])
                    i += 1
                    col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(Token("STRING", "".join(buf), start_line, start_col))
            continue
        matched = False
        for punct in _REFERENCE_PUNCT:
            if source.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                i += len(punct)
                col += len(punct)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            start_col = col
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("INT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# The grammar's characters, and some that only look like them: "²" passes
# isdigit() but is no decimal digit, "½" is numeric, "٣" is a decimal digit,
# "é" a letter, "\xa0" a space to isspace() only.
LEXER_ALPHABET = 'aZ_x9-0=!<>()[]:,. \t\r\n"\\²½٣é\xa0'
# Rules drawn from the grammar, whole, cut off, or with a piece of the
# alphabet put in, so that drawn texts reach the parser's deeper states and
# some of them parse.
HEADS = ["RULE r FOR make: FAIL IF ", "RULE in FOR mine: SUCCEED ONLY IF "]
ATOMS = [
    '"table" in near_objects', "action.args[block_name] in visible_objects",
    'inventory["wood"] >= 3', "obs.status.health < -2", 'obs.position == "gr\\"ass"',
    'has_tool_at_least("wood_pickaxe")', "kg_requires(action.args[tool_name]) satisfied_by inventory",
    'sg_contains("grass", "tree")', 'sg_unexplored("stone")', "obs.status.food > ٣",
]
TAILS = ["", ' FEEDBACK "no {block_name}"', ' SUGGEST "a\\\nb"', ' FEEDBACK "x\\\\" SUGGEST ""']
conditions = st.recursive(st.sampled_from(ATOMS), lambda inner: st.one_of(
    inner.map("NOT {}".format),
    inner.map("({})".format),
    st.tuples(inner, st.sampled_from([" AND ", " OR "]), inner).map("".join),
), max_leaves=6)
rules = st.tuples(st.sampled_from(HEADS), conditions, st.sampled_from(TAILS)).map("".join)
texts = st.one_of(
    st.text(LEXER_ALPHABET),
    rules,
    st.tuples(rules, st.integers(0, 300)).map(lambda cut: cut[0][:cut[1]]),
    st.tuples(rules, st.integers(0, 300), st.text(LEXER_ALPHABET, min_size=1, max_size=3))
    .map(lambda put: put[0][:put[1]] + put[2] + put[0][put[1]:]),
)


def _lexed(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


@settings(max_examples=400)
@given(texts)
@example('RULE a FOR mine: FAIL IF inventory["x"] >= ²')
@example('"a\\\nb" x')  # an escaped newline: the column moves on, the line does not
@example('x "never closed\n"')  # reported at its opening quote
@example("-1 - 1 -x")  # "-" is only ever the sign of an integer
def test_lexer_matches_the_character_loop_it_replaced(text):
    new, old = _lexed(_tokenize, text), _lexed(_reference_tokenize, text)
    if new != old:
        # Only a digit that int() cannot read lexes differently: it was an
        # INT token, and is now an unexpected character.
        assert any(ch.isdigit() and not ch.isdecimal() for ch in text)
        assert new[0] == "ParseError" and "unexpected character" in new[1]


def test_a_non_decimal_digit_is_an_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse('RULE a FOR mine: FAIL IF inventory["x"] >= ²')
    assert (err.value.col, str(err.value)) == (44, "1:44: unexpected character '²'")


@settings(max_examples=400)
@given(st.one_of(texts, st.text()))
def test_parse_is_total(text):
    """Any text parses, or raises ParseError or RuleTypeError; what parses
    hashes, and prints to a text that parses back to it."""
    try:
        rule = parse(text)
    except (ParseError, RuleTypeError):
        return
    hash(rule)
    assert parse(pretty_print(rule)) == rule


@pytest.mark.parametrize("text,error", [
    ("RULE a FOR mine: FAIL IF obs.", RuleTypeError),
    ("RULE a FOR mine: FAIL IF action.args[", ParseError),
    ("RULE a FOR mine: FAIL IF obs.status.health > " + "1" * 5000, ParseError),
    ("RULE a FOR mine: FAIL IF " + "(" * 400, ParseError),
    ("RULE a FOR mine: FAIL IF " + "NOT " * 500 + '"x" in near_objects', ParseError),
], ids=["cut_after_dot", "cut_in_brackets", "long_integer", "deep_parens", "deep_nots"])
def test_malformed_text_is_a_parse_or_type_error(text, error):
    with pytest.raises(error):
        parse(text)


def test_nesting_is_bounded_at_the_token_that_crosses_the_limit():
    atom = '"x" in near_objects'
    deepest = "NOT (" * (MAX_NESTING // 2) + atom + ")" * (MAX_NESTING // 2)
    assert parse(f"RULE a FOR mine: FAIL IF {deepest}").id == "a"
    text = f"RULE a FOR mine: FAIL IF NOT {deepest}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.col == text.index(atom)  # the last "(", just before the atom


# -- evaluation ----------------------------------------------------------------

def test_r6_with_table_near_activates_and_passes():
    rule = parse(R6_TEXT)
    obs = make_obs(near=("table",))
    verdict = evaluate(rule, obs, Action("make", {"tool_name": "wood_pickaxe"}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert verdict.activated and verdict.flag


def test_guard_mismatch_counts_as_success():
    rule = parse(R6_TEXT)
    obs = make_obs()
    verdict = evaluate(rule, obs, Action("mine", {"block_name": "tree", "amount": 1}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert verdict == RuleVerdict(activated=False, flag=True)


def test_r6_without_table_fails_with_suggestion():
    rule = parse(R6_TEXT)
    obs = make_obs(near=("grass",))
    verdict = evaluate(rule, obs, Action("make", {"tool_name": "wood_pickaxe"}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert verdict.activated and not verdict.flag
    assert verdict.suggestion == "Move closer to a table"


def test_mine_plant_rule_always_fails_with_suggestion():
    rules = {r.id: r for r in parse_many(CORPUS.read_text())}
    rule = rules["corpus_mine_plant"]
    obs = make_obs(near=("plant",))
    verdict = evaluate(rule, obs, Action("mine", {"block_name": "plant", "amount": 1}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert verdict.activated and not verdict.flag
    assert verdict.suggestion != ""


def test_template_placeholders_resolve_from_kg():
    rule = parse(
        "RULE m FOR make: FAIL IF NOT (kg_requires(action.args[tool_name]) satisfied_by inventory) "
        'SUGGEST "To craft a {tool_name}, you need: {missing}."'
    )
    kg = kg_with([KgEdge("iron_pickaxe", "iron", "consumes", 2),
                  KgEdge("iron_pickaxe", "furnace", "requires", None)])
    obs = make_obs(near=("grass",), inventory={"iron": 1})
    verdict = evaluate(rule, obs, Action("make", {"tool_name": "iron_pickaxe"}), kg, SceneGraph())
    assert not verdict.flag
    assert "iron: 1 more needed" in verdict.suggestion
    assert "furnace: must be nearby" in verdict.suggestion


def test_unresolvable_sg_atom_deactivates_with_diagnostic():
    # The deactivated verdict is the whole diagnostic: evaluate keeps no counter.
    rule = parse('RULE s FOR explore: FAIL IF sg_unexplored("cave")')
    verdict = evaluate(rule, make_obs(), Action("explore", {"direction": "north", "steps": 1}),
                       KnowledgeGraph.empty(), SceneGraph.initial(["grass"]))
    assert verdict == RuleVerdict(activated=False, flag=True)


def test_unresolvable_counts_are_keyed_by_rule_id():
    # Unresolvable rules drop out of the joint verdict by id, the same on every call.
    cave = parse('RULE s FOR explore: FAIL IF sg_unexplored("cave")')
    laser = parse('RULE t FOR explore: FAIL IF has_tool_at_least("laser_pickaxe")')
    grass = parse('RULE u FOR explore: FAIL IF sg_unexplored("grass")')
    action = Action("explore", {"direction": "north", "steps": 1})
    sg = SceneGraph.initial(["grass"])
    for rule in (cave, laser):
        assert evaluate(rule, make_obs(), action, KnowledgeGraph.empty(), sg) == \
            RuleVerdict(activated=False, flag=True)
    joints = {evaluate_all([cave, laser, grass], make_obs(), action,
                           KnowledgeGraph.empty(), sg) for _ in range(50)}
    assert len(joints) == 1
    (joint,) = joints
    assert joint.activated_ids == ("u",)


@pytest.mark.parametrize("text, reads", [
    ('RULE a FOR mine: FAIL IF NOT (action.args[block_name] in near_objects)', False),
    ('RULE b FOR mine: FAIL IF NOT has_tool_at_least("wood_pickaxe")', False),
    ('RULE c FOR make: FAIL IF NOT kg_requires(action.args[tool_name]) satisfied_by inventory',
     True),
    ('RULE d FOR mine: FAIL IF obs.position == "sand" AND sg_contains("grass", "cow")', True),
    ('RULE e FOR explore: FAIL IF NOT (obs.in_front == "water" OR NOT sg_unexplored("sand"))',
     True),
])
def test_uses_graphs_finds_graph_atoms_at_any_depth(text, reads):
    assert uses_graphs(parse(text)) is reads


def test_unknown_tool_tier_deactivates():
    rule = parse('RULE t FOR mine: FAIL IF NOT has_tool_at_least("laser_pickaxe")')
    verdict = evaluate(rule, make_obs(), Action("mine", {"block_name": "iron", "amount": 1}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert not verdict.activated and verdict.flag


def test_missing_action_arg_deactivates():
    rule = parse('RULE a FOR sleep: FAIL IF action.args[block_name] == "x"')
    verdict = evaluate(rule, make_obs(), Action("sleep", {}),
                       KnowledgeGraph.empty(), SceneGraph())
    assert not verdict.activated and verdict.flag


def test_sg_atoms_resolve_against_scene_graph():
    sg = SceneGraph.initial(["grass", "stone"])
    sg = sg_update(sg, make_obs(position="grass", visible=(("table", 1, 0),), near=("table",)))
    contains = parse('RULE c FOR explore: FAIL IF sg_contains("grass", "table")')
    unexplored = parse('RULE u FOR explore: FAIL IF sg_unexplored("stone")')
    action = Action("explore", {"direction": "north", "steps": 1})
    assert not evaluate(contains, make_obs(), action, KnowledgeGraph.empty(), sg).flag
    assert not evaluate(unexplored, make_obs(), action, KnowledgeGraph.empty(), sg).flag


def test_evaluate_is_pure():
    rule = parse(R6_TEXT)
    obs = make_obs(near=("grass",))
    action = Action("make", {"tool_name": "wood_pickaxe"})
    kg, sg = KnowledgeGraph.empty(), SceneGraph()
    first = evaluate(rule, obs, action, kg, sg)
    for _ in range(3):
        assert evaluate(rule, obs, action, kg, sg) == first


@given(rule_asts)
def test_guard_totality(rule):
    # Any rule whose guard differs from the action yields flag=True.
    action = Action("explore", {"direction": "north", "steps": 1})
    if rule.action_guard == "explore":
        action = Action("sleep", {})
    verdict = evaluate(rule, make_obs(), action, KnowledgeGraph.empty(), SceneGraph())
    assert verdict.flag and not verdict.activated


def test_failure_dominates_in_joint_verdict():
    pass_rule = parse('RULE a_pass FOR make: FAIL IF obs.position == "lava"')
    fail_rule = parse('RULE b_fail FOR make: FAIL IF obs.position == "grass" '
                      'FEEDBACK "bad spot" SUGGEST "move"')
    joint = evaluate_all([fail_rule, pass_rule], make_obs(),
                         Action("make", {"tool_name": "wood_pickaxe"}),
                         KnowledgeGraph.empty(), SceneGraph())
    assert joint.activated_ids and joint.failing_ids
    assert joint.failing_ids == ("b_fail",)
    assert joint.feedback == "bad spot"


def test_joint_strings_concatenate_in_rule_id_order():
    r_late = parse('RULE zz FOR make: FAIL IF obs.position == "grass" FEEDBACK "second"')
    r_early = parse('RULE aa FOR make: FAIL IF obs.position == "grass" FEEDBACK "first"')
    joint = evaluate_all([r_late, r_early], make_obs(),
                         Action("make", {"tool_name": "wood_pickaxe"}),
                         KnowledgeGraph.empty(), SceneGraph())
    assert joint.feedback == "first second"
