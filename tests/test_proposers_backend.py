import json
import logging
import random

import pytest

from worldalign.agent import ExternalBackendPlanner
from worldalign.backend import CompletionClient, ENV_URL, load_prompt
from worldalign.core import Action, Outcome, Transition
from worldalign.env import CONFIG_IDS, kg_edges_for_config, make_config
from worldalign.graphs import KgEdge, KnowledgeGraph
from worldalign.proposers import (
    ExternalBackendProposer,
    NoisyOracleProposer,
    OracleProposer,
)
from worldalign.world_model import BackendUnavailable

from conftest import make_obs


class FakeClient:
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.replies:
            raise BackendUnavailable("no more replies")
        return self.replies.pop(0)


def _window():
    obs = make_obs()
    return [Transition(obs, Action("make", {"tool_name": "wood_pickaxe"}),
                       Outcome(False, "nope"), obs)]


def test_prompts_ship_with_package():
    for name in ("rule_induction", "kg_induction", "action_proposal", "outcome_prediction"):
        text = load_prompt(name)
        assert "{" in text  # has placeholders


def test_backend_proposer_parses_rule_reply():
    reply = json.dumps({"new_rules": ['RULE x FOR make: FAIL IF NOT ("table" in near_objects)']})
    proposer = ExternalBackendProposer(FakeClient([reply]),
                                       load_prompt("rule_induction"),
                                       load_prompt("kg_induction"))
    rules = proposer.propose_rules(_window(), [])
    assert len(rules) == 1


def test_backend_proposer_rejects_malformed_shapes():
    proposer = ExternalBackendProposer(FakeClient(['{"rules": 3}']),
                                       load_prompt("rule_induction"),
                                       load_prompt("kg_induction"))
    with pytest.raises(BackendUnavailable):
        proposer.propose_rules(_window(), [])


def _edge_proposer(entries):
    return ExternalBackendProposer(FakeClient([json.dumps(entries)]),
                                   load_prompt("rule_induction"),
                                   load_prompt("kg_induction"))


def test_backend_proposer_parses_edges_and_skips_non_objects():
    reply = [
        {"u": "table", "v": "wood", "label": {"relation": "consumes", "quantity": 2}},
        "noise",
    ]
    edges = _edge_proposer(reply).propose_kg_edges(_window())
    assert edges == [KgEdge("table", "wood", "consumes", 2)]


def test_backend_proposer_accepts_quoted_quantity():
    reply = [{"u": "table", "v": "wood", "label": {"relation": "consumes", "quantity": "2"}}]
    edges = _edge_proposer(reply).propose_kg_edges(_window())
    assert edges == [KgEdge("table", "wood", "consumes", 2)]


def test_backend_proposer_drops_malformed_edges_one_by_one(caplog):
    reply = [
        {"u": "table", "v": "wood", "label": {"relation": "consumes", "quantity": 2}},
        {"u": "table", "v": "wood", "label": {"relation": "devours", "quantity": 1}},
        {"oops": True},
        {"u": "a", "v": "b", "label": {"relation": "requires", "quantity": 0}},
    ]
    with caplog.at_level(logging.INFO, logger="worldalign.proposers"):
        edges = _edge_proposer(reply).propose_kg_edges(_window())
    assert edges == [KgEdge("table", "wood", "consumes", 2)]
    assert "dropped 3 malformed entries" in caplog.text


def test_backend_unavailability_propagates_from_proposer():
    proposer = ExternalBackendProposer(FakeClient([]),
                                       load_prompt("rule_induction"),
                                       load_prompt("kg_induction"))
    with pytest.raises(BackendUnavailable):
        proposer.propose_rules(_window(), [])


def test_backend_planner_parses_action_call():
    planner = ExternalBackendPlanner(
        FakeClient(['mine(block_name="tree", amount=2)']), load_prompt("action_proposal")
    )
    action = planner.propose(make_obs(), [], [], KnowledgeGraph.empty())
    assert action == Action("mine", {"block_name": "tree", "amount": 2})


def test_backend_planner_rejects_nonsense():
    # A blank reply has no last line; "²" is a digit but not a decimal.
    for reply in ("dance wildly", "  \n ", "mine(block_name=tree, amount=²)"):
        planner = ExternalBackendPlanner(FakeClient([reply]), load_prompt("action_proposal"))
        with pytest.raises(BackendUnavailable):
            planner.propose(make_obs(), [], [], KnowledgeGraph.empty())


def test_noisy_oracle_is_deterministic_per_seed():
    config = make_config("default")
    a = NoisyOracleProposer(config, corruption=0.5, seed=3).propose_rules(_window(), [])
    b = NoisyOracleProposer(config, corruption=0.5, seed=3).propose_rules(_window(), [])
    assert a == b
    c = NoisyOracleProposer(config, corruption=0.5, seed=4).propose_rules(_window(), [])
    assert a != c


def test_oracle_edges_are_the_configs_kg_edges():
    config = make_config("default")
    edges = OracleProposer(config).propose_kg_edges(_window())
    assert edges == kg_edges_for_config(config)
    assert all(type(edge) is KgEdge for edge in edges)


def _wire_noisy_edges(config, corruption, seed, calls):
    """The noisy seat's edges as they were computed on the wire format: the
    oracle's edges as dicts, copied per call, a quantity bumped in place
    with one draw per edge, then parsed by `KgEdge.from_json`.  Returns the
    edges of each call and the generator, for its final state."""
    rng = random.Random(f"{seed}:noisy-proposer")
    wire = [edge.to_json() for edge in kg_edges_for_config(config)]
    replies = []
    for _ in range(calls):
        edges = [dict(e, label=dict(e["label"])) for e in wire]
        for edge in edges:
            if rng.random() < corruption / 3:
                quantity = edge["label"].get("quantity")
                if quantity is not None:
                    edge["label"]["quantity"] = quantity + 1
        replies.append([KgEdge.from_json(edge) for edge in edges])
    return replies, rng


@pytest.mark.parametrize("corruption", [0, 0.3, 1])
@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_noisy_edges_match_the_wire_format_reference(config_id, corruption):
    config = make_config(config_id)
    for seed in (0, 1, 7, 42):
        proposer = NoisyOracleProposer(config, corruption=corruption, seed=seed)
        expected, rng = _wire_noisy_edges(config, corruption, seed, calls=5)
        assert [proposer.propose_kg_edges(_window()) for _ in range(5)] == expected
        assert proposer._rng.getstate() == rng.getstate()


# -- completion client ---------------------------------------------------------

def test_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv(ENV_URL, raising=False)
    with pytest.raises(BackendUnavailable):
        CompletionClient()


def test_client_single_retry_on_malformed(monkeypatch):
    calls = []

    def fake_post(self, prompt):
        calls.append(prompt)
        if len(calls) == 1:
            return {"oops": True}
        return {"completion": "SUCCESS: fine"}

    monkeypatch.setattr(CompletionClient, "_post", fake_post)
    client = CompletionClient(url="http://backend.test/complete")
    assert client.complete("hello") == "SUCCESS: fine"
    assert len(calls) == 2


def test_client_gives_up_after_retry(monkeypatch):
    monkeypatch.setattr(CompletionClient, "_post", lambda self, prompt: {})
    client = CompletionClient(url="http://backend.test/complete")
    with pytest.raises(BackendUnavailable):
        client.complete("hello")


def test_client_reads_env_vars(monkeypatch):
    monkeypatch.setenv(ENV_URL, "http://from-env.test")
    client = CompletionClient()
    assert client.url == "http://from-env.test"
