import json

import pytest

from worldalign.agent import ExternalBackendPlanner, PlanningContext
from worldalign.backend import CompletionClient, ENV_URL, load_prompt
from worldalign.core import Action, Outcome, Transition
from worldalign.env import make_config
from worldalign.graphs import KnowledgeGraph, SceneGraph
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


def test_backend_proposer_parses_edges_and_skips_non_objects():
    reply = json.dumps([
        {"u": "table", "v": "wood", "label": {"relation": "consumes", "quantity": 2}},
        "noise",
    ])
    proposer = ExternalBackendProposer(FakeClient([reply]),
                                       load_prompt("rule_induction"),
                                       load_prompt("kg_induction"))
    edges = proposer.propose_kg_edges(_window())
    assert len(edges) == 1


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
    action = planner.propose(make_obs(), [], [], PlanningContext(KnowledgeGraph.empty(), SceneGraph()))
    assert action == Action("mine", {"block_name": "tree", "amount": 2})


def test_backend_planner_rejects_nonsense():
    planner = ExternalBackendPlanner(FakeClient(["dance wildly"]), load_prompt("action_proposal"))
    with pytest.raises(BackendUnavailable):
        planner.propose(make_obs(), [], [], PlanningContext(KnowledgeGraph.empty(), SceneGraph()))


def test_noisy_oracle_is_deterministic_per_seed():
    config = make_config("default")
    a = NoisyOracleProposer(config, corruption=0.5, seed=3).propose_rules(_window(), [])
    b = NoisyOracleProposer(config, corruption=0.5, seed=3).propose_rules(_window(), [])
    assert a == b
    c = NoisyOracleProposer(config, corruption=0.5, seed=4).propose_rules(_window(), [])
    assert a != c


def test_oracle_edges_match_wire_format():
    config = make_config("default")
    edges = OracleProposer(config).propose_kg_edges(_window())
    assert all({"u", "v", "label"} <= set(e) for e in edges)


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
