import json

import pytest

from worldalign.artifacts import SchemaError, inspect_path
from worldalign.cli import main

FAST = ["--config", "default", "--seed", "1"]


def run_cli(args):
    return main([str(a) for a in args])


def test_simulate_writes_rows_per_trial_and_iteration(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(["simulate", *FAST, "--trials", "2", "--iterations", "2", "--out", out])
    assert code == 0
    rows = json.loads((out / "rows.json").read_text())
    assert len(rows) == 4  # trials x iterations
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["trials"] == 2
    for trial in range(2):
        for iteration in range(2):
            base = out / f"trial_{trial:02d}" / f"iter_{iteration:02d}"
            for name in ("trajectory.ndjson", "metrics.json", "rules.json",
                         "kg.json", "sg.json", "coverage.json"):
                assert (base / name).exists(), name


def test_simulate_missing_config_fails_before_running(tmp_path, capsys):
    code = run_cli(["simulate", "--config", "atlantis", "--out", tmp_path / "x"])
    assert code == 2
    assert "unknown config" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_bad_counts(tmp_path):
    assert run_cli(["simulate", *FAST, "--trials", "0", "--out", tmp_path / "x"]) == 2
    assert run_cli(["simulate", *FAST, "--rule-limit", "0", "--out", tmp_path / "x"]) == 2


def test_simulate_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(["simulate", *FAST, "--iterations", "2", "--out", out]) == 0
    for rel in ("rows.json", "summary.json", "trial_00/iter_01/trajectory.ndjson",
                "trial_00/iter_01/rules.json"):
        a = (out_a / rel).read_bytes()
        b = (out_b / rel).read_bytes()
        assert a == b, rel


def test_every_artifact_is_inspectable(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli(["simulate", *FAST, "--iterations", "2", "--out", out])
    capsys.readouterr()
    artifacts = [p for p in out.rglob("*") if p.is_file()]
    assert len(artifacts) > 10
    for artifact in artifacts:
        assert run_cli(["inspect", artifact]) == 0, artifact
    assert capsys.readouterr().out


def test_inspect_rules_shows_one_stanza_per_rule(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli(["simulate", *FAST, "--iterations", "2", "--out", out])
    capsys.readouterr()
    rules_file = out / "trial_00" / "iter_01" / "rules.json"
    run_cli(["inspect", rules_file])
    text = capsys.readouterr().out
    rules = json.loads(rules_file.read_text())
    assert text.count("rule ") >= len(rules)


def test_inspect_coverage_shows_gain_trace(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli(["simulate", *FAST, "--iterations", "2", "--out", out])
    capsys.readouterr()
    run_cli(["inspect", out / "trial_00" / "iter_01" / "coverage.json"])
    text = capsys.readouterr().out
    assert "gain" in text


def test_inspect_corrupt_file_names_offending_field(tmp_path, capsys):
    bad = tmp_path / "coverage.json"
    bad.write_text(json.dumps({"matrix": [[1]], "rules": ["r1"]}))
    assert run_cli(["inspect", bad]) == 2
    err = capsys.readouterr().err
    assert "transitions" in err


def test_inspect_unknown_schema_errors(tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"zap": 1}))
    with pytest.raises(SchemaError):
        inspect_path(weird)


def test_coverage_curve_command(tmp_path, capsys):
    out = tmp_path / "curve"
    assert run_cli(["coverage-curve", *FAST, "--iterations", "3", "--out", out]) == 0
    curve = json.loads((out / "curve.json").read_text())
    assert curve["series"][0] == 0.0
    assert len(curve["series"]) == 4


def test_ablate_limit_single_column(tmp_path):
    out = tmp_path / "abl"
    code = run_cli([
        "ablate-limit", "--config", "default", "--seed", "1", "--trials", "1",
        "--iterations", "1", "--limits", "6", "--out", out,
    ])
    assert code == 0
    table = json.loads((out / "ablation.json").read_text())
    assert set(table["arms"]) == {"l=6", "no_pruning"}


def test_ablate_limit_worker_pool_writes_identical_table(tmp_path):
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli([
            "ablate-limit", *FAST, "--limits", "3", "--trials", "2", "--iterations", "1",
            "--workers", workers, "--out", out,
        ]) == 0
        outs.append((out / "ablation.json").read_bytes())
    assert outs[0] == outs[1]


def test_ablate_limit_zero_rejected(tmp_path):
    assert run_cli(["ablate-limit", *FAST, "--limits", "0", "--out", tmp_path / "x"]) == 2


def test_prune_subcommand_offline(tmp_path, capsys):
    from worldalign.core import Action, Outcome, Transition, dumps_canonical
    from conftest import make_obs

    rules = [
        {"id": "near_table", "source":
            'RULE near_table FOR make: FAIL IF NOT ("table" in near_objects)'},
        {"id": "dead_rule", "source":
            'RULE dead_rule FOR mine: FAIL IF action.args[block_name] == "plant"'},
    ]
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(rules))

    obs = make_obs()
    lines = []
    for _ in range(3):
        record = Transition(
            obs, Action("make", {"tool_name": "wood_pickaxe"}), Outcome(False, "no"), obs
        ).to_json()
        record["predicted"] = Outcome(True, "sure").to_json()
        lines.append(dumps_canonical(record))
    transitions_path = tmp_path / "mispredictions.ndjson"
    transitions_path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "pruned"
    code = run_cli(["prune", "--rules", rules_path, "--transitions", transitions_path,
                    "--limit", "2", "--out", out])
    assert code == 0
    survivors = json.loads((out / "rules.json").read_text())
    assert [r["id"] for r in survivors] == ["near_table"]
    trace = json.loads((out / "coverage.json").read_text())["selection"]
    assert trace == [{"rule_id": "near_table", "gain": 3}]


def test_prune_rejects_records_without_prediction(tmp_path, capsys):
    from worldalign.core import Action, Outcome, Transition, dumps_canonical
    from conftest import make_obs

    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([]))
    obs = make_obs()
    record = Transition(obs, Action("sleep", {}), Outcome(True), obs).to_json()
    transitions_path = tmp_path / "t.ndjson"
    transitions_path.write_text(dumps_canonical(record) + "\n")
    code = run_cli(["prune", "--rules", rules_path, "--transitions", transitions_path,
                    "--out", tmp_path / "out"])
    assert code == 2
    assert "predicted" in capsys.readouterr().err


def test_simulate_with_worker_pool_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    run_cli(["simulate", *FAST, "--trials", "2", "--iterations", "1", "--out", seq])
    run_cli(["simulate", *FAST, "--trials", "2", "--iterations", "1",
             "--workers", "2", "--out", par])
    assert (seq / "rows.json").read_bytes() == (par / "rows.json").read_bytes()


def test_trial_pool_workers_log_at_parent_level(capfd):
    import logging

    from worldalign.experiments import run_trials

    root = logging.getLogger()
    level = root.level
    root.setLevel(logging.INFO)
    try:
        run_trials(logging.getLogger("worldalign.pool").info, [("worker says %s", "hi")], 2)
    finally:
        root.setLevel(level)
    assert "INFO worldalign.pool: worker says hi" in capfd.readouterr().err


def test_backend_predictor_without_endpoint_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("WORLDALIGN_BACKEND_URL", raising=False)
    code = run_cli(["simulate", *FAST, "--predictor", "backend", "--out", tmp_path / "x"])
    assert code == 2
    assert "backend" in capsys.readouterr().err.lower()


# Flags each command does not read; argparse must reject them.
UNREAD_FLAGS = [
    *(("ablate-limit", flag, value) for flag, value in (
        ("--rule-limit", "3"), ("--cadence", "step"), ("--proposer", "noisy"),
        ("--predictor", "naive"), ("--planner", "scripted"), ("--target", "none"),
    )),
    *(("coverage-curve", flag, value) for flag, value in (
        ("--trials", "2"), ("--rule-limit", "3"), ("--replan-limit", "2"),
        ("--cadence", "step"), ("--predictor", "naive"), ("--planner", "scripted"),
        ("--target", "none"), ("--workers", "2"),
    )),
    # coverage-curve runs the oracle or the noisy oracle, nothing else
    ("coverage-curve", "--proposer", "none"),
    ("coverage-curve", "--proposer", "backend"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_command_rejects_flags_it_does_not_read(tmp_path, command, flag, value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *FAST, flag, value, "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_manifest_echoes_only_the_options_read(tmp_path):
    abl, curve = tmp_path / "abl", tmp_path / "curve"
    assert run_cli(["ablate-limit", *FAST, "--limits", "3", "--out", abl]) == 0
    assert run_cli(["coverage-curve", *FAST, "--iterations", "1", "--out", curve]) == 0
    abl_spec = json.loads((abl / "manifest.json").read_text())["spec"]
    curve_spec = json.loads((curve / "manifest.json").read_text())["spec"]
    assert set(abl_spec) == {"config_id", "seed", "out", "trials", "iterations",
                             "replan_limit", "noise", "workers", "limits"}
    assert set(curve_spec) == {"config_id", "seed", "out", "iterations", "proposer", "noise"}


ITERATION_FILES = {"trajectory.ndjson", "predicted.ndjson", "metrics.json", "rules.json",
                   "kg.json", "sg.json", "coverage.json"}


# Backend calls before the failure -> iterations that finish.  On this seed the
# first episode's learning makes 6 backend calls and each later one 4.
@pytest.mark.parametrize("answered,finished", [(0, 0), (8, 1), (12, 2)])
def test_backend_failure_exits_2_and_keeps_finished_iterations(
    tmp_path, capsys, monkeypatch, answered, finished
):
    from worldalign import backend
    from worldalign.world_model import BackendUnavailable

    calls = []

    class FailingClient:
        def __init__(self, *args, **kwargs):
            pass

        def complete(self, prompt):
            calls.append(prompt)
            if len(calls) > answered:
                raise BackendUnavailable("backend went away")
            return json.dumps({"new_rules": []}) if "new_rules" in prompt else "[]"

    monkeypatch.setattr(backend, "CompletionClient", FailingClient)
    out = tmp_path / "sim"
    code = run_cli(["simulate", *FAST, "--proposer", "backend", "--iterations", "3",
                    "--out", out])
    assert code == 2
    assert "error: backend went away" in capsys.readouterr().err
    trial = out / "trial_00"
    for iteration in range(3):
        iter_dir = trial / f"iter_{iteration:02d}"
        if iteration < finished:
            assert {p.name for p in iter_dir.iterdir()} == ITERATION_FILES
        else:
            assert not iter_dir.exists()
    assert not list(out.rglob("checkpoint.json"))


def tree_digest(root, skip=("manifest.json",)):
    """SHA-256 over every file's relative path and bytes, in path order."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in skip:  # the manifest echoes the absolute --out
            continue
        digest.update(rel.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# Pinned artifact digests: any change to these is a change of behaviour.
GOLDEN_RUNS = {
    "simulate_step_cadence_noisy": (
        ["simulate", "--config", "all_three", "--cadence", "step", "--proposer", "noisy",
         "--trials", "1", "--iterations", "2", "--target", "none"],
        "8492d712b33e24418073176f8edd1b6d811fdddde546eae0f6abb5ccb8fc4b89",
    ),
    "simulate_episode_cadence_taskdep": (
        ["simulate", "--config", "taskdep", "--trials", "1", "--iterations", "2"],
        "360525559c7f43ca598b0cc0cfd7253f331db804c04df11e3150e0bdc639c45d",
    ),
    "simulate_episode_cadence_taskdep_noisy": (
        ["simulate", "--config", "taskdep", "--proposer", "noisy", "--trials", "1",
         "--iterations", "3"],
        "f95c0a486939d2e6fad1c7e76550ed7c76f54c6a6162602bcd02166beac80ee6",
    ),
    "ablate_limit": (
        ["ablate-limit", *FAST, "--trials", "2", "--iterations", "2", "--limits", "3,1"],
        "ba83d9ad9261213db115069ebaac4ec5602a61a2f8345550076a7c5be12fd90c",
    ),
    "coverage_curve_noisy": (
        ["coverage-curve", *FAST, "--proposer", "noisy", "--iterations", "4"],
        "f43b2e037de95d7838acddbbbccfc7ec108145b281312e57908148c99564367b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_artifacts_match_golden_digest(tmp_path, name):
    args, expected = GOLDEN_RUNS[name]
    out = tmp_path / name
    assert run_cli([*args, "--out", out]) == 0
    assert tree_digest(out) == expected
