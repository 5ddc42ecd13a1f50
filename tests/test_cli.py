import json

import pytest

from worldalign.artifacts import SchemaError, inspect_path
from worldalign.cli import COMMAND_FIELDS, ExperimentSpec, build_parser, main

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

    # the ablation table and the coverage curve, with their manifests
    abl, curve = tmp_path / "abl", tmp_path / "curve"
    assert run_cli(["ablate-limit", *FAST, "--limits", "3", "--out", abl]) == 0
    assert run_cli(["coverage-curve", *FAST, "--iterations", "2", "--out", curve]) == 0
    capsys.readouterr()
    for artifact, expected in ((abl / "ablation.json", "no_pruning"),
                               (curve / "curve.json", "cover rate over 2 learning iterations"),
                               (abl / "manifest.json", "limits"),
                               (curve / "manifest.json", "iterations")):
        assert run_cli(["inspect", artifact]) == 0, artifact
        assert expected in capsys.readouterr().out, artifact


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


def _one_step_trajectory():
    from worldalign.core import Action, Trajectory
    from conftest import make_transition

    t = make_transition(Action("sleep", {}), True, feedback="rested")
    return Trajectory((t,), 1, "default")


def _trajectory_with(edit) -> str:
    """A one-transition trajectory file whose transition record `edit` alters."""
    head, line = _one_step_trajectory().to_ndjson().splitlines()
    return head + "\n" + json.dumps(edit(json.loads(line))) + "\n"


def _format_1(traj) -> str:
    """`traj` as format 1 wrote it: a meta line, then each transition whole
    (`Transition.canonical()`)."""
    from worldalign.core import dumps_canonical

    meta = dumps_canonical({"meta": {"seed": traj.seed, "config_id": traj.config_id}})
    return "\n".join([meta, *(t.canonical() for t in traj.transitions)]) + "\n"


def _without(key, *path):
    def edit(record):
        inner = record
        for step in path:
            inner = inner[step]
        del inner[key]
        return record
    return edit


MALFORMED = {
    "outcome_without_success": (
        "trajectory.ndjson", lambda: _trajectory_with(_without("success", "outcome")),
        "line 2: outcome: missing field 'success'",
    ),
    "action_without_args": (
        "trajectory.ndjson", lambda: _trajectory_with(_without("args", "action")),
        "line 2: action: missing field 'args'",
    ),
    "line_is_an_array": (
        "trajectory.ndjson", lambda: _trajectory_with(lambda record: [record]),
        "line 2: transition is not a JSON object",
    ),
    "line_without_next_obs": (
        "trajectory.ndjson", lambda: _trajectory_with(_without("next_obs")),
        "line 2: malformed transition ('next_obs')",
    ),
    "format_1_file": (
        "trajectory.ndjson", lambda: _format_1(_one_step_trajectory()),
        "line 1: not a format-2 trajectory file (format None)",
    ),
    "kg_edge_without_u": (
        "kg.json",
        lambda: json.dumps({"edges": [{"v": "wood_pickaxe", "label": {"relation": "requires"}}]}),
        "edge 0: missing field 'u'",
    ),
    "summary_row_without_std": (
        "summary.json", lambda: json.dumps({"rows": {"reward": {"mean": 1.0}}}),
        "row 'reward': missing field 'std'",
    ),
    "selection_step_without_rule_id": (
        "coverage.json",
        lambda: json.dumps({"rules": ["r1"], "transitions": ["t1"], "matrix": [[True]],
                            "selection": [{"gain": 1}]}),
        "selection step 0: missing field 'rule_id'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_inspect_malformed_nested_field_exits_2_naming_file_and_field(tmp_path, capsys, case):
    name, content, detail = MALFORMED[case]
    bad = tmp_path / name
    bad.write_text(content())
    assert run_cli(["inspect", bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {detail}\n"


def test_inspect_unknown_schema_errors(tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"zap": 1}))
    with pytest.raises(SchemaError):
        inspect_path(weird)


def test_coverage_curve_command(tmp_path, capsys, monkeypatch):
    from worldalign import experiments

    out = tmp_path / "curve"
    assert run_cli(["coverage-curve", *FAST, "--iterations", "3", "--out", out]) == 0
    curve = json.loads((out / "curve.json").read_text())
    assert curve["series"][0] == 0.0
    assert len(curve["series"]) == 4
    assert "flagged zero" not in capsys.readouterr().out

    # An aligned predictor leaves nothing to cover: the curve is flagged zero.
    probe = experiments.run_probe
    monkeypatch.setattr(experiments, "run_probe", lambda *args: (probe(*args)[0],) * 2)
    assert run_cli(["coverage-curve", *FAST, "--iterations", "1", "--out", tmp_path / "zero"]) == 0
    assert "(no mispredictions: flagged zero)" in capsys.readouterr().out


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


def test_prune_keeps_rules_in_pick_order_with_their_gains(tmp_path, capsys):
    from worldalign.core import Action, Outcome, Transition, dumps_canonical
    from conftest import make_obs

    # The file lists a_mine first, with a stale count; near_table covers more.
    rules = [
        {"id": "a_mine", "covered_count": 7, "source":
            'RULE a_mine FOR mine: FAIL IF action.args[block_name] == "stone"'},
        {"id": "near_table", "covered_count": 0, "source":
            'RULE near_table FOR make: FAIL IF NOT ("table" in near_objects)'},
    ]
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(rules))

    obs = make_obs()
    actions = [Action("make", {"tool_name": "wood_pickaxe"})] * 3
    actions.append(Action("mine", {"block_name": "stone", "amount": 1}))
    lines = []
    for action in actions:
        record = Transition(obs, action, Outcome(False, "no"), obs).to_json()
        record["predicted"] = Outcome(True, "sure").to_json()
        lines.append(dumps_canonical(record))
    transitions_path = tmp_path / "mispredictions.ndjson"
    transitions_path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "pruned"
    code = run_cli(["prune", "--rules", rules_path, "--transitions", transitions_path,
                    "--limit", "2", "--out", out])
    assert code == 0
    kept = json.loads((out / "rules.json").read_text())
    assert [(r["id"], r["covered_count"]) for r in kept] == [("near_table", 3), ("a_mine", 1)]
    selection = json.loads((out / "coverage.json").read_text())["selection"]
    assert [(s["rule_id"], s["gain"]) for s in selection] == [("near_table", 3), ("a_mine", 1)]


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


# (extra prune arguments, the file the error names), paths relative to tmp_path
PRUNE_READ_ERRORS = {
    "record_without_obs": (["--rules", "rules.json", "--transitions", "no_obs.ndjson"],
                           "no_obs.ndjson"),
    "missing_rules_file": (["--rules", "absent.json", "--transitions", "no_obs.ndjson"],
                           "absent.json"),
    "missing_transitions_file": (["--rules", "rules.json", "--transitions", "absent.ndjson",
                                  "--predicted", "no_obs.ndjson"], "absent.ndjson"),
}


@pytest.mark.parametrize("case", sorted(PRUNE_READ_ERRORS))
def test_prune_read_errors_exit_2_naming_the_file(tmp_path, capsys, case):
    from worldalign.core import Action, Outcome, Transition, dumps_canonical
    from conftest import make_obs

    args, named = PRUNE_READ_ERRORS[case]
    (tmp_path / "rules.json").write_text("[]")
    obs = make_obs()
    record = Transition(obs, Action("sleep", {}), Outcome(False), obs).to_json()
    record["predicted"] = Outcome(True).to_json()
    del record["obs"]
    (tmp_path / "no_obs.ndjson").write_text(dumps_canonical(record) + "\n")
    paths = [tmp_path / a if not a.startswith("--") else a for a in args]
    assert run_cli(["prune", *paths, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / named}: ")


def test_prune_reads_a_runs_trajectory_and_predicted_files(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", "taskdep", "--seed", "1", "--out", out]) == 0
    run = out / "trial_00" / "iter_00"
    real_lines = (run / "trajectory.ndjson").read_text().splitlines()
    predicted_lines = (run / "predicted.ndjson").read_text().splitlines()
    mismatched = sum(
        json.loads(r)["outcome"]["success"] != json.loads(p)["outcome"]["success"]
        for r, p in zip(real_lines[1:], predicted_lines[1:])
    )
    assert mismatched > 0
    capsys.readouterr()

    def prune(predicted):
        return run_cli(["prune", "--rules", run / "rules.json", "--kg", run / "kg.json",
                        "--transitions", run / "trajectory.ndjson", "--predicted", predicted,
                        "--out", tmp_path / "pruned"])

    assert prune(run / "predicted.ndjson") == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("coverage matrix: ")
    assert header.endswith(f" x {mismatched} mispredictions")
    assert (tmp_path / "pruned" / "coverage.json").exists()

    short = tmp_path / "short.ndjson"
    short.write_text("\n".join(predicted_lines[:-1]) + "\n")
    assert prune(short) == 2
    assert "real has" in capsys.readouterr().err

    # A predicted file is a delta against the real one: it cannot stand in
    # for the real trajectory.
    assert run_cli(["prune", "--rules", run / "rules.json",
                    "--transitions", run / "predicted.ndjson",
                    "--predicted", run / "predicted.ndjson", "--out", tmp_path / "pruned"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {run / 'predicted.ndjson'}: ")

    record = json.loads(predicted_lines[1])
    record["action"] = {"name": "explore", "args": {"direction": "north", "steps": 97}}
    diverged = tmp_path / "diverged.ndjson"
    diverged.write_text("\n".join([predicted_lines[0], json.dumps(record),
                                    *predicted_lines[2:]]) + "\n")
    assert prune(diverged) == 2
    assert "diverge at index 0" in capsys.readouterr().err


def _prune_a_simulate_run(tmp_path):
    """`prune` arguments over a one-iteration taskdep run's own files."""
    run = tmp_path / "sim"
    assert run_cli(["simulate", "--config", "taskdep", "--seed", "1", "--out", run]) == 0
    it = run / "trial_00" / "iter_00"
    return ["prune", "--rules", it / "rules.json", "--kg", it / "kg.json",
            "--transitions", it / "trajectory.ndjson", "--predicted", it / "predicted.ndjson"]


# Each command: its arguments but --out, and the files it prints, in order.
COMMAND_PRINTS = {
    "simulate": (lambda _: ["simulate", *FAST, "--trials", "2"], ["rows.json", "summary.json"]),
    "ablate-limit": (lambda _: ["ablate-limit", *FAST, "--limits", "3"], ["ablation.json"]),
    "coverage-curve": (lambda _: ["coverage-curve", *FAST, "--iterations", "2"],
                       ["curve.json"]),
    "prune": (_prune_a_simulate_run, ["coverage.json"]),
}


@pytest.mark.parametrize("command", sorted(COMMAND_PRINTS))
def test_each_command_prints_the_inspect_rendering_of_its_files(tmp_path, capsys, command):
    args, files = COMMAND_PRINTS[command]
    argv = args(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", out]) == 0
    printed = capsys.readouterr().out
    for name in files:
        assert run_cli(["inspect", out / name]) == 0
    assert printed == capsys.readouterr().out


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


@pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
def test_parser_defaults_are_the_spec_defaults(command):
    args = build_parser().parse_args([command])
    defaults = ExperimentSpec()
    for field in COMMAND_FIELDS[command]:
        if field != "out":  # each command has its own output directory
            assert getattr(args, field) == getattr(defaults, field), field


def test_manifest_echoes_only_the_options_read(tmp_path):
    abl, curve = tmp_path / "abl", tmp_path / "curve"
    assert run_cli(["ablate-limit", *FAST, "--limits", "3", "--out", abl]) == 0
    assert run_cli(["coverage-curve", *FAST, "--iterations", "1", "--out", curve]) == 0
    abl_spec = json.loads((abl / "manifest.json").read_text())["spec"]
    curve_spec = json.loads((curve / "manifest.json").read_text())["spec"]
    # `out` is read but not echoed: the manifest would depend on the path.
    assert set(abl_spec) == {"config_id", "seed", "trials", "iterations",
                             "replan_limit", "noise", "workers", "limits"}
    assert set(curve_spec) == {"config_id", "seed", "iterations", "proposer", "noise"}


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


def tree_digest(root, skip=()):
    """SHA-256 over every file's relative path and bytes, in path order,
    leaving out the relative paths in `skip`."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in skip:
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
        "2d5fa01cca1b950b7b21e7ecac475b20d44e605edf6f0f7cd8b903ea9c2cf542",
    ),
    "simulate_episode_cadence_taskdep": (
        ["simulate", "--config", "taskdep", "--trials", "1", "--iterations", "2"],
        "5fcd11c32a54bf5638319bad7a9853afa771fd641cf793026c69ff0daf4b14ee",
    ),
    "simulate_episode_cadence_taskdep_noisy": (
        ["simulate", "--config", "taskdep", "--proposer", "noisy", "--trials", "1",
         "--iterations", "3"],
        "8ab12afbe8d4918ed196028004785bff7990bf3277703813575d360af9433c5c",
    ),
    "ablate_limit": (
        ["ablate-limit", *FAST, "--trials", "2", "--iterations", "2", "--limits", "3,1"],
        "515bdbe4c0a37f44bdf4b5571db22a7327a66454b653eb922c42a181639c7dcc",
    ),
    "coverage_curve_noisy": (
        ["coverage-curve", *FAST, "--proposer", "noisy", "--iterations", "4"],
        "3092a5a308dc02fec5fbe7c5c0b79977282f01fac2657d410310e4077e0c240f",
    ),
}


@pytest.fixture(scope="module")
def golden_tree(tmp_path_factory):
    """The output directory of a golden run, run once per module."""
    trees = {}

    def tree(name):
        if name not in trees:
            out = tmp_path_factory.mktemp("golden") / name
            assert run_cli([*GOLDEN_RUNS[name][0], "--out", out]) == 0
            trees[name] = out
        return trees[name]

    return tree


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_artifacts_match_golden_digest(golden_tree, name):
    assert tree_digest(golden_tree(name)) == GOLDEN_RUNS[name][1]


# The digests of the golden runs before trajectory format 2, over the whole
# tree but its manifest (which then echoed the absolute --out).
FORMAT_1_DIGESTS = {
    "simulate_step_cadence_noisy":
        "8492d712b33e24418073176f8edd1b6d811fdddde546eae0f6abb5ccb8fc4b89",
    "simulate_episode_cadence_taskdep":
        "360525559c7f43ca598b0cc0cfd7253f331db804c04df11e3150e0bdc639c45d",
    "simulate_episode_cadence_taskdep_noisy":
        "f95c0a486939d2e6fad1c7e76550ed7c76f54c6a6162602bcd02166beac80ee6",
    "ablate_limit": "ba83d9ad9261213db115069ebaac4ec5602a61a2f8345550076a7c5be12fd90c",
    "coverage_curve_noisy": "f43b2e037de95d7838acddbbbccfc7ec108145b281312e57908148c99564367b",
}


def _expand_to_format_1(root) -> None:
    """Rewrite every iteration's trajectory pair in format 1, the predicted
    steps' obs taken from the real file."""
    from worldalign.core import Trajectory

    for real_path in root.rglob("trajectory.ndjson"):
        predicted_path = real_path.with_name("predicted.ndjson")
        real = Trajectory.from_ndjson(real_path.read_text())
        predicted = Trajectory.from_ndjson(predicted_path.read_text(), real)
        real_path.write_text(_format_1(real))
        predicted_path.write_text(_format_1(predicted))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_runs_expand_to_their_format_1_digests(golden_tree, tmp_path, name):
    """Format 2 loses nothing: expanded back, each golden tree is the one
    format 1 wrote."""
    import shutil

    expanded = shutil.copytree(golden_tree(name), tmp_path / name)
    _expand_to_format_1(expanded)
    assert tree_digest(expanded, skip=("manifest.json",)) == FORMAT_1_DIGESTS[name]
