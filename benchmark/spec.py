"""The fixed inputs of the three workloads.

This module imports nothing from the program, so the set-up probe can read
it before its timer has anything to time.
"""
from __future__ import annotations

WORKLOADS = ("ablation", "step_learning", "simulate_artifacts")

MAX_STEPS = 400  # the episode budget every world config ships with

# ablation: the criterion-4 rule-limit ablation, reduced to three trials
ABLATION_CONFIG = "all_three"
ABLATION_LIMITS = (6, 5, 3, 1)
ABLATION_TRIAL_SEEDS = (1, 2, 3)
ABLATION_ITERATIONS = 3
ABLATION_NOISE = 0.3

# step_learning: one trial that learns after every env step
STEP_CONFIG = "all_three"
STEP_TRIAL_SEED = 1
STEP_EPISODES = 3
STEP_NOISE = 0.3

# simulate_artifacts: the README's `worldalign simulate` run, in-process
SIM_CONFIG = "taskdep"
SIM_SEED = 1
SIM_TRIALS = 9
SIM_ITERATIONS = 5
SIM_CHAIN_NEEDED = 8  # criterion 5: at least 8 of 9 trials craft the chain
SIM_FILES_PER_ITERATION = 7  # trajectory, predicted, metrics, rules, kg, sg, coverage
SIM_FILES_PER_RUN = 3  # manifest, rows, summary


def simulate_argv(out: str) -> list[str]:
    return [
        "simulate", "--config", SIM_CONFIG, "--seed", str(SIM_SEED),
        "--trials", str(SIM_TRIALS), "--iterations", str(SIM_ITERATIONS),
        "--workers", "1", "--out", out,
    ]


def sim_expected_files() -> int:
    return SIM_TRIALS * SIM_ITERATIONS * SIM_FILES_PER_ITERATION + SIM_FILES_PER_RUN


# What set-up builds for each workload before its first env step:
# (config id, standard_components keyword arguments, trial seed).
SETUP = {
    "ablation": (
        ABLATION_CONFIG,
        {"rule_proposer_kind": "noisy", "noise": ABLATION_NOISE,
         "limit": ABLATION_LIMITS[0], "proposer_seed": ABLATION_TRIAL_SEEDS[0]},
        ABLATION_TRIAL_SEEDS[0],
    ),
    "step_learning": (
        STEP_CONFIG,
        {"rule_proposer_kind": "noisy", "noise": STEP_NOISE, "cadence": "step",
         "proposer_seed": STEP_TRIAL_SEED},
        STEP_TRIAL_SEED,
    ),
    "simulate_artifacts": (
        SIM_CONFIG,
        {"rule_proposer_kind": "oracle", "proposer_seed": SIM_SEED},
        SIM_SEED,
    ),
}
