"""Times one set-up in a fresh interpreter and prints the seconds.

Set-up is everything before the first env step can run: importing
worldalign, loading and validating the config, and building the first
component stack and world.  Usage: `python3 setup_probe.py WORKLOAD`.
"""
import sys
import time

started = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from worldalign import cli, experiments  # noqa: E402,F401
from worldalign.env import MarsWorld, check_solvable, load_config  # noqa: E402


def main(workload: str) -> float:
    config_id, builder_args, trial_seed = spec.SETUP[workload]
    config = load_config(config_id)
    check_solvable(config)
    episode_config = config.with_seed(experiments.episode_seed(trial_seed, 0))
    experiments.standard_components(**builder_args)(episode_config)
    MarsWorld(episode_config)
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
