"""Random-stream derivation: pinned values of stream 5, and numpy.random
loading on first use, also when that use is in a worker thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from beamsim.rng import child_seed, substream

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def test_child_seed_pinned():
    assert child_seed(5, 1, 121, 0) == 9620921295910419922
    assert child_seed(0) == 15793235383387715774


def test_substream_pinned():
    assert substream(5, 3).random(2).tolist() == [0.7201956883590646, 0.6946643555619701]
    assert substream(123456789, 0, 7).random() == 0.4035021389981913


@pytest.mark.parametrize("fading", ["rayleigh()", "nakagami(3.2)"], ids=["rayleigh", "nakagami"])
def test_first_draw_in_worker_threads_matches_one_worker(tmp_path, fading):
    # In a fresh process the two workers' first substream calls are what
    # load numpy.random; the result must not depend on it.
    script = (
        "import sys\n"
        "from beamsim.channel import FadingModel\n"
        "from beamsim.montecarlo import CHUNK_TRIALS, SimConfig, estimate_se\n"
        "assert 'numpy.random' not in sys.modules\n"
        f"cfg = SimConfig(1.9, 121, 121 * 0.01 / 1.9, FadingModel.{fading}, 4 * CHUNK_TRIALS, 2024)\n"
        "two = estimate_se(cfg, workers=2)\n"
        "one = estimate_se(cfg, workers=1)\n"
        "print(repr((two.mean, two.std_error, two.trials)))\n"
        "print(repr((one.mean, one.std_error, one.trials)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    two, one = res.stdout.splitlines()
    assert two == one
