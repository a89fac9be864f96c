"""Random-stream derivation: pinned values of stream 5, and numpy.random
loading on first use, also when that use is in concurrent caller threads."""

import pytest

from beamsim.rng import child_seed, substream
from child_process import run_python


def test_child_seed_pinned():
    assert child_seed(5, 1, 121, 0) == 9620921295910419922
    assert child_seed(0) == 15793235383387715774


def test_substream_pinned():
    assert substream(5, 3).random(2).tolist() == [0.7201956883590646, 0.6946643555619701]
    assert substream(123456789, 0, 7).random() == 0.4035021389981913


@pytest.mark.parametrize("fading", ["rayleigh()", "nakagami(3.2)"], ids=["rayleigh", "nakagami"])
def test_first_draw_in_worker_threads_matches_one_worker(tmp_path, fading):
    # In a fresh process two caller-made threads each run estimate_se, and
    # their first substream calls are what load numpy.random; neither that
    # nor the concurrent calls, each with its own work set, may change a bit.
    script = (
        "import sys, threading\n"
        "from beamsim.channel import FadingModel\n"
        "from beamsim.montecarlo import CHUNK_TRIALS, SimConfig, estimate_se\n"
        "assert 'numpy.random' not in sys.modules\n"
        f"cfg = SimConfig(1.9, 121, 121 * 0.01 / 1.9, FadingModel.{fading}, 4 * CHUNK_TRIALS, 2024)\n"
        "start = threading.Barrier(2)\n"
        "results = [None, None]\n"
        "def run(i):\n"
        "    start.wait()\n"
        "    results[i] = estimate_se(cfg)\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "for est in (*results, estimate_se(cfg)):\n"
        "    print(repr((est.mean, est.std_error, est.trials)))\n"
    )
    res = run_python("-c", script, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    first, second, serial = res.stdout.splitlines()
    assert first == second == serial
