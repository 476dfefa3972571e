import itertools

import numpy as np

from optstab.harness.config import build_config
from optstab.harness.experiments import run_experiment
from optstab.streams import PURPOSES, stream

MASTERS = (0, 1, 3, 7, 12345, 2 ** 40 + 5)


def _key(gen):
    state = gen.bit_generator.state["state"]
    return tuple(int(v) for v in state["key"]) + tuple(int(v) for v in state["counter"])


def test_stream_keys_are_pairwise_distinct():
    keys = {}
    for master, purpose in itertools.product(MASTERS, PURPOSES):
        indices = [()] if purpose in ("rows", "labels") else [(i,) for i in range(4)]
        for index in indices:
            keys[(master, purpose, index)] = _key(stream(master, purpose, *index))
    assert len(keys) == len(MASTERS) * (2 + 4 * (len(PURPOSES) - 2))
    assert len(set(keys.values())) == len(keys)


def test_data_streams_are_the_seed_sequences_first_two_children():
    # keeps every synthetic sample's bytes from before the streams were named
    for master in MASTERS:
        children = np.random.SeedSequence(master).spawn(2)
        for purpose, child in zip(("rows", "labels"), children):
            want = np.random.Generator(np.random.Philox(child))
            assert _key(stream(master, purpose)) == _key(want)
            np.testing.assert_array_equal(stream(master, purpose).random(8), want.random(8))


def test_sgd_first_step_rarely_draws_the_replaced_row():
    # a coupled pair's gap is 0 until the index stream draws the replaced row,
    # which at t = 1 has chance 1/n per repeat: about 20 * 5 / 500 = 0.2 of 20
    # seeds should see a nonzero gap there
    hits = 0
    for seed in range(20):
        cfg = build_config(overrides=dict(experiment="stability_scaling", methods=("sgd",),
                                          n=500, T=1, reps=5, seed=seed))
        gap = next(s for s in run_experiment(cfg).series if s.name == "sgd_param_gap")
        hits += gap.value[1] > 0
    assert hits <= 2
