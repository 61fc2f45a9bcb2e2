"""Smoke tests of the benchmark: a few seconds each.

    python3 -m pytest perfbench -q

They check the oracles against brute force on small decks, that every
workload answers correctly at this commit with the metrics BENCHMARK.json
names, and that a deliberately wrong answer from the package is counted
as failed.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import _random_centrally_symmetric  # noqa: E402

unshuffle = run.import_package()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def private_state(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")


def smoke(capsys, workload, trace=0, seed=1):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--smoke"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("d", [2, 4, 6, 10, 12, 52, 66])
def test_pointwise_shuffles_match_the_package(d):
    for letter in "LRIOV":
        forward = oracles.letter_images(letter, d)
        assert forward == unshuffle.shuffle_permutation(letter, d).image
        assert [oracles.preimage(letter, forward[i], d) for i in range(d)] == list(range(d))
        assert oracles.letter_sign(letter, d) == oracles.sign(forward)
    for letter in "LR":
        assert oracles.letter_order(letter, d) == unshuffle.shuffle_permutation(letter, d).order()


def test_group_orders_and_membership_rule_match_brute_force():
    for d in range(2, 13, 2):
        for family, letters in oracles.FAMILY_LETTERS.items():
            gens = [unshuffle.shuffle_permutation(x, d) for x in letters]
            assert oracles.group_order(family, d) == unshuffle.bfs_enumerate(gens).order
    # 2n = 8 is a power of two; n = 20 is the first case of the rule past it
    d = 40
    chain = unshuffle.StabilizerChain(unshuffle.family_generators("unshuffle", d))
    rng = random.Random(0)
    members = 0
    for _ in range(200):
        img = _random_centrally_symmetric(rng, d)
        assert oracles.centrally_symmetric(img)
        member = oracles.unshuffle_member(img)
        assert member == chain.contains(img)
        members += member
    assert 20 < members < 100


def test_word_image_composes_left_to_right():
    d = 52
    for word in itertools.product("LRI", repeat=2):
        steps = [(x, inverted) for x, inverted in zip(word, (False, True))]
        p = unshuffle.word_permutation(word[0] + word[1] + "'", d)
        assert [oracles.word_image(steps, i, d) for i in range(d)] == list(p.image)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_is_correct_with_the_benchmark_metrics(capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
        for metric in BENCHMARK[kind]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_same_seed_gives_same_exact_counts(capsys):
    first = smoke(capsys, "words", trace=1, seed=4)
    again = smoke(capsys, "words", trace=1, seed=4)
    assert first["correct"] and again["correct"]
    key = "shuffles.word_permutation.points"
    assert first["metrics"][key] == again["metrics"][key]


class OffByOne(unshuffle.StabilizerChain):
    def __init__(self, generators, degree=None):
        super().__init__(generators, degree)
        self.order += 1


class ExtraGenerator(unshuffle.StabilizerChain):
    """Same group, more work: also closes the product of the first two generators."""

    def __init__(self, generators, degree=None):
        gens = list(generators)
        super().__init__(gens + [gens[0] * gens[1]], degree)


FAULTS = {
    "sweep": (unshuffle.groups, "StabilizerChain", OffByOne),
    "chain": (unshuffle.bsgs, "StabilizerChain", OffByOne),
    "query": (unshuffle.bsgs.StabilizerChain, "contains", lambda chain, p: True),
    "words": (unshuffle.shuffles, "multiplicative_order", lambda value, modulus: 1),
}


@pytest.mark.parametrize("workload", sorted(FAULTS))
def test_wrong_answers_raise_fail_frac(capsys, monkeypatch, workload):
    monkeypatch.setattr(*FAULTS[workload])
    result = smoke(capsys, workload)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_changed_exact_counts_are_flagged(capsys, monkeypatch):
    assert smoke(capsys, "chain", trace=1)["correct"]
    monkeypatch.setattr(unshuffle.bsgs, "StabilizerChain", ExtraGenerator)
    result = smoke(capsys, "chain", trace=1)
    assert result["failed"] == 0 and not result["correct"]
