"""Acceptance checks for the whole package, one test per criterion.

Each test emits a single PASS/FAIL line (replayed after the run by a
terminal-summary hook in conftest, so the lines survive output capture)
and enforces the intended wall-clock budget.  Randomized criteria use
fixed seeds; everything here is expected to be bit-reproducible between
runs.
"""

import json
import math
import random
import time

from unshuffle.bsgs import BFS_MAX_ELEMENTS, StabilizerChain, bfs_enumerate
from unshuffle.cli import main as cli_main
from unshuffle.elmsley import perfect_elmsley_word, unshuffle_swap_word
from unshuffle.groups import (
    diaconis_words,
    family_generators,
    pair_kernel_order,
    parity_row,
    computed_parity_row,
    predict_group,
    substitute_unshuffles,
)
from unshuffle.perm import Permutation
from unshuffle.shuffles import (
    LETTERS,
    deal_permutation,
    format_word,
    shuffle_order,
    shuffle_permutation,
    word_permutation,
)

BUDGETS = {
    1: 5, 2: 5, 3: 10, 4: 10, 5: 30, 6: 30,
    7: 120, 8: 180, 9: 1, 10: 60, 11: 1, 12: 10, 13: 60,
}

# one line per criterion, replayed by the conftest terminal-summary hook
RESULTS: list[str] = []


def finish(number: int, started: float, failures: list, description: str) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {number:2d}: {status} in {elapsed:6.2f}s  {description}"
    RESULTS.append(line)
    print(line)
    assert not failures, f"criterion {number}: {failures[:10]}"
    assert elapsed < BUDGETS[number], f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_closed_forms_match_dealing():
    t0 = time.perf_counter()
    failures = []
    for size in range(2, 2001, 2):
        if shuffle_permutation("L", size) != deal_permutation("left", size):
            failures.append(("L", size))
        if shuffle_permutation("R", size) != deal_permutation("right", size):
            failures.append(("R", size))
    finish(1, t0, failures, "L/R closed forms equal the dealing simulation, 2n in [2,2000]")


def test_criterion_02_reversal_identities():
    t0 = time.perf_counter()
    failures = []
    for size in range(2, 2001, 2):
        v = shuffle_permutation("V", size)
        for word in ("LI", "IL", "RO", "OR"):
            if word_permutation(word, size) != v:
                failures.append((word, size))
    finish(2, t0, failures, "LI = IL = V and RO = OR = V exactly, 2n in [2,2000]")


def test_criterion_03_shuffle_orders():
    t0 = time.perf_counter()
    failures = []
    if shuffle_order("L", 52) != 52:
        failures.append(("L", 52, shuffle_order("L", 52)))
    if shuffle_order("R", 52) != 8:
        failures.append(("R", 52, shuffle_order("R", 52)))
    for size in range(4, 2001, 2):
        for letter in "LR":
            formula = shuffle_order(letter, size)
            cycle = shuffle_permutation(letter, size).order()
            if formula != cycle:
                failures.append((letter, size, formula, cycle))
    finish(3, t0, failures, "order formula matches cycle structure, 2n in [4,2000]; 52-card L/R are 52/8")


def test_criterion_04_words_preserve_central_symmetry():
    t0 = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    failures = []
    for _ in range(10_000):
        size = 2 * rng.randint(1, 100)
        length = rng.randint(0, 10)
        word = "".join(
            rng.choice(LETTERS) + ("'" if rng.random() < 0.3 else "") for _ in range(length)
        )
        if not word_permutation(word, size).is_centrally_symmetric():
            failures.append((word, size))
    finish(4, t0, failures, "10^4 random shuffle words are centrally symmetric, deck sizes up to 200")


def test_criterion_05_swap_words():
    t0 = time.perf_counter()
    failures = []
    if format_word(unshuffle_swap_word(0, 5, 3)) != "RLR":
        failures.append(("instance", 0, 5, 3))
    if format_word(unshuffle_swap_word(6, 11, 4)) != "LRLL":
        failures.append(("instance", 6, 11, 4))
    for k in range(1, 7):
        size = 1 << k
        for i in range(size):
            for j in range(size):
                word = unshuffle_swap_word(i, j, k)
                p = word_permutation(word, size)
                if len(word) != k or p(i) != j or p(j) != i:
                    failures.append((k, i, j))
    rng = random.Random(0x5EED)
    for k in range(7, 11):
        size = 1 << k
        for _ in range(2600):
            i, j = rng.randrange(size), rng.randrange(size)
            p = word_permutation(unshuffle_swap_word(i, j, k), size)
            if p(i) != j or p(j) != i:
                failures.append((k, i, j))
    finish(5, t0, failures, "k-letter swap words exchange the two cards; exhaustive k<=6, 10^4 random k in [7,10]")


def test_criterion_06_classic_elmsley():
    t0 = time.perf_counter()
    failures = []
    for size in range(2, 513, 2):
        images = {
            "I": shuffle_permutation("I", size).image,
            "O": shuffle_permutation("O", size).image,
        }
        for target in range(size):
            position = 0
            for step in perfect_elmsley_word(target, size):
                position = images[step.letter][position]
            if position != target:
                failures.append((size, target))
    # spot-check whole permutations, not just the tracked card
    for size in (2, 6, 16, 52, 128, 512):
        for target in range(size):
            word = perfect_elmsley_word(target, size)
            if word_permutation(word, size)(0) != target:
                failures.append(("full", size, target))
    finish(6, t0, failures, "faro words place the top card at every target, 2n in [2,512]")


def test_criterion_07_bfs_group_orders():
    t0 = time.perf_counter()
    failures = []
    frozen = {
        (6, "unshuffle"): 48,
        (6, "perfect"): 24,
        (8, "unshuffle"): 24,
        (8, "perfect"): 24,
        (12, "unshuffle"): 7680,
        (12, "perfect"): 7680,
        (14, "unshuffle"): 645120,
    }
    must_be_equal = {8, 12, 16}
    must_differ = {6, 14}
    for size in range(2, 17, 2):
        unshuffles = bfs_enumerate(family_generators("unshuffle", size))
        perfects = bfs_enumerate(family_generators("perfect", size))
        for family, closure in (("unshuffle", unshuffles), ("perfect", perfects)):
            predicted = predict_group(family, size).order
            if closure.order != predicted:
                failures.append((size, family, closure.order, predicted))
            expected = frozen.get((size, family))
            if expected is not None and closure.order != expected:
                failures.append(("frozen", size, family, closure.order))
        if size in must_be_equal and unshuffles != perfects:
            failures.append(("equal", size))
        if size in must_differ and unshuffles == perfects:
            failures.append(("differ", size))
    finish(7, t0, failures, "BFS orders match predictions at 2n in [2,16]; element sets coincide exactly at {8,12,16}")


def test_criterion_08_chain_group_orders():
    t0 = time.perf_counter()
    failures = []
    for size in range(18, 53, 2):
        for family in ("perfect", "unshuffle"):
            order = StabilizerChain(family_generators(family, size)).order
            predicted = predict_group(family, size).order
            if order != predicted:
                failures.append((size, family, order, predicted))
    if StabilizerChain(family_generators("perfect", 24)).order != 2**11 * 95040:
        failures.append(("frozen", 24))
    if StabilizerChain(family_generators("unshuffle", 52)).order != math.factorial(26) * 2**26:
        failures.append(("frozen", 52))
    # wherever full enumeration is feasible, the two engines must agree
    for size in range(2, 53, 2):
        for family in ("perfect", "unshuffle"):
            gens = family_generators(family, size)
            if predict_group(family, size).order <= BFS_MAX_ELEMENTS:
                if bfs_enumerate(gens).order != StabilizerChain(gens).order:
                    failures.append(("engines", size, family))
    finish(8, t0, failures, "stabilizer chain orders match predictions at 2n in [18,52]; engines agree where BFS fits")


def test_criterion_09_parity_table():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 31):
        if computed_parity_row(2 * n) != parity_row(n):
            failures.append((n, computed_parity_row(2 * n), parity_row(n)))
    finish(9, t0, failures, "signs of L, R and their pair actions follow the n mod 4 table, n in [2,30]")


def test_criterion_10_kernel_orders():
    t0 = time.perf_counter()
    failures = []
    predicted = {n: predict_group("unshuffle", 2 * n).kernel_order for n in range(3, 27)}
    applicable = [n for n in predicted if predicted[n] is not None]
    if len(applicable) != 19:
        failures.append(("applicable sizes", len(applicable)))
    for n in applicable:
        computed = pair_kernel_order(family_generators("unshuffle", 2 * n))
        if computed != predicted[n]:
            failures.append((n, computed, predicted[n]))
    finish(10, t0, failures, f"pair-action kernels have the predicted two-power orders, {len(applicable)} applicable n in [3,26]")


def test_criterion_11_reversal_powers():
    t0 = time.perf_counter()
    failures = []

    def check(tag, size, letter, exponent):
        v = shuffle_permutation("V", size)
        if shuffle_permutation(letter, size) ** exponent != v:
            failures.append((tag, size, letter, exponent))

    check("twelve", 12, "I", 6)
    check("twelve", 12, "L", 6)
    check("twentyfour", 24, "I", 10)
    check("twentyfour", 24, "L", 10)
    for k in range(1, 11):
        size = 1 << k
        check("power", size, "I", k)
        check("power", size, "L" if k % 2 == 0 else "R", k)
    finish(11, t0, failures, "V arises as the stated powers of I, L and R at 2n=12, 24 and 2^k")


def test_criterion_12_classic_word_machinery():
    t0 = time.perf_counter()
    failures = []
    for n in (5, 7, 9):
        size = 2 * n
        words = diaconis_words(deck_size=size)
        for name in ("c", "w"):
            p = word_permutation(words[name], size)
            if not all(p(i) < n for i in range(n)):
                failures.append(("invariance", name, size))
    for size in (10, 20, 24):
        for name, word in diaconis_words(deck_size=size).items():
            rewritten = substitute_unshuffles(word).word
            if word_permutation(rewritten, size) != word_permutation(word, size):
                failures.append(("substitution", name, size))
    finish(12, t0, failures, "c and w fix the top half for odd n; unshuffle rewrites evaluate identically")


def test_criterion_13_verify_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    codes = [
        cli_main(["verify", "--min", "2", "--max", "52", "--out", str(path)])
        for path in (first, second)
    ]
    if codes != [0, 0]:
        failures.append(("exit", codes))
    if first.read_bytes() != second.read_bytes():
        failures.append("reports differ")
    parsed = json.loads(first.read_text())
    if len(parsed) != 52:
        failures.append(("records", len(parsed)))
    if not all(entry["match"] for entry in parsed):
        failures.append("unmatched records")
    finish(13, t0, failures, "two verify sweeps over [2,52] are byte-identical, all matched, exit 0")
