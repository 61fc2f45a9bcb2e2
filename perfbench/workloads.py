"""The four workloads.

Each workload builds every input from its seed when it is constructed,
which is the set-up phase, and then runs closed-loop batches: one thread,
the next call only after the previous one returned.  A batch is a fixed
list of operations, so every batch of a run does the same work.
``batch`` returns the latency of each operation, in a compact array so
that the benchmark's own records stay small beside peak_rss_mb, the
number of operations whose answer disagrees with the oracle, and the
seconds the batch spent in the package outside those operations (the
part of the sweep's command around its records; 0 elsewhere).  Oracles come from
``oracles.py`` and never from the package under test.

``WHY`` beside each workload says which layers it exercises and which
changes it should show; BENCHMARK.json carries the one-line form.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

import oracles

HERE = Path(__file__).resolve().parent


class Sweep:
    WHY = (
        "The user's command `unshuffle verify --min 2 --max 52 --out <file>`, 52 records: "
        "the paper's end-to-end result.  It is the only workload with BFS closure (18 "
        "records, 2n = 14 the largest) and with pair-kernel chains, so a change to the "
        "`auto` engine policy shows here and nowhere else.  One operation is one record.  "
        "The inputs do not depend on the seed."
    )
    SIZES = {False: (2, 52), True: (16, 22)}

    def __init__(self, pkg, api, seed, smoke):
        self.pkg = pkg
        low, high = self.SIZES[smoke]
        self.dir = tempfile.mkdtemp(prefix=".out-", dir=HERE)
        self.path = Path(self.dir) / "report.json"
        self.argv = ["verify", "--min", str(low), "--max", str(high), "--out", str(self.path)]
        self.expected = []
        for d in range(low + low % 2, high + 1, 2):
            for family in sorted(oracles.FAMILY_LETTERS):
                kernel = oracles.kernel_order(d // 2) if family == "unshuffle" else None
                self.expected.append((d, family, oracles.group_order(family, d), kernel))
        self.report = None

    def batch(self, api):
        groups = self.pkg.groups
        inner = groups.verify_deck_size
        latencies = array("d")

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(perf_counter() - start)

        groups.verify_deck_size = timed
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                start = perf_counter()
                code = api.main(self.argv)
                rest = perf_counter() - start - sum(latencies)
        finally:
            groups.verify_deck_size = inner
        total = len(self.expected)
        if code != 0:  # a usage error writes no report; a mismatch one that is wrong
            return latencies, total, rest
        report = self.path.read_bytes()
        if self.report is None:
            self.report = report
        if report != self.report or out.getvalue().splitlines()[-1:] != [
            f"{total} records, {total} match"
        ]:
            return latencies, total, rest
        return latencies, self._wrong_records(json.loads(report)), rest

    def _wrong_records(self, records):
        wrong = abs(len(records) - len(self.expected))
        for record, (d, family, order, kernel) in zip(records, self.expected):
            ok = (
                record["two_n"] == d
                and record["family"] == family
                and record["match"] is True
                and record["computed_order"] == str(order)
                and record.get("kernel_order_computed") == (None if kernel is None else str(kernel))
            )
            wrong += not ok
        return wrong

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Chain:
    WHY = (
        "StabilizerChain builds of <L, R> and <I, O> at 2n in {52, 66}, ROADMAP targets.  "
        "The build is almost all of the work, so a change to the Schreier-Sims build shows "
        "here.  2n = 100 is left out: one build takes 40 to 97 s.  One operation is one "
        "build.  The inputs do not depend on the seed."
    )
    SIZES = {False: (52, 66), True: (20, 30)}

    def __init__(self, pkg, api, seed, smoke):
        self.builds = []
        for d in self.SIZES[smoke]:
            for family, letters in sorted(oracles.FAMILY_LETTERS.items()):
                gens = tuple(pkg.Permutation(oracles.letter_images(x, d)) for x in letters)
                self.builds.append((gens, oracles.group_order(family, d)))

    def batch(self, api):
        latencies, wrong = array("d"), 0
        for gens, order in self.builds:
            start = perf_counter()
            chain = api.StabilizerChain(gens)
            latencies.append(perf_counter() - start)
            ok = chain.order == order and all(chain.sift(g).is_identity() for g in gens)
            wrong += not ok
        return latencies, wrong, 0.0

    def close(self):
        pass


def _random_centrally_symmetric(rng, d):
    n = d // 2
    top = list(range(n))
    rng.shuffle(top)
    img = [0] * d
    for i, t in enumerate(top):
        target = t if rng.random() < 0.5 else d - 1 - t
        img[i], img[d - 1 - i] = target, d - 1 - target
    return img


class Query:
    WHY = (
        "Membership sifts against the 2n = 56 <L, R> chain built in set-up: a third "
        "members (random words in L and R), a third random centrally symmetric "
        "permutations (about a quarter members; the rest fail deep in the chain), a third "
        "random permutations of S_56.  Reads where chain reads builds, so a build-side "
        "change that slows sifting shows here; for a build-only change the prediction "
        "is no change outside setup_s.  One operation is one sift."
    )
    DECK = {False: 56, True: 40}
    EACH = {False: 1000, True: 100}
    WORD_LENGTH = 64

    def __init__(self, pkg, api, seed, smoke):
        rng = random.Random(seed)
        d = self.DECK[smoke]
        forward = {x: oracles.letter_images(x, d) for x in "LR"}
        steps = [forward[x] for x in "LR"]
        steps += [tuple(sorted(range(d), key=forward[x].__getitem__)) for x in "LR"]
        self.chain = api.StabilizerChain(tuple(pkg.Permutation(forward[x]) for x in "LR"))
        candidates = []
        for _ in range(self.EACH[smoke]):
            img = tuple(range(d))
            for _ in range(self.WORD_LENGTH):
                g = rng.choice(steps)
                img = tuple(g[x] for x in img)
            candidates.append(img)
            candidates.append(tuple(_random_centrally_symmetric(rng, d)))
            shuffled = list(range(d))
            rng.shuffle(shuffled)
            candidates.append(tuple(shuffled))
        rng.shuffle(candidates)
        self.stream = [(pkg.Permutation(c), oracles.unshuffle_member(c)) for c in candidates]

    def batch(self, api):
        contains, chain = api.contains, self.chain
        latencies, wrong = array("d"), 0
        for p, member in self.stream:
            start = perf_counter()
            answer = contains(chain, p)
            latencies.append(perf_counter() - start)
            wrong += answer != member
        return latencies, wrong, 0.0

    def close(self):
        pass


class Words:
    WHY = (
        "perm, shuffles and elmsley at large degree, which no other workload reaches: "
        "12-step words, shuffle orders, Elmsley placements, swap words, and "
        "* / inverse / parity / cycles on the results, on decks of 52 and 1000 cards plus "
        "a log-uniform pool over [2^10, 2^16].  The pool has enough sizes that the 5 "
        "letters x sizes exceed the 64 entries of the _images cache, so the cache misses "
        "and its memory shows in peak_rss_mb.  The 2^20-card deck gets only the "
        "operations that build no permutation (closed-form orders, Elmsley and swap "
        "words): a 12-step word on it takes 2 s.  With them a batch took 11 s, so a run "
        "timed each operation twice, and ops_per_s spread by a quarter of its median "
        "between runs on a 2-vCPU VM.  Without them a batch takes half a second, and no "
        "operation more than a tenth of one."
    )
    FIXED = (52, 1000)
    POOL_OCTAVES = {False: (10, 16), True: (6, 12)}
    POOL = 11
    LARGE = {False: 1 << 20, True: 1 << 12}
    SWAP_LOG_DECKS = {False: range(10, 21), True: range(6, 13)}
    WORD_LENGTH = 12
    SAMPLE = 64

    def __init__(self, pkg, api, seed, smoke):
        rng = random.Random(seed)
        step = pkg.shuffles.Step
        # The pool is the log-uniform distribution's quantile grid.  The seed
        # draws the order of letters and inverses, targets and positions,
        # but not deck sizes, letter or inverse counts or word lengths, which
        # set the work, so every seed does the same work.  Seeded sizes
        # spread the median operation latency by half between seeds.
        low, high = self.POOL_OCTAVES[smoke]
        pool = {
            2 * round(2 ** (low + (high - low) * (i + 0.5) / self.POOL) / 2)
            for i in range(self.POOL)
        }
        self.ops = []
        for d in sorted(pool.union(self.FIXED), reverse=True):
            points = range(d) if d <= self.SAMPLE else rng.sample(range(d), self.SAMPLE)
            # every letter twice, so each word misses the cache for all five
            letters = list("LRIOV" * 2) + rng.choices("LRIOV", k=self.WORD_LENGTH - 10)
            inverted = [i < self.WORD_LENGTH // 2 for i in range(self.WORD_LENGTH)]
            rng.shuffle(letters)
            rng.shuffle(inverted)
            word = list(zip(letters, inverted))
            expected = [oracles.word_image(word, i, d) for i in points]
            self.ops.append(("word", d, tuple(step(*s) for s in word), points, expected))
            self.ops.append(("order", d, "L"))
            self.ops.append(("order", d, "R"))
            # word * R, then its inverse, parity and cycles
            composed = [oracles.image("R", e, d) for e in expected]
            self.ops.append(("mul", d, points, composed))
            self.ops.append(("inverse", d, points))
            sign = oracles.word_sign(word, d) * oracles.letter_sign("R", d)
            self.ops.append(("parity", d, sign))
            self.ops.append(("cycles", d))
            self.ops.append(("elmsley", d, self._target(rng, d)))
        large = self.LARGE[smoke]
        for letter in "LR":
            self.ops.append(("closed_order", large, letter, oracles.letter_order(letter, large)))
        self.ops.append(("elmsley", large, self._target(rng, large)))
        for k in self.SWAP_LOG_DECKS[smoke]:
            a, b = rng.sample(range(1 << k), 2)
            self.ops.append(("swap", k, a, b))

    @staticmethod
    def _target(rng, d):
        top = (d - 1).bit_length()  # every target takes `top` shuffles
        return rng.randrange(1 << (top - 1), d)

    def batch(self, api):
        latencies, wrong = array("d"), 0
        results = {}  # the latest word, R and product, operands of the ops after them
        for op in self.ops:
            start = perf_counter()
            answer = getattr(self, "_" + op[0])(api, results, *op[1:])
            latencies.append(perf_counter() - start)
            wrong += not answer()
        return latencies, wrong, 0.0

    # Each operation makes its library calls and returns a check to run
    # after the clock has stopped.

    def _word(self, api, results, d, word, points, expected):
        p = api.word_permutation(word, d)
        results["word"] = p
        return lambda: [p.image[i] for i in points] == expected

    def _order(self, api, results, d, letter):
        closed = api.shuffle_order(letter, d)
        results[letter] = api.shuffle_permutation(letter, d)
        walked = api.order(results[letter])
        return lambda: closed == walked

    def _closed_order(self, api, results, d, letter, expected):
        closed = api.shuffle_order(letter, d)
        return lambda: closed == expected

    def _elmsley(self, api, results, d, target):
        word = api.perfect_elmsley_word(target, d)
        return lambda: oracles.word_image(_pairs(word), 0, d) == target

    def _mul(self, api, results, d, points, composed):
        r = results["product"] = api.mul(results["word"], results["R"])
        return lambda: [r.image[i] for i in points] == composed

    def _inverse(self, api, results, d, points):
        img, inv = results["product"].image, api.inverse(results["product"]).image
        return lambda: all(inv[img[i]] == i for i in points)

    def _parity(self, api, results, d, sign):
        parity = api.parity(results["product"])
        return lambda: parity == sign

    def _cycles(self, api, results, d):
        r = results.pop("product")
        cycles = api.cycles(r)

        def check():
            img = r.image
            moved = sum(x != i for i, x in enumerate(img))
            return sum(map(len, cycles)) == moved and all(img[c[-1]] == c[0] for c in cycles)

        return check

    def _swap(self, api, results, k, a, b):
        word = api.unshuffle_swap_word(a, b, k)
        d = 1 << k
        return lambda: len(word) == k and [
            oracles.word_image(_pairs(word), x, d) for x in (a, b)
        ] == [b, a]

    def close(self):
        pass


def _pairs(word):
    """A word of the package's steps as (letter, inverted) pairs, for the oracles."""
    return [(s.letter, s.inverted) for s in word]


WORKLOADS = {"sweep": Sweep, "chain": Chain, "query": Query, "words": Words}

