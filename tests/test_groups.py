import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unshuffle import groups
from unshuffle.bsgs import EnumerationCapExceeded, bfs_enumerate
from unshuffle.groups import (
    FAMILIES,
    VerificationRecord,
    computed_parity_row,
    decimal_text,
    diaconis_words,
    family_generators,
    kernel_rule_applies,
    pair_kernel_order,
    parity_row,
    power_of_two_exponent,
    predict_group,
    predicted_kernel_order,
    records_to_json,
    substitute_unshuffles,
    verify_deck_size,
    verify_deck_sizes,
    write_report,
)
from unshuffle.shuffles import Step, format_word, word_permutation


def evaluate(word, size):
    return word_permutation(word, size)


class TestFamilies:
    def test_generators_frozen(self):
        left, right = family_generators("unshuffle", 6)
        assert left.image == (2, 5, 1, 4, 0, 3)
        assert right.image == (5, 2, 4, 1, 3, 0)
        inn, out = family_generators("perfect", 6)
        assert inn.image == (1, 3, 5, 0, 2, 4)
        assert out.image == (0, 2, 4, 1, 3, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_generators("riffle", 6)
        with pytest.raises(ValueError):
            predict_group("riffle", 6)

    def test_power_of_two_exponent(self):
        assert power_of_two_exponent(1) == 0
        assert power_of_two_exponent(2) == 1
        assert power_of_two_exponent(1024) == 10
        assert power_of_two_exponent(12) is None
        assert power_of_two_exponent(0) is None


class TestPredictions:
    # (family, deck size) -> (case, order, factored form)
    FROZEN = {
        ("unshuffle", 2): ("power_of_two", 2, "1*2^1"),
        ("perfect", 2): ("power_of_two", 2, "1*2^1"),
        ("unshuffle", 4): ("power_of_two", 8, "2*2^2"),
        ("unshuffle", 6): ("mod3", 48, "3!*2^3"),
        ("perfect", 6): ("mod3", 24, "3!*2^2"),
        ("unshuffle", 8): ("power_of_two", 24, "3*2^3"),
        ("perfect", 8): ("power_of_two", 24, "3*2^3"),
        ("unshuffle", 10): ("mod1", 1920, "5!*2^4"),
        ("perfect", 10): ("mod1", 1920, "5!*2^4"),
        ("unshuffle", 12): ("special12", 7680, "2^6*120"),
        ("perfect", 12): ("special12", 7680, "2^6*120"),
        ("unshuffle", 14): ("mod3", 645120, "7!*2^7"),
        ("perfect", 14): ("mod3", 322560, "7!*2^6"),
        ("unshuffle", 16): ("power_of_two", 64, "4*2^4"),
        ("unshuffle", 20): ("mod2", 3715891200, "10!*2^10"),
        ("perfect", 20): ("mod2", 3715891200, "10!*2^10"),
        ("unshuffle", 24): ("special24", 194641920, "2^11*95040"),
        ("perfect", 24): ("special24", 194641920, "2^11*95040"),
        ("unshuffle", 52): ("mod2", math.factorial(26) * 2**26, "26!*2^26"),
        ("perfect", 52): ("mod2", math.factorial(26) * 2**26, "26!*2^26"),
    }

    @pytest.mark.parametrize("family, size", sorted(FROZEN))
    def test_frozen(self, family, size):
        case, order, factored = self.FROZEN[(family, size)]
        got = predict_group(family, size)
        assert got.case == case
        assert got.order == order
        assert got.order_factored == factored
        assert got.family == family and got.deck_size == size

    def test_special_sizes_take_precedence(self):
        # 12 and 24 would otherwise land in the mod-residue cases, and 16
        # would land in mod0; the special routing must win
        assert predict_group("unshuffle", 12).case == "special12"
        assert predict_group("unshuffle", 24).case == "special24"
        assert predict_group("unshuffle", 16).case == "power_of_two"

    @pytest.mark.parametrize("size", range(2, 101, 2))
    def test_every_size_routes_somewhere(self, size):
        for family in FAMILIES:
            got = predict_group(family, size)
            assert got.order >= 1
            # the group sits inside the centrally symmetric permutations
            n = size // 2
            assert math.factorial(n) * 2**n % got.order == 0

    def test_families_differ_only_at_mod3(self):
        for size in range(2, 101, 2):
            a = predict_group("unshuffle", size)
            b = predict_group("perfect", size)
            if a.case == "mod3":
                assert a.order == 2 * b.order
            else:
                assert a.order == b.order

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            predict_group("unshuffle", 7)


class TestParities:
    def test_rows_frozen(self):
        assert parity_row(4) == (1, 1, 1, 1)
        assert parity_row(5) == (1, -1, 1, 1)
        assert parity_row(6) == (-1, -1, -1, 1)
        assert parity_row(7) == (-1, 1, 1, -1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parity_row(0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_computed_matches_predicted(self, n):
        assert computed_parity_row(2 * n) == parity_row(n)


class TestKernel:
    def test_rule_applicability(self):
        assert kernel_rule_applies(3)
        assert kernel_rule_applies(20)
        assert kernel_rule_applies(24)
        # powers of two and the two exceptional sizes are excluded
        for n in (1, 2, 4, 6, 8, 12, 16):
            assert not kernel_rule_applies(n)

    def test_predicted_orders(self):
        assert predicted_kernel_order(3) == 8
        assert predicted_kernel_order(5) == 32
        assert predicted_kernel_order(20) == 2**19
        assert predicted_kernel_order(24) == 2**23

    def test_predicted_rejects_inapplicable(self):
        with pytest.raises(ValueError):
            predicted_kernel_order(6)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_computed_matches_predicted(self, n):
        gens = family_generators("unshuffle", 2 * n)
        assert pair_kernel_order(gens) == predicted_kernel_order(n)

    def test_hundred_cards(self):
        gens = family_generators("unshuffle", 100)
        assert pair_kernel_order(gens) == predicted_kernel_order(50) == 2**50

    def test_two_thousand_cards(self):
        # the group and its pair image are both certified, no chain needed
        gens = family_generators("unshuffle", 2002)
        assert pair_kernel_order(gens) == predicted_kernel_order(1001) == 2**1001

    def test_known_group_order_shortcut(self):
        gens = family_generators("unshuffle", 6)
        assert pair_kernel_order(gens, group_order=48) == 8


class TestClassicWords:
    def test_frozen_strings(self):
        words = diaconis_words(k=3, r_values=[1, 2])
        assert format_word(words["c"]) == "OI'OIO'I'OIO'O'"
        assert len(words["w"]) == 48
        assert format_word(words["w"]) == (
            "O'IOOI'O'IOI'O'IO'O'IOI'OIO'I'OIO'O'OI'OIO'I'OIO'O'I'OOOI'O'IOI'O'IO'I'O"
        )
        assert format_word(words["b"]) == "O'IOOOI'I'I'O'IOOOI'I'I'"
        assert format_word(words["c'"]) == "O" + format_word(words["b"]) + "O'"
        assert format_word(words["h(1)"]) == "O'I"
        assert format_word(words["h(2)"]) == "O'O'II"

    def test_small_k(self):
        words = diaconis_words(k=1)
        assert format_word(words["b"]) == "O'IOI'O'IOI'"
        assert set(words) == {"c", "w", "b", "c'"}

    def test_k_from_deck_size(self):
        # 24 = 2^3 * 3, so k defaults to 3
        assert diaconis_words(deck_size=24)["b"] == diaconis_words(k=3)["b"]
        assert diaconis_words(deck_size=10)["b"] == diaconis_words(k=1)["b"]

    def test_rejects(self):
        with pytest.raises(ValueError):
            diaconis_words()
        with pytest.raises(ValueError):
            diaconis_words(k=0)
        with pytest.raises(ValueError):
            diaconis_words(k=2, r_values=[0])

    def test_first_return_word_frozen(self):
        got = evaluate(diaconis_words(k=1, r_values=[1])["h(1)"], 6)
        assert got.image == (1, 0, 3, 2, 5, 4)

    @pytest.mark.parametrize("n", [5, 7])
    def test_top_half_invariance(self, n):
        # for odd half-deck sizes, c and w must shuffle the top half of the
        # deck among itself (performance-order evaluation is what makes
        # this work)
        words = diaconis_words(deck_size=2 * n)
        for name in ("c", "w"):
            p = evaluate(words[name], 2 * n)
            assert all(p(i) < n for i in range(n)), name

    def test_c_and_w_land_in_the_perfect_group(self):
        closure = bfs_enumerate(family_generators("perfect", 10))
        words = diaconis_words(deck_size=10)
        assert evaluate(words["c"], 10) in closure
        assert evaluate(words["w"], 10) in closure


class TestSubstitution:
    def test_frozen(self):
        got = substitute_unshuffles("O'I")
        assert format_word(got.word) == "RL'"
        assert got.leading_reversal is False

        got = substitute_unshuffles("I")
        assert format_word(got.word) == "VL'"
        assert got.leading_reversal is True

        got = substitute_unshuffles("V")
        assert format_word(got.word) == "V"
        assert got.leading_reversal is True

        got = substitute_unshuffles("VV")
        assert got.word == ()
        assert got.leading_reversal is False

    def test_unshuffle_letters_pass_through(self):
        got = substitute_unshuffles("LR'")
        assert format_word(got.word) == "LR'"
        assert got.leading_reversal is False

    def test_result_avoids_faro_letters(self):
        words = diaconis_words(k=2, r_values=[1])
        for word in words.values():
            rewritten = substitute_unshuffles(word).word
            assert all(s.letter in "LRV" for s in rewritten)

    @given(
        st.lists(
            st.tuples(st.sampled_from("IOV"), st.booleans()).map(lambda t: Step(*t)),
            max_size=10,
        ).map(tuple),
        st.integers(min_value=1, max_value=40).map(lambda n: 2 * n),
    )
    @settings(max_examples=150)
    def test_substitution_preserves_permutation(self, word, size):
        got = substitute_unshuffles(word)
        assert evaluate(got.word, size) == evaluate(word, size)
        if not got.leading_reversal:
            assert all(s.letter in "LR" for s in got.word)

    @given(
        st.lists(
            st.tuples(st.sampled_from("LRIOV"), st.booleans()).map(lambda t: Step(*t)),
            max_size=10,
        ).map(tuple),
        st.integers(min_value=1, max_value=40).map(lambda n: 2 * n),
    )
    def test_substitution_handles_mixed_words(self, word, size):
        got = substitute_unshuffles(word)
        assert evaluate(got.word, size) == evaluate(word, size)

    @pytest.mark.parametrize("size", [10, 24])
    def test_classic_words_rewrite_exactly(self, size):
        for name, word in diaconis_words(deck_size=size).items():
            got = substitute_unshuffles(word)
            assert evaluate(got.word, size) == evaluate(word, size), name


class TestVerification:
    @pytest.mark.parametrize("engine, used", [("auto", "schreier"), ("bfs", "bfs")])
    def test_small_deck_engine(self, engine, used):
        # auto builds the certified chain even where BFS would fit; BFS
        # runs when named and gives the same record
        record = verify_deck_size(6, "unshuffle", engine=engine)
        assert record.engine_used == used
        assert record.computed_order == 48
        assert record.predicted_order == 48
        assert record.match is True
        assert record.parities == (-1, 1, 1, -1)
        assert record.kernel_order_computed == 8
        assert record.kernel_order_predicted == 8

    def test_large_deck_uses_chain(self):
        # the chain still runs when named, where auto has a certificate
        record = verify_deck_size(18, "perfect", engine="schreier")
        assert record.engine_used == "schreier"
        assert record.computed_order == record.predicted_order == math.factorial(9) * 2**8
        assert record.kernel_order_computed is None

    def test_auto_certifies_off_the_special_sizes(self):
        # auto and schreier records differ only in engine_used, which is
        # "affine" at 16 and 32, "schreier" at 14 and 24 and "certificate"
        # everywhere else
        for size in range(14, 37, 2):
            for family in FAMILIES:
                auto = verify_deck_size(size, family)
                forced = verify_deck_size(size, family, engine="schreier")
                expected = {16: "affine", 32: "affine", 14: "schreier", 24: "schreier"}.get(
                    size, "certificate"
                )
                assert auto.engine_used == expected, (size, family)
                assert auto == dataclasses.replace(forced, engine_used=expected)

    def test_kernel_reported_only_when_rule_applies(self):
        assert verify_deck_size(12, "unshuffle").kernel_order_computed is None
        assert verify_deck_size(10, "unshuffle").kernel_order_computed == 32
        assert verify_deck_size(10, "perfect").kernel_order_computed is None

    def test_forced_bfs_degrades_to_unmatched(self):
        # a forced engine that cannot finish raises, as compute_order does
        with pytest.raises(EnumerationCapExceeded):
            verify_deck_size(18, "perfect", engine="bfs", cap=1000)

    def test_forced_bfs_past_byte_limit_degrades(self):
        with pytest.raises(EnumerationCapExceeded):
            verify_deck_size(256, "perfect", engine="bfs")

    def test_forced_bfs_sweep_stops_at_first_infeasible_record(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bfs_enumerate(*args, **kwargs)

        monkeypatch.setattr(groups, "bfs_enumerate", counted)
        with pytest.raises(EnumerationCapExceeded):
            verify_deck_sizes([18, 20, 22], engine="bfs", cap=1000)
        assert len(calls) == 1

    def test_auto_past_byte_limit_is_affine(self):
        # 256 = 2^8 cards, past BFS's byte packing: auto answers with the
        # affine engine
        record = verify_deck_size(256, "perfect")
        assert record.engine_used == "affine"
        assert record.computed_order == record.predicted_order == 2048

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            verify_deck_size(6, "unshuffle", engine="magic")

    def test_sweep_orders_and_dedupes(self):
        records = verify_deck_sizes([6, 6, 4])
        assert [(r.two_n, r.family) for r in records] == [
            (4, "perfect"),
            (4, "unshuffle"),
            (6, "perfect"),
            (6, "unshuffle"),
        ]
        assert all(r.match for r in records)


class TestReports:
    def test_to_fields_frozen(self):
        record = VerificationRecord(
            two_n=6,
            family="unshuffle",
            engine_used="bfs",
            computed_order=48,
            predicted_order=48,
            predicted_order_factored="3!*2^3",
            match=True,
            parities=(-1, 1, 1, -1),
            kernel_order_computed=8,
            kernel_order_predicted=8,
        )
        assert record.to_fields() == {
            "two_n": 6,
            "family": "unshuffle",
            "engine_used": "bfs",
            "computed_order": "48",
            "predicted_order": "48",
            "predicted_order_factored": "3!*2^3",
            "match": True,
            "parities": {"sign_L": -1, "sign_R": 1, "pair_sign_L": 1, "pair_sign_R": -1},
            "kernel_order_computed": "8",
            "kernel_order_predicted": "8",
        }

    def test_orders_serialize_as_strings(self):
        record = verify_deck_size(52, "unshuffle")
        fields = record.to_fields()
        assert fields["computed_order"] == str(math.factorial(26) * 2**26)
        assert isinstance(fields["predicted_order"], str)

    def test_orders_past_the_int_string_limit(self):
        # from 2n = 2848 on the orders have more than the 4300 digits str()
        # converts by default
        fields = verify_deck_size(2848, "perfect").to_fields()
        assert fields["match"] is True
        assert len(fields["computed_order"]) > 4300
        assert fields["computed_order"] == fields["predicted_order"]
        assert decimal_text(10**5000) == "1" + "0" * 5000

    def test_decimal_text_past_the_limit_matches_str(self):
        # below the limit str() answers; above it the split conversion must
        # give the same digits, which str() gives once the limit is raised
        values = [10**4299 + 7, 3**9013, -(7**5087), 5**71529 - 1, 2**166096 + 12345]
        limit = sys.get_int_max_str_digits()
        texts = [decimal_text(v) for v in values]
        sys.set_int_max_str_digits(60_000)
        try:
            assert texts == [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_records_to_json(self):
        records = verify_deck_sizes([4, 6])
        text = records_to_json(records)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert [entry["two_n"] for entry in parsed] == [4, 4, 6, 6]

    def test_records_to_json_rejects_empty(self):
        with pytest.raises(ValueError):
            records_to_json([])

    def test_write_report_is_stable(self, tmp_path):
        records = verify_deck_sizes([4, 6])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_report(records, first)
        write_report(records, second)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())
