import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unshuffle
from unshuffle import groups, perm
from unshuffle.bsgs import StabilizerChain, bfs_enumerate
from unshuffle.cli import main
from unshuffle.shuffles import Step, shuffle_permutation, word_permutation


def child_env():
    """The environment for a child ``python -m unshuffle``, importing this
    checkout's package."""
    paths = [str(Path(unshuffle.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def one_deck(command, size):
    """Arguments running group-order or verify at one deck size."""
    if command == "group-order":
        return [command, "--deck", size]
    return [command, "--min", size, "--max", size]


class TestShuffle:
    def test_reversal(self, run_cli):
        code, out, _ = run_cli("shuffle", "--deck", 6, "--word", "V")
        assert code == 0
        assert out == "5,4,3,2,1,0\n"

    def test_show_steps_left(self, run_cli):
        code, out, _ = run_cli("shuffle", "--deck", 6, "--word", "L", "--show-steps")
        assert code == 0
        assert out == "start: 0,1,2,3,4,5\nL: 4,2,0,5,3,1\n"

    def test_show_steps_right(self, run_cli):
        _, out, _ = run_cli("shuffle", "--deck", 6, "--word", "R", "--show-steps")
        assert out == "start: 0,1,2,3,4,5\nR: 5,3,1,4,2,0\n"

    def test_multi_step_word(self, run_cli):
        _, out, _ = run_cli("shuffle", "--deck", 6, "--word", "RL'V", "--show-steps")
        lines = out.splitlines()
        assert lines[0] == "start: 0,1,2,3,4,5"
        assert lines[1].startswith("R: ")
        assert lines[2].startswith("L': ")
        assert lines[3].startswith("V: ")

    def test_empty_word(self, run_cli):
        code, out, _ = run_cli("shuffle", "--deck", 6, "--word", "")
        assert code == 0
        assert out == "0,1,2,3,4,5\n"

    def test_json(self, run_cli):
        code, out, _ = run_cli("shuffle", "--deck", 6, "--word", "V", "--format", "json")
        payload = json.loads(out)
        assert payload == {"deck": 6, "word": "V", "arrangement": [5, 4, 3, 2, 1, 0]}

    def test_json_with_steps(self, run_cli):
        _, out, _ = run_cli(
            "shuffle", "--deck", 6, "--word", "L", "--show-steps", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["steps"] == [
            {"step": "start", "arrangement": [0, 1, 2, 3, 4, 5]},
            {"step": "L", "arrangement": [4, 2, 0, 5, 3, 1]},
        ]

    @pytest.mark.parametrize(
        "deck, word",
        [(7, "L"), (7, ""), (2097152, "")],
        ids=["odd", "odd-empty-word", "past-max-deck-empty-word"],
    )
    def test_odd_deck_is_usage_error(self, run_cli, deck, word):
        code, _, err = run_cli("shuffle", "--deck", deck, "--word", word)
        assert code == 2
        assert "error:" in err

    def test_bad_word_is_usage_error(self, run_cli):
        code, _, err = run_cli("shuffle", "--deck", 6, "--word", "LX")
        assert code == 2
        assert "error:" in err


class TestStepDecks:
    # every deck is a gather of the one before, so no command that prints
    # decks inverts or composes a permutation
    FROZEN = {
        ("shuffle", "--deck", 6, "--word", "RL'V", "--show-steps"): (
            "start: 0,1,2,3,4,5\nR: 5,3,1,4,2,0\nL': 1,0,3,2,5,4\nV: 4,5,2,3,0,1\n"
        ),
        ("shuffle", "--deck", 6, "--word", "RL'V"): "4,5,2,3,0,1\n",
        ("swap", "--deck", 8, "--a", 0, "--b", 5): (
            "RLR\n"
            "start: 0,1,2,3,4,5,6,7\n"
            "R: 7,5,3,1,6,4,2,0\n"
            "L: 2,6,3,7,0,4,1,5\n"
            "R: 5,4,7,6,1,0,3,2\n"
        ),
        ("elmsley", "--deck", 6, "--target", 3, "--show-steps"): (
            "II\nstart: 0,1,2,3,4,5\nI: 3,0,4,1,5,2\nI: 1,3,5,0,2,4\n"
        ),
    }

    @pytest.mark.parametrize(
        "args", list(FROZEN), ids=["shuffle-steps", "shuffle", "swap", "elmsley-steps"]
    )
    def test_decks_need_no_inverse_or_composition(self, run_cli, monkeypatch, args):
        def refuse(*_):
            raise AssertionError("a printed deck inverted or composed a permutation")

        monkeypatch.setattr(perm, "_invert", refuse)
        monkeypatch.setattr(perm, "_compose", refuse)
        code, out, _ = run_cli(*args)
        assert code == 0
        assert out == self.FROZEN[args]


class TestPerm:
    def test_images_default(self, run_cli):
        code, out, _ = run_cli("perm", "--deck", 6, "--symbol", "L")
        assert code == 0
        assert out == "2,5,1,4,0,3\n"

    def test_cycles(self, run_cli):
        _, out, _ = run_cli("perm", "--deck", 6, "--symbol", "L", "--format", "cycles")
        assert out == "(0 2 1 5 3 4)\n"

    def test_inverse_symbol(self, run_cli):
        _, out, _ = run_cli("perm", "--deck", 6, "--symbol", "L'")
        assert out == "4,2,0,5,3,1\n"

    def test_out_shuffle_fixes_endpoints(self, run_cli):
        # cards 0 and 7 are fixed, so they are absent from the cycle form
        _, out, _ = run_cli("perm", "--deck", 8, "--symbol", "O", "--format", "cycles")
        assert out.strip() == "(1 2 4)(3 6 5)"

    def test_multi_letter_symbol_rejected(self, run_cli):
        code, _, err = run_cli("perm", "--deck", 6, "--symbol", "LR")
        assert code == 2
        assert "single shuffle symbol" in err


class TestOrder:
    def test_standard_deck(self, run_cli):
        assert run_cli("order", "--deck", 52, "--symbol", "L")[1] == "52\n"
        assert run_cli("order", "--deck", 52, "--symbol", "R")[1] == "8\n"

    def test_cycle_fallback_for_faros(self, run_cli):
        assert run_cli("order", "--deck", 8, "--symbol", "I")[1] == "6\n"
        assert run_cli("order", "--deck", 8, "--symbol", "V")[1] == "2\n"
        assert run_cli("order", "--deck", 52, "--symbol", "L'")[1] == "52\n"

    @pytest.mark.parametrize("symbol", ["L'", "R'", "I'", "O'", "V'"])
    def test_inverse_unshuffles_use_closed_form(self, run_cli, symbol):
        for size in range(2, 201, 2):
            expected = shuffle_permutation(Step(symbol[0], inverted=True), size).order()
            assert run_cli("order", "--deck", size, "--symbol", symbol)[1] == f"{expected}\n"

    def test_json(self, run_cli):
        _, out, _ = run_cli("order", "--deck", 52, "--symbol", "R", "--format", "json")
        assert json.loads(out) == {"deck": 52, "symbol": "R", "order": 8}


class TestSwap:
    def test_frozen_example(self, run_cli):
        code, out, _ = run_cli("swap", "--deck", 8, "--a", 0, "--b", 5)
        assert code == 0
        assert out == (
            "RLR\n"
            "start: 0,1,2,3,4,5,6,7\n"
            "R: 7,5,3,1,6,4,2,0\n"
            "L: 2,6,3,7,0,4,1,5\n"
            "R: 5,4,7,6,1,0,3,2\n"
        )

    def test_final_state_swaps_cards(self, run_cli):
        _, out, _ = run_cli("swap", "--deck", 16, "--a", 6, "--b", 11)
        assert out.splitlines()[0] == "LRLL"
        final = [int(x) for x in out.splitlines()[-1].split(": ")[1].split(",")]
        assert final[6] == 11 and final[11] == 6

    def test_json(self, run_cli):
        _, out, _ = run_cli("swap", "--deck", 8, "--a", 0, "--b", 5, "--format", "json")
        payload = json.loads(out)
        assert payload["word"] == "RLR"
        assert len(payload["steps"]) == 4
        assert payload["steps"][-1]["arrangement"][0] == 5

    def test_non_power_of_two_rejected(self, run_cli):
        code, _, err = run_cli("swap", "--deck", 6, "--a", 0, "--b", 1)
        assert code == 2
        assert "power-of-two" in err

    @pytest.mark.parametrize(
        "deck, message",
        [
            (2097152, "deck size 2097152 exceeds the supported maximum 1048576"),
            (1, "deck size must be a positive even integer, got 1"),
        ],
    )
    def test_deck_size_checked_first(self, run_cli, deck, message):
        # the message names the deck the user typed, as every --deck command does
        code, _, err = run_cli("swap", "--deck", deck, "--a", 0, "--b", 1)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_position_out_of_range(self, run_cli):
        code, _, _ = run_cli("swap", "--deck", 8, "--a", 0, "--b", 8)
        assert code == 2


class TestElmsley:
    def test_frozen_example(self, run_cli):
        code, out, _ = run_cli("elmsley", "--deck", 8, "--target", 5)
        assert code == 0
        assert out == "IOI\n"

    def test_target_zero_gives_empty_word(self, run_cli):
        code, out, _ = run_cli("elmsley", "--deck", 8, "--target", 0)
        assert code == 0
        assert out == "\n"

    def test_show_steps(self, run_cli):
        _, out, _ = run_cli("elmsley", "--deck", 8, "--target", 5, "--show-steps")
        lines = out.splitlines()
        assert lines[0] == "IOI"
        assert lines[1] == "start: 0,1,2,3,4,5,6,7"
        assert len(lines) == 5
        final = [int(x) for x in lines[-1].split(": ")[1].split(",")]
        assert final[5] == 0

    def test_json(self, run_cli):
        _, out, _ = run_cli("elmsley", "--deck", 8, "--target", 5, "--format", "json")
        assert json.loads(out) == {"deck": 8, "target": 5, "word": "IOI"}

    def test_works_on_non_power_decks(self, run_cli):
        code, out, _ = run_cli("elmsley", "--deck", 52, "--target", 6)
        assert code == 0
        assert out == "IIO\n"

    def test_target_out_of_range(self, run_cli):
        assert run_cli("elmsley", "--deck", 8, "--target", 8)[0] == 2


class TestGroupOrder:
    def test_default_family(self, run_cli):
        assert run_cli("group-order", "--deck", 6)[1] == "48\n"
        assert run_cli("group-order", "--deck", 6, "--gens", "IO")[1] == "24\n"

    def test_engines_agree(self, run_cli):
        # the printed order against both engines, called directly
        assert run_cli("group-order", "--deck", 12)[1] == "7680\n"
        gens = groups.family_generators("unshuffle", 12)
        assert bfs_enumerate(gens).order == StabilizerChain(gens).order == 7680

    def test_custom_generators(self, run_cli):
        assert run_cli("group-order", "--deck", 6, "--gens", "V")[1] == "2\n"
        # LI evaluates to V, so the groups coincide
        assert run_cli("group-order", "--deck", 6, "--gens", "LI")[1] == "2\n"

    def test_big_deck_via_chain(self, run_cli):
        # the certified order that group-order prints, against a chain
        order = math.factorial(26) * 2**26
        assert StabilizerChain(groups.family_generators("unshuffle", 52)).order == order
        assert run_cli("group-order", "--deck", 52)[1] == f"{order}\n"

    def test_json_reports_engine(self, run_cli):
        _, out, _ = run_cli("group-order", "--deck", 6, "--format", "json")
        payload = json.loads(out)
        assert payload == {"deck": 6, "gens": "LR", "engine_used": "schreier", "order": "48"}

    def test_json_reports_certificate(self, run_cli):
        order = str(math.factorial(26) * 2**26)
        _, out, _ = run_cli("group-order", "--deck", 52, "--format", "json")
        payload = {"deck": 52, "gens": "LR", "engine_used": "certificate", "order": order}
        assert json.loads(out) == payload

    @pytest.mark.parametrize("gens, order", [("L,I", "8"), ("LL'", "1")])
    def test_affine_at_a_power_of_two(self, run_cli, gens, order):
        # mixed families and the identity alone are affine too
        args = ("group-order", "--deck", 16, "--gens", gens, "--format", "json")
        affine = json.loads(run_cli(*args)[1])
        chain = StabilizerChain([word_permutation(w, 16) for w in gens.split(",")])
        assert affine["engine_used"] == "affine"
        assert affine["order"] == str(chain.order) == order

    def test_order_past_the_int_string_limit(self, run_cli):
        # 2n = 2848 is the first deck size whose order has over 4300 digits
        code, out, _ = run_cli("group-order", "--deck", 2848, "--gens", "IO")
        assert code == 0
        assert out.strip() == groups.decimal_text(groups.predict_group("perfect", 2848).order)

    def test_forced_bfs_stops_in_bounded_memory(self):
        # the unpatched element limit ends <L, R> at 18 cards, 9! * 2^9
        # elements, long before the enumeration fills memory.  A child's
        # ru_maxrss counts the process it was forked from, so a small
        # launcher runs the enumeration and prints its exit code and peak
        launcher = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "child.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(child.returncode, usage.ru_maxrss)\n"
        )
        argv = [
            sys.executable, "-c", launcher,
            sys.executable, "-c",
            "from unshuffle import bfs_enumerate, family_generators\n"
            "bfs_enumerate(family_generators('unshuffle', 18))\n",
        ]
        done = subprocess.run(
            argv, capture_output=True, text=True, env=child_env(), timeout=120, check=True
        )
        code, peak = map(int, done.stdout.split())
        assert code == 1
        assert "EnumerationCapExceeded: group has more than 1000000 elements" in done.stderr
        # ru_maxrss is in kilobytes on Linux
        assert peak < 250 * 1024

    @pytest.mark.parametrize("family, letters", [("LR", "L,R"), ("IO", "I,O")])
    def test_family_equals_its_letter_list(self, run_cli, family, letters):
        # as a word list "LR" would be the one generator L*R; the family
        # shorthand names the pair
        expected = run_cli("group-order", "--deck", 6, "--gens", family)[1]
        assert run_cli("group-order", "--deck", 6, "--gens", letters)[1] == expected
        assert expected == {"LR": "48\n", "IO": "24\n"}[family]

    def test_bad_generator_list(self, run_cli):
        assert run_cli("group-order", "--deck", 6, "--gens", "L,,R")[0] == 2

    def test_unknown_engine_is_usage_error(self, run_cli):
        # there is no engine option: the policy alone picks the engine
        for command in ("group-order", "verify"):
            code, out, err = run_cli(*one_deck(command, 24), "--engine", "schreier")
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --engine schreier" in err

    @pytest.mark.parametrize("engine", ["auto", "schreier"])
    @pytest.mark.parametrize("gens, family", [("LR", "unshuffle"), ("IO", "perfect")])
    def test_agrees_with_verify_record(self, run_cli, engine, gens, family):
        # group-order reports verify's engine and order ("auto"), and the
        # order of a chain built directly ("schreier")
        for size in range(2, 41, 2):
            _, out, _ = run_cli(
                "group-order", "--deck", size, "--gens", gens, "--format", "json"
            )
            payload = json.loads(out)
            got = (payload["engine_used"], int(payload["order"]))
            if engine == "auto":
                record = groups.verify_deck_size(size, family)
                assert got == (record.engine_used, record.computed_order), size
            else:
                chain = StabilizerChain(groups.family_generators(family, size))
                assert got[1] == chain.order, size


class TestGroupPredict:
    def test_text(self, run_cli):
        code, out, _ = run_cli("group-predict", "--deck", 24)
        assert code == 0
        assert out == (
            "case: special24\n"
            "order: 194641920 (2^11*95040)\n"
            "structure: Z_2^11 : M_12\n"
        )

    def test_perfect_family(self, run_cli):
        _, out, _ = run_cli("group-predict", "--deck", 14, "--family", "perfect")
        assert "order: 322560 (7!*2^6)" in out

    def test_json(self, run_cli):
        _, out, _ = run_cli("group-predict", "--deck", 6, "--format", "json")
        payload = json.loads(out)
        assert payload["case"] == "mod3"
        assert payload["order"] == "48"
        assert payload["order_factored"] == "3!*2^3"


class TestGroupMember:
    def test_reversal_outside_perfect_group(self, run_cli):
        code, out, _ = run_cli(
            "group-member", "--deck", 6, "--gens", "IO", "--perm", "5,4,3,2,1,0"
        )
        assert code == 0
        assert out == "false\n"

    def test_reversal_inside_perfect_group_at_twelve(self, run_cli):
        _, out, _ = run_cli(
            "group-member", "--deck", 12, "--gens", "IO",
            "--perm", ",".join(str(11 - i) for i in range(12)),
        )
        assert out == "true\n"

    def test_cycle_text_input(self, run_cli):
        _, out, _ = run_cli(
            "group-member", "--deck", 6, "--perm", "(0 5)(1 4)(2 3)"
        )
        assert out == "true\n"

    def test_json(self, run_cli):
        _, out, _ = run_cli(
            "group-member", "--deck", 6, "--gens", "IO",
            "--perm", "5,4,3,2,1,0", "--format", "json",
        )
        assert json.loads(out) == {"deck": 6, "gens": "IO", "member": False}

    def test_power_of_two_needs_no_chain(self, run_cli, monkeypatch):
        def no_chain(*args):
            raise AssertionError("a 2^k deck built a chain")

        monkeypatch.setattr(groups, "StabilizerChain", no_chain)
        reversal = ",".join(str(4095 - i) for i in range(4096))
        assert run_cli("group-member", "--deck", 4096, "--perm", reversal)[1] == "true\n"
        _, out, _ = run_cli("group-member", "--deck", 4096, "--gens", "IO", "--perm", "(0 4095)")
        assert out == "false\n"

    @pytest.mark.parametrize("gens", ["LR", "IO"])
    def test_certified_size_needs_no_chain(self, run_cli, monkeypatch, gens):
        # a chain on 10002 points would need gigabytes; the certificate
        # answers by central symmetry and the trivial sign characters
        def no_chain(*args):
            raise AssertionError("a certified deck built a chain")

        monkeypatch.setattr(groups, "StabilizerChain", no_chain)
        args = ("group-member", "--deck", 10002, "--gens", gens, "--perm")
        assert run_cli(*args, "(0 10001)") == (0, "true\n", "")
        assert run_cli(*args, "(0 1)") == (0, "false\n", "")

    def test_identity_generators(self, run_cli):
        # off 2^k no witness exists for the trivial group, so a chain answers
        assert run_cli("group-order", "--deck", 10, "--gens", "VV")[1] == "1\n"
        assert run_cli("group-member", "--deck", 10, "--gens", "VV", "--perm", "()")[1] == "true\n"
        assert run_cli("group-member", "--deck", 10, "--gens", "VV", "--perm", "(0 9)")[1] == "false\n"

    def test_degree_mismatch(self, run_cli):
        code, _, err = run_cli("group-member", "--deck", 6, "--perm", "1,0")
        assert code == 2
        assert "degree" in err

    def test_malformed_permutation(self, run_cli):
        assert run_cli("group-member", "--deck", 6, "--perm", "nope")[0] == 2

    @pytest.mark.parametrize(
        "text", ["\u0660,1,2,3,4,5", "(\u0661 2)", "\uff10,1,2,3,4,5", "+0,1,2,3,4,5"]
    )
    def test_ascii_digits_only(self, run_cli, text):
        # int() and the regex \d read Arabic-Indic and full-width digits
        code, out, err = run_cli("group-member", "--deck", 6, "--perm", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad ")


class TestVerify:
    def test_small_sweep(self, run_cli):
        code, out, _ = run_cli("verify", "--min", 4, "--max", 8)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "6 records, 6 match"
        assert all("match=yes" in line for line in lines[:-1])

    def test_report_file(self, run_cli, tmp_path):
        # the --out report is byte for byte what --format json prints, ends in
        # one newline, and is the same on every run
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        code, out, _ = run_cli("verify", "--min", 2, "--max", 10, "--out", first, "--format", "json")
        assert code == 0
        assert run_cli("verify", "--min", 2, "--max", 10, "--out", second)[0] == 0
        report = first.read_bytes()
        assert report == out.encode("utf-8")
        assert report.endswith(b"]\n")
        assert second.read_bytes() == report
        parsed = json.loads(report)
        assert [entry["two_n"] for entry in parsed] == [2, 2, 4, 4, 6, 6, 8, 8, 10, 10]
        assert all(entry["match"] for entry in parsed)

    def test_json_format(self, run_cli):
        _, out, _ = run_cli("verify", "--min", 6, "--max", 6, "--format", "json")
        parsed = json.loads(out)
        assert [entry["family"] for entry in parsed] == ["perfect", "unshuffle"]
        assert parsed[1]["kernel_order_computed"] == "8"

    def test_unwritable_report_is_usage_error(self, run_cli, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, _, err = run_cli("verify", "--min", 2, "--max", 4, "--out", path)
        assert code == 2
        assert err.startswith("error: ")
        assert not path.exists()

    def test_inverted_range_rejected(self, run_cli):
        assert run_cli("verify", "--min", 10, "--max", 8)[0] == 2

    def test_empty_range_rejected(self, run_cli):
        assert run_cli("verify", "--min", 3, "--max", 3)[0] == 2

    def test_huge_max_rejected_before_any_record(self, run_cli):
        start = time.perf_counter()
        code, out, err = run_cli("verify", "--min", 2, "--max", 10**12)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "exceeds the supported maximum" in err

    def test_mismatch_exit_code(self, run_cli, monkeypatch):
        true_prediction = groups.predict_group

        def wrong_at_six(family, deck_size):
            prediction = true_prediction(family, deck_size)
            if (family, deck_size) == ("perfect", 6):
                prediction = groups.GroupPrediction(
                    prediction.family,
                    prediction.deck_size,
                    prediction.case,
                    prediction.order + 1,
                    prediction.order_factored,
                    prediction.characterization,
                    prediction.kernel_order,
                )
            return prediction

        monkeypatch.setattr(groups, "predict_group", wrong_at_six)
        code, out, _ = run_cli("verify", "--min", 4, "--max", 6)
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "4 records, 3 match"
        assert [("match=NO" in line) for line in lines[:-1]] == [False, False, True, False]
        assert "2n=6 family=perfect" in lines[2]

        code, out, _ = run_cli("verify", "--min", 4, "--max", 6, "--format", "json")
        assert code == 1
        assert [entry["match"] for entry in json.loads(out)] == [True, True, False, True]

    def test_sign_mismatch_exit_code(self, run_cli, monkeypatch):
        true_row = groups.parity_row
        monkeypatch.setattr(
            groups, "parity_row", lambda n: (1, 1, 1, 1) if n == 3 else true_row(n)
        )
        code, out, _ = run_cli("verify", "--min", 4, "--max", 6)
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "4 records, 2 match"
        # the signs are the unshuffles', so both families' records at 2n = 6
        assert [("match=NO" in line) for line in lines[:-1]] == [False, False, True, True]
        assert "2n=6" in lines[2] and "2n=6" in lines[3]

    def test_kernel_mismatch_exit_code(self, run_cli, monkeypatch):
        true_kernel = groups.pair_kernel_order
        monkeypatch.setattr(
            groups,
            "pair_kernel_order",
            lambda gens, group=None: true_kernel(gens, group)
            * (2 if len(gens[0]) == 6 else 1),
        )
        code, out, _ = run_cli("verify", "--min", 4, "--max", 6)
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "4 records, 3 match"
        assert [("match=NO" in line) for line in lines[:-1]] == [False, False, False, True]
        assert "2n=6 family=unshuffle" in lines[3]


# any text, and text from the characters the three grammars use, so that
# some draws parse
CLI_TEXT = st.text() | st.text(alphabet="LRIOV' ,()012345\t\u0661\uff10")


class TestArbitraryText:
    """Any text given to --word, --gens or --perm gets a result or a usage
    error, never a traceback."""

    @given(st.sampled_from(["shuffle", "group-order", "member-gens", "member-perm"]), CLI_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_exits_zero_or_two(self, command, text):
        argv = {
            "shuffle": ["shuffle", "--deck", "6", f"--word={text}"],
            "group-order": ["group-order", "--deck", "6", f"--gens={text}"],
            "member-gens": ["group-member", "--deck", "6", f"--gens={text}", "--perm=0,1,2,3,4,5"],
            "member-perm": ["group-member", "--deck", "6", f"--perm={text}"],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2)


class TestUsage:
    def test_no_arguments(self, run_cli):
        assert run_cli()[0] == 2

    def test_unknown_command(self, run_cli):
        assert run_cli("bogus")[0] == 2

    def test_missing_required_flag(self, run_cli):
        assert run_cli("shuffle", "--deck", 6)[0] == 2

    def test_help_exits_zero(self, run_cli):
        assert run_cli("--help")[0] == 0

    def test_reader_closes_the_pipe_early(self, tmp_path):
        # 65536 cards print about 380 kB, more than a pipe holds, so the
        # command is still writing when the reader stops after 10 bytes
        argv = [sys.executable, "-m", "unshuffle", "shuffle", "--deck", "65536", "--word", "L'"]
        with open(tmp_path / "stderr.txt", "wb") as stderr:
            process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env()
            )
            assert process.stdout.read(10) == b"32767,6553"
            process.stdout.close()
            code = process.wait(timeout=60)
        assert (tmp_path / "stderr.txt").read_bytes() == b""
        assert code == 141

    def test_import_loads_no_dataclasses(self):
        # a fresh interpreter, since this one has loaded them for pytest;
        # every command runs in a new process that would pay for them
        code = (
            "import sys, unshuffle, unshuffle.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=child_env(), timeout=60, check=True,
        )
        assert result.stdout == "[]\n"
        # nor typing, under -S: without site, whose .pth files may load it
        result = subprocess.run(
            [sys.executable, "-S", "-c", code.replace("'tokenize'", "'tokenize', 'typing'")],
            capture_output=True, text=True, env=child_env(), timeout=60, check=True,
        )
        assert result.stdout == "[]\n"
