"""Command line front end.  See docs/unshuffle.1.md for the full page.

Exit status: 0 success, 1 verification mismatch, 2 usage error, 141
standard output closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque

# StabilizerChain and bfs_enumerate are not called here; they are bound only
# because perfbench/tracing.py rebinds them in this module
from .bsgs import StabilizerChain, bfs_enumerate  # noqa: F401
from .elmsley import perfect_elmsley_word, unshuffle_swap_word
from .groups import (
    FAMILIES,
    compute_group,
    decimal_text,
    family_generators,
    group_contains,
    power_of_two_exponent,
    predict_group,
    verify_deck_sizes,
)
from .perm import Permutation
from .shuffles import (
    Step,
    as_word,
    check_deck_size,
    format_word,
    shuffle_order,
    shuffle_permutation,
    walk_deck,
    word_permutation,
)

# 141 is the shell's status for a command killed by SIGPIPE (128 + 13)
OK, MISMATCH, USAGE, BROKEN_PIPE = 0, 1, 2, 141


def _steps(word, deck_size) -> list[dict]:
    """The sorted deck, then the deck after each step of the word."""
    labels = ["start", *map(str, word)]
    return [
        {"step": label, "arrangement": list(deck)}
        for label, deck in zip(labels, walk_deck(word, deck_size))
    ]


def _step_lines(steps) -> list[str]:
    return [f"{s['step']}: {','.join(map(str, s['arrangement']))}" for s in steps]


def _parse_step(token: str) -> Step:
    word = as_word(token)
    if len(word) != 1:
        raise ValueError(f"expected a single shuffle symbol, got {token!r}")
    return word[0]


def _parse_generators(gens: str, deck_size: int):
    for family, letters in FAMILIES.items():
        if gens == "".join(letters):
            return family_generators(family, deck_size)
    words = [w.strip() for w in gens.split(",")]
    if not all(words):
        raise ValueError(f"bad generator list {gens!r}")
    return tuple(word_permutation(w, deck_size) for w in words)


def _parse_permutation(text: str, deck_size: int) -> Permutation:
    if text.lstrip().startswith("("):
        p = Permutation.from_cycle_text(text, deck_size)
    else:
        p = Permutation.from_image_text(text)
    if p.degree != deck_size:
        raise ValueError(f"permutation degree {p.degree} does not match deck size {deck_size}")
    return p


def _json_text(payload) -> str:
    # the one JSON layout, printed with its newline: every --format json
    # output and the verify --out report
    return json.dumps(payload, indent=2)


# Each handler returns (exit status, JSON payload, text lines); main renders one of them.


def _cmd_shuffle(args):
    word = as_word(args.word)
    payload = {"deck": args.deck, "word": format_word(word)}
    if args.show_steps:
        steps = _steps(word, args.deck)
        payload.update(arrangement=steps[-1]["arrangement"], steps=steps)
        return OK, payload, _step_lines(steps)
    # a one-slot deque keeps only the last deck, and nothing holds it once
    # it is copied into the payload
    payload["arrangement"] = list(deque(walk_deck(word, args.deck), maxlen=1).pop())
    return OK, payload, [",".join(map(str, payload["arrangement"]))]


def _cmd_perm(args):
    p = shuffle_permutation(_parse_step(args.symbol), args.deck)
    return OK, None, [p.to_cycle_text() if args.format == "cycles" else p.to_image_text()]


def _cmd_order(args):
    step = _parse_step(args.symbol)
    # an inverse has the same order, so every symbol uses the closed form
    order = shuffle_order(step.letter, args.deck)
    return OK, {"deck": args.deck, "symbol": str(step), "order": order}, [str(order)]


def _cmd_swap(args):
    k = power_of_two_exponent(check_deck_size(args.deck))
    if k is None:
        raise ValueError(f"swap words need a power-of-two deck size, got {args.deck}")
    word = unshuffle_swap_word(args.a, args.b, k)
    steps = _steps(word, args.deck)
    word_text = format_word(word)
    payload = {"deck": args.deck, "a": args.a, "b": args.b, "word": word_text, "steps": steps}
    return OK, payload, [word_text, *_step_lines(steps)]


def _cmd_elmsley(args):
    word = perfect_elmsley_word(args.target, args.deck)
    payload = {"deck": args.deck, "target": args.target, "word": format_word(word)}
    lines = [payload["word"]]
    if args.show_steps:
        payload["steps"] = _steps(word, args.deck)
        lines += _step_lines(payload["steps"])
    return OK, payload, lines


def _cmd_group_order(args):
    gens = _parse_generators(args.gens, args.deck)
    engine_used, group = compute_group(gens)
    order = decimal_text(group.order)
    payload = {"deck": args.deck, "gens": args.gens, "engine_used": engine_used, "order": order}
    return OK, payload, [order]


def _cmd_group_predict(args):
    prediction = predict_group(args.family, args.deck)
    payload = {
        "deck": prediction.deck_size,
        "family": prediction.family,
        "case": prediction.case,
        "order": decimal_text(prediction.order),
        "order_factored": prediction.order_factored,
        "characterization": prediction.characterization,
    }
    lines = [
        f"case: {prediction.case}",
        f"order: {payload['order']} ({prediction.order_factored})",
        f"structure: {prediction.characterization}",
    ]
    return OK, payload, lines


def _cmd_group_member(args):
    gens = _parse_generators(args.gens, args.deck)
    p = _parse_permutation(args.perm, args.deck)
    member = group_contains(gens, p)
    payload = {"deck": args.deck, "gens": args.gens, "member": member}
    return OK, payload, ["true" if member else "false"]


def _record_line(fields) -> str:
    signs = ",".join(f"{s:+d}" for s in fields["parities"].values())
    line = (
        f"2n={fields['two_n']} family={fields['family']} engine={fields['engine_used']} "
        f"computed={fields['computed_order']} predicted={fields['predicted_order']} "
        f"({fields['predicted_order_factored']}) match={'yes' if fields['match'] else 'NO'} "
        f"signs=({signs})"
    )
    if "kernel_order_computed" in fields:
        line += f" kernel={fields['kernel_order_computed']}/{fields['kernel_order_predicted']}"
    return line


def _cmd_verify(args):
    if args.min > args.max:
        raise ValueError(f"--min {args.min} exceeds --max {args.max}")
    sizes = range(args.min + args.min % 2, args.max + 1, 2)
    if not sizes:
        raise ValueError(f"no even deck sizes in [{args.min}, {args.max}]")
    check_deck_size(sizes[0])
    check_deck_size(sizes[-1])
    records = verify_deck_sizes(sizes)
    payload = [r.to_fields() for r in records]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                print(_json_text(payload), file=handle)
        except OSError as exc:
            raise ValueError(f"cannot write report: {exc}") from exc
    matches = sum(r.match for r in records)
    lines = [*map(_record_line, payload), f"{len(records)} records, {matches} match"]
    return OK if matches == len(records) else MISMATCH, payload, lines


def _add_deck(parser):
    parser.add_argument("--deck", type=int, required=True, help="deck size (even)")


def _add_format(parser, choices=("text", "json"), default="text"):
    parser.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unshuffle",
        description="Card-shuffle permutation words and the groups they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", help="apply a shuffle word to a sorted deck")
    _add_deck(p)
    p.add_argument("--word", required=True, help="shuffle word, e.g. RL'V")
    p.add_argument("--show-steps", action="store_true", help="print the deck after each step")
    _add_format(p)
    p.set_defaults(handler=_cmd_shuffle)

    p = sub.add_parser("perm", help="print one shuffle as a permutation")
    _add_deck(p)
    p.add_argument("--symbol", required=True, help="one of L R I O V, optional ' for inverse")
    _add_format(p, choices=("images", "cycles"), default="images")
    p.set_defaults(handler=_cmd_perm)

    p = sub.add_parser("order", help="order of a single shuffle")
    _add_deck(p)
    p.add_argument("--symbol", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("swap", help="k-shuffle word exchanging two cards on a 2^k deck")
    _add_deck(p)
    p.add_argument("--a", type=int, required=True, help="first position")
    p.add_argument("--b", type=int, required=True, help="second position")
    _add_format(p)
    p.set_defaults(handler=_cmd_swap)

    p = sub.add_parser("elmsley", help="perfect-shuffle word moving the top card")
    _add_deck(p)
    p.add_argument("--target", type=int, required=True, help="destination position")
    p.add_argument("--show-steps", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_elmsley)

    p = sub.add_parser("group-order", help="exact order of a generated group")
    _add_deck(p)
    p.add_argument("--gens", default="LR", help="LR, IO, or comma-separated shuffle words")
    _add_format(p)
    p.set_defaults(handler=_cmd_group_order)

    p = sub.add_parser("group-predict", help="theoretical group order and structure")
    _add_deck(p)
    p.add_argument("--family", choices=sorted(FAMILIES), default="unshuffle")
    _add_format(p)
    p.set_defaults(handler=_cmd_group_predict)

    p = sub.add_parser("group-member", help="membership test")
    _add_deck(p)
    p.add_argument("--gens", default="LR")
    p.add_argument("--perm", required=True, help='image text "2,5,1,4,0,3" or cycle text "(0 2)(1 4)"')
    _add_format(p)
    p.set_defaults(handler=_cmd_group_member)

    p = sub.add_parser("verify", help="check computed group orders against predictions")
    p.add_argument("--min", type=int, default=2)
    p.add_argument("--max", type=int, default=52)
    p.add_argument("--out", help="write a JSON report to this path")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        status, payload, lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    try:
        # print's newline is a second write: a pipe closed during the first
        # write cuts it short without an error, and the flush then raises
        print(_json_text(payload) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as head does; Python flushes stdout
        # again at exit, so point it at the null device to keep that flush
        # from printing a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
