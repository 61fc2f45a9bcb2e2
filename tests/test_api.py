import inspect

import unshuffle
from unshuffle import elmsley, groups

# the public API; a name leaves or joins it only with a CHANGES.md entry
EXPORTED = {
    "Closure", "EnumerationCapExceeded", "FAMILIES", "GroupPrediction",
    "LETTERS", "MAX_DECK", "Permutation", "StabilizerChain", "Step", "SubstitutionResult",
    "VerificationRecord", "Word", "as_word", "bfs_enumerate", "check_deck_size",
    "deal_permutation", "diaconis_words", "family_generators", "format_word",
    "group_contains", "group_order", "invert_word", "multiplicative_order",
    "pair_kernel_order", "parity_row", "parse_word", "perfect_elmsley_word",
    "predict_group", "random_centrally_symmetric", "shuffle_order",
    "shuffle_permutation", "substitute_unshuffles", "unshuffle_swap_word",
    "verify_deck_size", "verify_deck_sizes", "walk_deck", "word_permutation",
    "word_power",
}


def public_functions(module) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_every_exported_name_resolves():
    assert len(set(unshuffle.__all__)) == len(unshuffle.__all__)
    assert set(unshuffle.__all__) == EXPORTED
    for name in unshuffle.__all__:
        assert getattr(unshuffle, name) is not None, name


def test_star_import_gives_exactly_the_exported_names():
    namespace: dict = {}
    exec("from unshuffle import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTED


def test_package_namespace_is_the_exports():
    # the removed bit-label and kernel-rule helpers are absent: the 2^k bit
    # rule is the affine forms of unshuffle.elmsley's docstring, and the
    # kernel rule is predict_group(...).kernel_order
    public = {
        name
        for name, value in vars(unshuffle).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == EXPORTED
    assert public_functions(elmsley) == {"perfect_elmsley_word", "unshuffle_swap_word"}
    assert public_functions(groups) == {
        "compute_group", "computed_parity_row", "decimal_text", "diaconis_words",
        "family_generators", "group_contains", "group_order", "pair_kernel_order",
        "parity_row", "power_of_two_exponent", "predict_group", "substitute_unshuffles",
        "verify_deck_size", "verify_deck_sizes",
    }
