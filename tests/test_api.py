import copy
import inspect
import pickle

import pytest

import unshuffle
from unshuffle import GroupPrediction, Permutation, Step, VerificationRecord, elmsley, groups

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


# the four public value types keep what frozen dataclasses gave the three
# records: the same reprs, equality within one class, hashing, immutability,
# and pickle and copy round trips
RECORD_FIELDS = dict(
    two_n=12, family="perfect", engine_used="schreier", computed_order=7680,
    predicted_order=7680, predicted_order_factored="2^6*120", match=True,
    parities=(-1, -1, -1, 1),
)
VALUES = [
    (Step("L", True), "Step(letter='L', inverted=True)"),
    (
        GroupPrediction("perfect", 12, "special12", 7680, "2^6*120", "Z_2^6 : S_5"),
        "GroupPrediction(family='perfect', deck_size=12, case='special12', order=7680, "
        "order_factored='2^6*120', characterization='Z_2^6 : S_5', kernel_order=None)",
    ),
    (
        VerificationRecord(**RECORD_FIELDS),
        "VerificationRecord(two_n=12, family='perfect', engine_used='schreier', "
        "computed_order=7680, predicted_order=7680, predicted_order_factored='2^6*120', "
        "match=True, parities=(-1, -1, -1, 1), kernel_order_computed=None, "
        "kernel_order_predicted=None)",
    ),
    (Permutation([1, 0]), "Permutation([1, 0])"),
]
IDS = ["Step", "GroupPrediction", "VerificationRecord", "Permutation"]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [v for v, _ in VALUES], ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(value, round_trip):
    twin = round_trip(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@pytest.mark.parametrize(
    "value, name", zip([v for v, _ in VALUES], ["letter", "family", "two_n", "image"]), ids=IDS
)
def test_fields_cannot_be_set_or_deleted(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_records_equal_by_fields_within_one_class():
    record = VerificationRecord(**RECORD_FIELDS)
    twin = VerificationRecord(*RECORD_FIELDS.values(), None, None)
    assert record == twin and hash(record) == hash(twin)
    assert record != VerificationRecord(**dict(RECORD_FIELDS, match=False))
    assert record != (*RECORD_FIELDS.values(), None, None)
    assert Step("L") == Step("L", False) == Step(letter="L", inverted=False)
    assert hash(Step("L")) == hash(Step("L", False))
    assert Step("L") != Step("L", True)
    assert Step("L") != ("L", False)
    assert Step.__eq__(Step("L"), ("L", False)) is NotImplemented
    assert len({Step("L"), Step("L", False), Step("L", True)}) == 2
    prediction = GroupPrediction("perfect", 12, "special12", 7680, "2^6*120", "Z_2^6 : S_5")
    assert prediction == GroupPrediction(
        family="perfect", deck_size=12, case="special12", order=7680,
        order_factored="2^6*120", characterization="Z_2^6 : S_5", kernel_order=None,
    )
    assert prediction != ("perfect", 12, "special12", 7680, "2^6*120", "Z_2^6 : S_5", None)


def test_default_fields():
    assert Step("V").inverted is False
    record = VerificationRecord(**RECORD_FIELDS)
    assert record.kernel_order_computed is None and record.kernel_order_predicted is None
    assert GroupPrediction(*range(6)).kernel_order is None
    with pytest.raises(TypeError):
        VerificationRecord(**RECORD_FIELDS, bogus=1)
