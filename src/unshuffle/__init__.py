"""Card-shuffle permutation groups.

Deal-and-stack unshuffles (L, R), perfect faro shuffles (I, O) and the deck
reversal V, with exact group computations on top: BFS element enumeration,
an affine engine for 2^k decks, a giant-image order certificate, a
deterministic Schreier-Sims stabilizer chain, closed-form order predictions
and a verification pipeline comparing the computed orders with the
predictions.
"""

from .bsgs import (
    Closure,
    EnumerationCapExceeded,
    StabilizerChain,
    bfs_enumerate,
)
from .elmsley import perfect_elmsley_word, unshuffle_swap_word
from .groups import (
    FAMILIES,
    GroupPrediction,
    SubstitutionResult,
    VerificationRecord,
    diaconis_words,
    family_generators,
    group_contains,
    group_order,
    pair_kernel_order,
    parity_row,
    predict_group,
    substitute_unshuffles,
    verify_deck_size,
    verify_deck_sizes,
)
from .perm import Permutation, random_centrally_symmetric
from .shuffles import (
    LETTERS,
    MAX_DECK,
    Step,
    Word,
    as_word,
    check_deck_size,
    deal_permutation,
    format_word,
    invert_word,
    multiplicative_order,
    parse_word,
    shuffle_order,
    shuffle_permutation,
    walk_deck,
    word_permutation,
    word_power,
)

__all__ = [
    "Closure",
    "EnumerationCapExceeded",
    "FAMILIES",
    "GroupPrediction",
    "LETTERS",
    "MAX_DECK",
    "Permutation",
    "Step",
    "StabilizerChain",
    "SubstitutionResult",
    "VerificationRecord",
    "Word",
    "as_word",
    "bfs_enumerate",
    "check_deck_size",
    "deal_permutation",
    "diaconis_words",
    "family_generators",
    "format_word",
    "group_contains",
    "group_order",
    "invert_word",
    "multiplicative_order",
    "pair_kernel_order",
    "parity_row",
    "parse_word",
    "perfect_elmsley_word",
    "predict_group",
    "random_centrally_symmetric",
    "shuffle_order",
    "shuffle_permutation",
    "substitute_unshuffles",
    "unshuffle_swap_word",
    "verify_deck_size",
    "verify_deck_sizes",
    "walk_deck",
    "word_permutation",
    "word_power",
]
