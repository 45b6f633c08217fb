"""The broadcast ``_first_equal_labels`` against the column loop it replaced.

The reference below is that loop, verbatim: one compare / ``all`` /
masked store per earlier unit.  Units are drawn over a small alphabet so
that equal pairs (the case the labels encode) are common.
"""

import numpy as np
import pytest

from repro.models import (
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.randomness import RandomnessConfiguration
from repro.sampling import kernel
from repro.sampling.kernel import (
    _blackboard_labels,
    _clique_labels,
    _first_equal_labels,
    _round_major_words,
    words_needed,
)


def reference_first_equal_labels(units: np.ndarray) -> np.ndarray:
    m, batch = units.shape[1:]
    labels = np.empty((m, batch), dtype=np.min_scalar_type(m))
    labels[:] = np.arange(m, dtype=labels.dtype)[:, None]
    for j in range(m - 2, -1, -1):
        same = (units[:, j + 1 :] == units[:, j : j + 1]).all(axis=0)
        labels[j + 1 :][same] = j
    return labels


def _assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("batch", [1, 1000])
@pytest.mark.parametrize("m", [1, 2, 7, 20])
@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("alphabet", [2, 3])
def test_matches_the_column_loop(w, m, batch, alphabet):
    rng = np.random.default_rng([w, m, batch, alphabet])
    units = rng.integers(0, alphabet, size=(w, m, batch)).astype(np.uint64)
    _assert_same(
        _first_equal_labels(units), reference_first_equal_labels(units)
    )


def test_words_disagreeing_in_one_word_stay_apart():
    # Equal first words, unequal second words: only ``all`` over the
    # words keeps the units apart.
    units = np.zeros((2, 3, 1), dtype=np.uint64)
    units[1, 2, 0] = 1
    _assert_same(_first_equal_labels(units), np.array([[0], [0], [2]],
                                                      dtype=np.uint8))


def test_wide_unit_counts_need_no_width_limit():
    # Past 255 units labels and weights widen to uint16.
    rng = np.random.default_rng(5)
    units = rng.integers(0, 40, size=(1, 300, 4)).astype(np.uint64)
    labels = _first_equal_labels(units)
    assert labels.dtype == np.uint16
    _assert_same(labels, reference_first_equal_labels(units))


def test_blackboard_labels_match_the_column_loop(monkeypatch):
    words = _round_major_words(3, 1, 6, words_needed(65))
    actual = _blackboard_labels(words, 65)
    monkeypatch.setattr(
        kernel, "_first_equal_labels", reference_first_equal_labels
    )
    _assert_same(actual, _blackboard_labels(words, 65))


CLIQUE_CASES = [
    # n = 20: past any chain (MAX_NODES = 10); three packed words a node.
    pytest.param((1,) * 20, "round-robin", 4, id="n20-rr-t4"),
    pytest.param((4, 4, 6, 6), "adversarial", 4, id="n20-adv-t4"),
    pytest.param((2, 3, 15), "random", 3, id="n20-rand-t3"),
    # t = 64 fills one source word exactly; t = 65 starts a second.
    pytest.param((1, 2, 3), "random", 64, id="n6-rand-t64"),
    pytest.param((1, 2, 3), "random", 65, id="n6-rand-t65"),
    pytest.param((1, 1, 2), "adversarial", 65, id="n4-adv-t65"),
]


@pytest.mark.parametrize("sizes,port_kind,t", CLIQUE_CASES)
def test_clique_labels_match_the_column_loop(sizes, port_kind, t,
                                             monkeypatch):
    alpha = RandomnessConfiguration.from_group_sizes(sizes)
    if port_kind == "adversarial":
        ports = adversarial_assignment(sizes)
    elif port_kind == "random":
        ports = random_assignment(alpha.n, 11)
    else:
        ports = round_robin_assignment(alpha.n)
    words = _round_major_words(7, 0, alpha.k, words_needed(t))
    actual = _clique_labels(alpha, ports, words, t)
    monkeypatch.setattr(
        kernel, "_first_equal_labels", reference_first_equal_labels
    )
    expected = _clique_labels(alpha, ports, words, t)
    _assert_same(actual, expected)
