"""Merge law and memoized MC cells: estimates that are pure functions of
``(seed, cell, range)`` -- independent of partitioning and memo state."""

import pytest

from repro.context import QUOTIENT_MODES, ExecutionContext, use_context
from repro.core import leader_election
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration
from repro.results.memo import query_memo
from repro.sampling import (
    BLOCK_SAMPLES,
    MCEstimate,
    block_token,
    cell_digest,
    sample_cell,
    sample_range,
)


@pytest.fixture
def cell():
    alpha = RandomnessConfiguration.from_group_sizes((1, 2))
    return alpha, leader_election(3), 3


@pytest.fixture
def memo_dir(tmp_path):
    with use_context(ExecutionContext(results_memo=tmp_path / "memo")):
        yield tmp_path / "memo"


class TestMCEstimate:
    def test_merge_is_integer_addition(self):
        merged = MCEstimate(3, 10).merge(MCEstimate(4, 5))
        assert (merged.successes, merged.samples) == (7, 15)
        assert merged.probability == pytest.approx(7 / 15)

    def test_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(5, 4)
        with pytest.raises(ValueError):
            MCEstimate(-1, 4)
        with pytest.raises(ValueError):
            MCEstimate(0, 0).probability

    def test_interval_is_wilson(self):
        from repro.sampling.stats import wilson_interval

        assert MCEstimate(40, 100).interval() == wilson_interval(40, 100)


class TestMergeLaw:
    def test_any_split_reassembles_the_cell(self, cell):
        alpha, task, t = cell
        whole = sample_cell(alpha, task, t, stream_seed=5, samples=4321)
        # An odd split straddling block boundaries: [0, 1700) + [1700, 4321).
        left = sample_range(
            alpha, task, t, stream_seed=5, start=0, stop=1700
        )
        right = sample_range(
            alpha, task, t, stream_seed=5, start=1700, stop=4321
        )
        assert left.merge(right) == whole

    def test_budget_extension_is_a_prefix(self, cell):
        alpha, task, t = cell
        small = sample_cell(alpha, task, t, stream_seed=5, samples=2000)
        large = sample_cell(alpha, task, t, stream_seed=5, samples=5000)
        tail = sample_range(
            alpha, task, t, stream_seed=5, start=2000, stop=5000
        )
        assert small.merge(tail) == large

    def test_seed_and_method_change_the_stream(self, cell):
        alpha, task, t = cell
        a = sample_cell(alpha, task, t, stream_seed=0, samples=3000)
        b = sample_cell(alpha, task, t, stream_seed=1, samples=3000)
        assert a != b
        scalar = sample_cell(
            alpha, task, t, stream_seed=0, samples=3000, method="scalar"
        )
        assert scalar == a  # same words, same verdicts: the oracle contract

    def test_range_validation(self, cell):
        alpha, task, t = cell
        with pytest.raises(ValueError):
            sample_range(alpha, task, t, stream_seed=0, start=5, stop=5)
        with pytest.raises(ValueError):
            sample_cell(alpha, task, t, stream_seed=0, samples=0)


class TestMemoizedCells:
    def test_tokens_separate_cells(self, cell):
        alpha, task, t = cell
        digest = cell_digest(alpha)
        token = block_token(digest, task, t, "bits", 7, 0)
        assert token == block_token(digest, task, t, "bits", 7, 0)
        distinct = {
            block_token(digest, task, t, "bits", 7, 1),
            block_token(digest, task, t, "bits", 8, 0),
            block_token(digest, task, t, "scalar", 7, 0),
            block_token(digest, task, t + 1, "bits", 7, 0),
        }
        assert token not in distinct and len(distinct) == 4

    @pytest.mark.parametrize("model", ["blackboard", "clique"])
    def test_cell_digest_is_the_plain_chain_digest(self, cell, model):
        from repro.chain.engine import chain_key, key_digest

        alpha = cell[0]
        ports = adversarial_assignment((1, 2)) if model == "clique" else None
        assert cell_digest(alpha, ports) == key_digest(chain_key(alpha, ports))

    @pytest.mark.parametrize("mode", QUOTIENT_MODES)
    def test_cell_digest_ignores_the_quotient_mode(self, mode):
        # Sampled trials never see a compiled chain, so MC memo entries
        # are shared whatever quotient mode the run used.
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        plain = cell_digest(alpha)
        with use_context(ExecutionContext(quotient=mode)):
            assert cell_digest(alpha) == plain

    def test_the_chain_method_is_rejected(self, cell):
        alpha, task, t = cell
        with pytest.raises(ValueError, match="unknown sampling method"):
            sample_cell(
                alpha, task, t, stream_seed=1, samples=10, method="chain"
            )

    @pytest.mark.parametrize("model, digest, token", [
        (
            "blackboard",
            "c3ac3e35164422fc3ca33786625692b1b6eed70ee5ee2a2e5614937e25dbfe95",
            "a4acca3e8da5c6e52aedc26c2e8537a9a0d00be817b8c15d516fe75e47ab8aef",
        ),
        (
            "clique",
            "18ca3a2f17ce9382d32536c3b90c82c151cb04841a80dea731e032aed446061d",
            "793cc09e0c34ec458f829aecd723a16a11c555e4b6b2978f985680a15de886e5",
        ),
    ])
    def test_bits_tokens_are_pinned(self, cell, model, digest, token):
        # Memoized MC blocks of earlier releases stay warm only while
        # the cell digest and the block token hold.
        alpha, task, t = cell
        ports = adversarial_assignment((1, 2)) if model == "clique" else None
        assert cell_digest(alpha, ports) == digest
        assert block_token(digest, task, t, "bits", 5, 2) == token

    def test_warm_cell_serves_full_blocks(self, cell, memo_dir):
        alpha, task, t = cell
        cold = sample_cell(alpha, task, t, stream_seed=9, samples=3000)
        memo = query_memo()
        before = memo.stats()["hits"]
        warm = sample_cell(alpha, task, t, stream_seed=9, samples=3000)
        assert warm == cold
        assert memo.stats()["hits"] == before + 3  # three full blocks

    def test_memoized_plus_fresh_equals_one_big_estimate(self, cell, memo_dir):
        alpha, task, t = cell
        sample_cell(alpha, task, t, stream_seed=9, samples=10000)
        grown = sample_cell(alpha, task, t, stream_seed=9, samples=20000)
        fresh = sample_cell(
            alpha, task, t, stream_seed=9, samples=20000, use_memo=False
        )
        assert grown == fresh

    def test_partial_blocks_never_stored(self, cell, memo_dir):
        alpha, task, t = cell
        sample_cell(alpha, task, t, stream_seed=2, samples=BLOCK_SAMPLES // 2)
        assert query_memo().stats()["entries"] == 0
        sample_cell(alpha, task, t, stream_seed=2, samples=BLOCK_SAMPLES + 1)
        assert query_memo().stats()["entries"] == 1  # only the full block

    def test_memo_state_never_changes_the_estimate(self, cell, memo_dir):
        alpha, task, t = cell
        ports = adversarial_assignment((1, 2))
        with_memo = sample_cell(
            alpha, task, t, ports, stream_seed=4, samples=2500
        )
        without = sample_cell(
            alpha, task, t, ports, stream_seed=4, samples=2500, use_memo=False
        )
        assert with_memo == without

    def test_fresh_blocks_are_recorded_in_one_append(
        self, cell, memo_dir, monkeypatch
    ):
        from repro.results.log import AppendLog

        alpha, task, t = cell
        batches = []
        append = AppendLog.append

        def counting(log, events):
            batches.append(list(events))
            return append(log, events)

        monkeypatch.setattr(AppendLog, "append", counting)
        sample_cell(alpha, task, t, stream_seed=6, samples=10 * BLOCK_SAMPLES)
        assert [len(batch) for batch in batches] == [10]
        # The warm rerun reads every block and appends nothing.
        sample_cell(alpha, task, t, stream_seed=6, samples=10 * BLOCK_SAMPLES)
        assert len(batches) == 1
