"""Adaptive allocation and common-random-numbers comparisons."""

import pytest

from repro.core import leader_election
from repro.core.task_zoo import unique_ids
from repro.randomness import RandomnessConfiguration
from repro.sampling import (
    adaptive_cell_estimate,
    allocate_budget,
    paired_difference,
    sample_cell,
)


def _cell(sizes, task, t, *, stream_seed, **extra):
    alpha = RandomnessConfiguration.from_group_sizes(sizes)
    return {
        "alpha": alpha,
        "task": task,
        "t": t,
        "stream_seed": stream_seed,
        **extra,
    }


class TestAdaptiveCell:
    def test_stops_when_narrow_enough(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        estimate = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=0, target_width=0.02,
            initial=1000, increment=1000, max_samples=64000,
        )
        low, high = estimate.interval()
        assert high - low <= 0.02
        assert estimate.samples < 64000

    def test_adaptive_run_is_a_one_shot_prefix(self):
        # Adaptivity decides when to stop, never what is measured: the
        # stopped estimate is bit-identical to a one-shot run of the
        # same size over the same stream.
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        adaptive = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=3, target_width=0.03,
            initial=500, increment=700,
        )
        one_shot = sample_cell(
            alpha, task, 3, stream_seed=3, samples=adaptive.samples
        )
        assert adaptive == one_shot

    def test_respects_the_cap(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        estimate = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=0, target_width=0.0001,
            initial=1000, increment=1000, max_samples=3000,
        )
        assert estimate.samples == 3000

    def test_validation(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        with pytest.raises(ValueError):
            adaptive_cell_estimate(
                alpha, task, 3, stream_seed=0, target_width=0.0
            )


class TestBudgetAllocation:
    def test_spends_exactly_the_budget(self):
        cells = [
            _cell((1, 2), leader_election(3), 2, stream_seed=0),
            _cell((1, 2), leader_election(3), 4, stream_seed=0),
            _cell((1, 3), unique_ids(4), 3, stream_seed=1),
        ]
        estimates = allocate_budget(
            cells, 9000, initial=1000, increment=1000
        )
        assert sum(e.samples for e in estimates) == 9000
        assert all(e.samples >= 1000 for e in estimates)

    def test_widest_interval_gets_the_top_ups(self):
        # t=4 sits near certainty (narrow interval), t=1 near the middle
        # (wide interval): the extra budget must flow to the wide cell.
        narrow = _cell((1, 2), leader_election(3), 4, stream_seed=0)
        wide = _cell((1, 2), leader_election(3), 1, stream_seed=0)
        estimates = allocate_budget(
            [narrow, wide], 6000, initial=1000, increment=1000
        )
        assert estimates[1].samples > estimates[0].samples

    def test_deterministic(self):
        cells = [
            _cell((1, 2), leader_election(3), 2, stream_seed=0),
            _cell((2, 3), leader_election(5), 3, stream_seed=7),
        ]
        first = allocate_budget(cells, 5000)
        again = allocate_budget(cells, 5000)
        assert first == again

    def test_validation(self):
        cell = _cell((1, 2), leader_election(3), 2, stream_seed=0)
        with pytest.raises(ValueError):
            allocate_budget([cell], 0)
        with pytest.raises(ValueError):
            allocate_budget([cell, cell, cell], 2, initial=1000)
        assert allocate_budget([], 100) == []


class TestCommonRandomNumbers:
    def test_paired_variance_beats_independent(self):
        # The canonical CRN comparison: the same cell at two horizons.
        # Solvability is monotone in t over shared source words, so the
        # trials are strongly positively coupled and pairing must cut
        # the difference variance well below the independent-streams sum.
        a = _cell((1, 2), leader_election(3), 4, stream_seed=0)
        b = _cell((1, 2), leader_election(3), 2, stream_seed=0)
        result = paired_difference(a, b, stream_seed=5, samples=4000)
        assert result["samples"] == 4000
        assert 0 <= result["difference"] <= 1  # monotone in t
        assert result["paired_variance"] < result["independent_variance"]

    def test_difference_matches_shared_stream_cells(self):
        # Both cells see the same (seed, block) words, so the paired
        # difference must equal the difference of the two cell
        # estimates on that stream -- bit-exactly.
        a = _cell((1, 2), leader_election(3), 4, stream_seed=0)
        b = _cell((1, 2), leader_election(3), 2, stream_seed=0)
        result = paired_difference(a, b, stream_seed=5, samples=3000)
        est_a = sample_cell(
            a["alpha"], a["task"], 4, stream_seed=5, samples=3000
        )
        est_b = sample_cell(
            b["alpha"], b["task"], 2, stream_seed=5, samples=3000
        )
        expected = (est_a.successes - est_b.successes) / 3000
        assert result["difference"] == pytest.approx(expected, abs=0)

    def test_each_cell_uses_its_own_method(self):
        # The scalar oracle reads the same words bit for bit, so a cell
        # that names it pairs exactly like its bits twin, and an unknown
        # method is rejected rather than silently resolved.
        a = _cell((1, 2), leader_election(3), 4, stream_seed=0)
        b = _cell((1, 2), leader_election(3), 2, stream_seed=0)
        bits = paired_difference(a, b, stream_seed=5, samples=1500)
        scalar = paired_difference(
            a, {**b, "method": "scalar"}, stream_seed=5, samples=1500
        )
        assert scalar == bits
        with pytest.raises(ValueError, match="unknown sampling method"):
            paired_difference(
                a, {**b, "method": "chain"}, stream_seed=5, samples=1500
            )

    def test_validation(self):
        a = _cell((1, 2), leader_election(3), 2, stream_seed=0)
        with pytest.raises(ValueError):
            paired_difference(a, a, stream_seed=0, samples=1)
