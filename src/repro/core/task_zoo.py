"""A zoo of symmetry-breaking tasks beyond leader election.

The paper stresses that leader election is "merely a single example of our
framework" -- these builders exercise the framework on the natural
neighbours of leader election, all defined as count tasks:

* :func:`unique_ids` -- strong symmetry breaking: every node outputs a
  distinct value ("calling names on nameless networks");
* :func:`leader_and_deputy` -- the symmetric core of the conclusion's
  future-work example: one leader, one deputy, ``n-2`` followers;
* :func:`threshold_election` -- at least ``low`` and at most ``high``
  leaders, generalizing both leader election and weak symmetry breaking;
* :func:`partition_into_teams` -- split the system into teams of given
  sizes (e.g. a 2/3 split for replica placement).

Derived characterizations (validated against the exact chain limits in
tests and the ``extension-task-zoo`` experiment of ``repro report``):

=================== =============================== =========================
task                blackboard                      clique, worst-case ports
=================== =============================== =========================
unique ids          all ``n_i = 1``                 ``gcd(n_i) = 1``
leader + deputy     two sources with ``n_i = 1``    ``gcd(n_i) = 1``
threshold [lo, hi]  subset-sum hits ``[lo, hi]``    some multiple of gcd in
                                                    ``[lo, hi]``
teams (s_1..s_m)    group sizes pack into team      reachable multiset packs
                    sizes                           into team sizes
=================== =============================== =========================
"""

from __future__ import annotations

from typing import Iterable

from ..randomness.configuration import RandomnessConfiguration
from .reachability import reachable_multisets
from .tasks import CountTask


def unique_ids(n: int) -> CountTask:
    """Every node outputs a distinct identifier (strong symmetry breaking)."""
    if n < 1:
        raise ValueError("need n >= 1")
    profile = {f"id{i}": 1 for i in range(n)}
    return CountTask(n, [profile], name="unique-ids")


def leader_and_deputy(n: int) -> CountTask:
    """One leader, one deputy, everyone else a follower."""
    if n < 2:
        raise ValueError("leader+deputy needs n >= 2")
    if n == 2:
        profile = {"leader": 1, "deputy": 1}
    else:
        profile = {"leader": 1, "deputy": 1, "follower": n - 2}
    return CountTask(n, [profile], name="leader-and-deputy")


def threshold_election(n: int, low: int, high: int) -> CountTask:
    """Between ``low`` and ``high`` leaders (inclusive)."""
    if not 1 <= low <= high <= n:
        raise ValueError(f"need 1 <= low <= high <= n, got [{low}, {high}]")
    profiles = []
    for k in range(low, high + 1):
        if k == n:
            profiles.append({1: n})
        else:
            profiles.append({1: k, 0: n - k})
    return CountTask(n, profiles, name=f"threshold-[{low},{high}]-election")


def partition_into_teams(team_sizes: Iterable[int]) -> CountTask:
    """Split the system into labeled teams of prescribed sizes."""
    sizes = tuple(int(s) for s in team_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"invalid team sizes {sizes}")
    profile = {f"team{i}": size for i, size in enumerate(sizes)}
    return CountTask(sum(sizes), [profile], name=f"teams-{sizes}")


# ----------------------------------------------------------------------
# Closed-form characterizations (predictions; validated by tests/benches)
# ----------------------------------------------------------------------
def blackboard_unique_ids_solvable(alpha: RandomnessConfiguration) -> bool:
    """All sources private: the eventual partition must be discrete."""
    return all(size == 1 for size in alpha.group_sizes)


def mp_worst_case_unique_ids_solvable(alpha: RandomnessConfiguration) -> bool:
    """``gcd = 1``: Euclid separates everyone down to singletons."""
    return alpha.gcd == 1


def blackboard_leader_and_deputy_solvable(
    alpha: RandomnessConfiguration,
) -> bool:
    """Two distinct singleton sources (leader and deputy classes must be
    distinguishable singletons on a blackboard)."""
    return alpha.n >= 2 and alpha.group_sizes.count(1) >= 2


def mp_worst_case_leader_and_deputy_solvable(
    alpha: RandomnessConfiguration,
) -> bool:
    """Same condition as leader election: once one singleton exists, one
    matching against any other class yields a second singleton."""
    return alpha.n >= 2 and alpha.gcd == 1


def blackboard_threshold_solvable(
    alpha: RandomnessConfiguration, low: int, high: int
) -> bool:
    """Some sub-multiset of the group sizes sums into ``[low, high]``."""
    sums = {0}
    for size in alpha.group_sizes:
        sums |= {s + size for s in sums}
    return any(low <= s <= high for s in sums)


def mp_worst_case_threshold_solvable(
    alpha: RandomnessConfiguration, low: int, high: int
) -> bool:
    """Some multiple of the gcd lies in ``[low, high]`` (and ``<= n``)."""
    g = alpha.gcd
    k = ((low + g - 1) // g) * g  # smallest multiple of g >= low
    return k <= min(high, alpha.n)


def blackboard_teams_solvable(
    alpha: RandomnessConfiguration, team_sizes: Iterable[int]
) -> bool:
    """The source groups must pack exactly into the team sizes."""
    task = partition_into_teams(team_sizes)
    if task.n != alpha.n:
        raise ValueError("team sizes do not cover the configuration")
    return task.solvable_from_sizes(alpha.sorted_group_sizes)


def mp_worst_case_teams_solvable(
    alpha: RandomnessConfiguration, team_sizes: Iterable[int]
) -> bool:
    """Some reachable class multiset packs exactly into the team sizes."""
    task = partition_into_teams(team_sizes)
    if task.n != alpha.n:
        raise ValueError("team sizes do not cover the configuration")
    return any(
        task.solvable_from_sizes(multiset)
        for multiset in reachable_multisets(alpha.sorted_group_sizes)
    )


__all__ = [
    "blackboard_leader_and_deputy_solvable",
    "blackboard_teams_solvable",
    "blackboard_threshold_solvable",
    "blackboard_unique_ids_solvable",
    "leader_and_deputy",
    "mp_worst_case_leader_and_deputy_solvable",
    "mp_worst_case_teams_solvable",
    "mp_worst_case_threshold_solvable",
    "mp_worst_case_unique_ids_solvable",
    "partition_into_teams",
    "threshold_election",
    "unique_ids",
]
