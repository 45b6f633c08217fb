"""Declarative sweep grammar: jobs as data, expansion as a pure function.

A :class:`RunSpec` names one experiment configuration with nothing but
primitive values (a size shape, a model, a port-assignment kind, a task
spec string, a replicate index).  A :class:`SweepSpec` is the cartesian
grammar over those axes; :meth:`SweepSpec.expand` turns it into the
deterministic, duplicate-free job list that the execution engines consume.

Keeping specs primitive has two payoffs: every job pickles trivially into
a worker process, and every job has a canonical :attr:`RunSpec.job_key`
string that doubles as (a) the resume key in a run directory's JSONL log
and (b) the label from which the job's private random stream is derived
(:func:`derive_seed`).  Because the seed depends only on ``(master_seed,
job_key)`` -- never on scheduling order or worker count -- a sweep's
results are identical under any engine.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields
from functools import lru_cache

from ..core import (
    k_leader_election,
    leader_and_deputy,
    leader_election,
    partition_into_teams,
    threshold_election,
    unique_ids,
    weak_symmetry_breaking,
)
from ..core.tasks import SymmetryBreakingTask
from ..models import (
    PortAssignment,
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from ..randomness import enumerate_size_shapes

#: Communication models a job may target.
MODELS = ("blackboard", "clique")
#: Port-assignment kinds for the clique model ("none" marks blackboard
#: jobs, where ports are meaningless and normalized away).
PORT_KINDS = ("adversarial", "round-robin", "random", "none")
#: What a job computes: the exact eventual-solvability limit, or a
#: Monte-Carlo estimate of ``Pr[S(t)]`` at a finite horizon.
KINDS = ("exact", "sample")


def parse_sizes(text: str) -> tuple[int, ...]:
    """Parse a size shape like ``'2,3'`` into ``(2, 3)``."""
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"sizes must look like '2,3', got {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive: {text!r}")
    return sizes


@lru_cache(maxsize=256)
def make_task(spec: str, n: int) -> SymmetryBreakingTask:
    """Build a task from a spec string: ``leader``, ``k-leader:2``,
    ``weak-sb``, ``unique-ids``, ``deputy``, ``threshold:LO,HI``, or
    ``teams:S1,S2,...``.

    Cached: spec validation (``RunSpec.__post_init__``) and job
    execution construct the same task, so repeated builds within a
    process are free.  Tasks are treated as immutable everywhere.
    """
    name, _, arg = spec.partition(":")
    if name == "leader":
        return leader_election(n)
    if name == "k-leader":
        return k_leader_election(n, int(arg))
    if name == "weak-sb":
        return weak_symmetry_breaking(n)
    if name == "unique-ids":
        return unique_ids(n)
    if name == "deputy":
        return leader_and_deputy(n)
    if name == "threshold":
        low, high = (int(x) for x in arg.split(","))
        return threshold_election(n, low, high)
    if name == "teams":
        return partition_into_teams(parse_sizes(arg))
    raise ValueError(f"unknown task {spec!r}")


def make_ports(
    kind: str, sizes: tuple[int, ...], seed: int
) -> PortAssignment | None:
    """Build a port assignment from its kind (``None`` for ``'none'``)."""
    if kind == "none":
        return None
    if kind == "adversarial":
        return adversarial_assignment(sizes)
    if kind == "round-robin":
        return round_robin_assignment(sum(sizes))
    if kind == "random":
        return random_assignment(sum(sizes), seed)
    raise ValueError(f"unknown ports {kind!r}")


def derive_seed(master_seed: int, key: str) -> int:
    """Derive a job's private 63-bit seed from the master seed and its key.

    SHA-256 rather than the builtin ``hash`` because the latter is salted
    per process (``PYTHONHASHSEED``), which would silently break the
    cross-worker determinism guarantee the runner is built around.
    """
    digest = hashlib.sha256(
        f"{master_seed}\x1f{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class RunSpec:
    """One job: a fully primitive, picklable experiment configuration.

    ``kind='exact'`` computes the exact limit of ``Pr[S(t)]`` via the
    consistency chain; ``kind='sample'`` Monte-Carlo-estimates ``Pr[S(t)]``
    at horizon :attr:`t` with :attr:`samples` samples.  :attr:`replicate`
    distinguishes otherwise-identical jobs so a sweep can run independent
    random repetitions (each gets its own derived seed stream); it is
    normalized to 0 for jobs that consume no randomness (``exact`` kind
    with non-random ports), which would repeat identically.
    """

    sizes: tuple[int, ...]
    model: str = "blackboard"
    ports: str = "adversarial"
    task: str = "leader"
    kind: str = "exact"
    t: int = 4
    samples: int = 2000
    replicate: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError(f"sizes must be positive: {self.sizes!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.ports not in PORT_KINDS:
            raise ValueError(f"unknown ports {self.ports!r}")
        # Ports are meaningless on the blackboard; normalize (after
        # validating the caller's value) so blackboard jobs collapse to
        # one key regardless of the sweep's ports axis.
        if self.model == "blackboard":
            object.__setattr__(self, "ports", "none")
        if self.model == "clique" and self.ports == "none":
            raise ValueError("clique jobs need a real port kind")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        # Replicates only matter when the job consumes randomness
        # (sampling, or randomly drawn ports); deterministic jobs
        # collapse to replicate 0 so a sweep's replicates axis never
        # re-runs identical exact computations.
        if self.kind == "exact" and self.ports != "random":
            object.__setattr__(self, "replicate", 0)
        # Fail on a bad task spec at construction time, not mid-sweep
        # inside a worker process.
        make_task(self.task, self.n)

    @property
    def n(self) -> int:
        """Total number of nodes (sum of the group sizes)."""
        return sum(self.sizes)

    @property
    def job_key(self) -> str:
        """Canonical key: resume identity and seed-derivation label."""
        parts = [
            "sizes=" + ",".join(str(s) for s in self.sizes),
            f"model={self.model}",
            f"ports={self.ports}",
            f"task={self.task}",
            f"kind={self.kind}",
        ]
        if self.kind == "sample":
            parts.append(f"t={self.t}")
            parts.append(f"samples={self.samples}")
        parts.append(f"rep={self.replicate}")
        return ";".join(parts)

    @property
    def stream_key(self) -> str:
        """Sampling-substream identity (``kind='sample'`` jobs).

        Deliberately *narrower* than :attr:`job_key`: it names only the
        axes that select a cell's randomness -- the configuration, the
        model, the port kind, and the replicate.  Excluding ``samples``
        lets a larger budget extend the same substream (the memo's merge
        law); excluding ``task`` and ``t`` gives cells that differ only
        along those axes common random numbers, so paired comparisons
        across them are low-variance.
        """
        return ";".join(
            [
                "sizes=" + ",".join(str(s) for s in self.sizes),
                f"model={self.model}",
                f"ports={self.ports}",
                f"rep={self.replicate}",
            ]
        )

    def to_dict(self) -> dict:
        """JSON-safe dictionary form (inverse of :meth:`from_dict`)."""
        return {
            "sizes": list(self.sizes),
            "model": self.model,
            "ports": self.ports,
            "task": self.task,
            "kind": self.kind,
            "t": self.t,
            "samples": self.samples,
            "replicate": self.replicate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        names = {f.name for f in fields(cls)}
        unknown = payload.keys() - names
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        data = dict(payload)
        data["sizes"] = tuple(data["sizes"])
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian sweep: shapes x models x ports x tasks x replicates.

    :meth:`expand` yields the job list in a fixed nesting order (shapes
    outermost, replicates innermost) and drops duplicate keys -- e.g. a
    blackboard job repeated across the ports axis.  :attr:`master_seed`
    is the single root of randomness for the whole sweep; each job reseeds
    from it via :func:`derive_seed` on its key.
    """

    shapes: tuple[tuple[int, ...], ...]
    models: tuple[str, ...] = ("blackboard",)
    ports: tuple[str, ...] = ("adversarial",)
    tasks: tuple[str, ...] = ("leader",)
    kind: str = "exact"
    t: int = 4
    samples: int = 2000
    replicates: tuple[int, ...] = (0,)
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shapes", tuple(tuple(int(s) for s in sh) for sh in self.shapes)
        )
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "ports", tuple(self.ports))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(
            self, "replicates", tuple(int(r) for r in self.replicates)
        )
        if not self.shapes:
            raise ValueError("sweep needs at least one shape")
        for axis, valid in (
            (self.models, MODELS),
            (self.ports, PORT_KINDS),
        ):
            if not axis:
                raise ValueError("sweep axes must be non-empty")
            for value in axis:
                if value not in valid:
                    raise ValueError(f"unknown axis value {value!r}")
        if not self.tasks or not self.replicates:
            raise ValueError("sweep axes must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def for_total_size(cls, n: int, **kwargs) -> "SweepSpec":
        """A sweep over every size shape of ``n`` (phase-diagram style)."""
        return cls(shapes=tuple(enumerate_size_shapes(n)), **kwargs)

    def expand(self) -> tuple[RunSpec, ...]:
        """The deterministic, duplicate-free job list for this sweep."""
        jobs: list[RunSpec] = []
        seen: set[str] = set()
        for shape, model, ports, task, rep in itertools.product(
            self.shapes, self.models, self.ports, self.tasks, self.replicates
        ):
            if model == "clique" and ports == "none":
                continue
            spec = RunSpec(
                sizes=shape,
                model=model,
                ports=ports,
                task=task,
                kind=self.kind,
                t=self.t,
                samples=self.samples,
                replicate=rep,
            )
            key = spec.job_key
            if key in seen:
                continue
            seen.add(key)
            jobs.append(spec)
        return tuple(jobs)

    def to_dict(self) -> dict:
        """JSON-safe dictionary form (stored in run-directory manifests)."""
        return {
            "shapes": [list(sh) for sh in self.shapes],
            "models": list(self.models),
            "ports": list(self.ports),
            "tasks": list(self.tasks),
            "kind": self.kind,
            "t": self.t,
            "samples": self.samples,
            "replicates": list(self.replicates),
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output."""
        names = {f.name for f in fields(cls)}
        unknown = payload.keys() - names
        if unknown:
            raise ValueError(f"unknown SweepSpec fields: {sorted(unknown)}")
        data = dict(payload)
        data["shapes"] = tuple(tuple(sh) for sh in data["shapes"])
        for axis in ("models", "ports", "tasks", "replicates"):
            if axis in data:
                data[axis] = tuple(data[axis])
        return cls(**data)


__all__ = [
    "KINDS",
    "MODELS",
    "PORT_KINDS",
    "RunSpec",
    "SweepSpec",
    "derive_seed",
    "make_ports",
    "make_task",
    "parse_sizes",
]
