"""The algorithm registry: named searcher configurations as a contract.

Every entry maps a public algorithm name to an :class:`AlgorithmSpec` — the
searcher class plus the settings that *define* the variant (pinned) and the
tuning knobs callers may adjust.  The registry is the single construction
path for searchers: the service layer, the CLI, the parallel executor, and
the bench harness all build through :func:`make_searcher`, so every entry
is guaranteed to satisfy the :class:`~repro.core.plan.Searcher` protocol
(enforced by the registry contract tests).

Kwarg semantics
---------------
- The universal tuning vocabulary is ``alt``, ``batch_size``,
  ``refinement``, ``scheduler``, ``shards``.  Anything else raises
  :class:`~repro.errors.QueryError` (typos should not pass silently).
- ``None``-valued kwargs mean "keep the default" and are dropped — this is
  what lets the CLI forward unset flags wholesale.
- A kwarg the variant does not accept (``batch_size`` for brute force) is
  dropped: batch callers tune one vocabulary across a whole battery of
  algorithms, and the knob simply has no meaning for some of them.
- A kwarg the variant *pins* is overridden by the pin: ``collaborative-rr``
  *is* the round-robin ablation; letting ``scheduler=`` repoint it would
  make the registry name a lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from repro.core.baselines import BruteForceSearcher, TextFirstSearcher
from repro.core.plan import Searcher
from repro.core.scan import ScanSearcher
from repro.core.search import CollaborativeSearcher, SpatialFirstSearcher
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.shard.searcher import ShardedSearcher

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "SERVING_ALGORITHM",
    "TUNING_KWARGS",
    "get_spec",
    "make_searcher",
]

#: The universal tuning vocabulary accepted by :func:`make_searcher`.
TUNING_KWARGS = frozenset({"alt", "batch_size", "refinement", "scheduler", "shards"})

#: What ``repro serve`` runs by default; library defaults stay on
#: ``collaborative``, the paper's algorithm and the reference implementation.
SERVING_ALGORITHM = "scan"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: a searcher class plus its variant identity.

    ``accepts`` lists the tuning kwargs the factory understands; ``pinned``
    holds the settings that define the variant and always win over caller
    kwargs.  ``description`` is the one-liner shown by ``repro bench`` help
    and the docs.
    """

    name: str
    factory: Callable[..., Searcher]
    accepts: frozenset[str] = frozenset()
    pinned: Mapping[str, object] = field(default_factory=lambda: MappingProxyType({}))
    description: str = ""

    def resolve_tuning(self, **kwargs) -> dict[str, object]:
        """The effective tuning the factory receives, kwarg semantics applied.

        ``None`` values are dropped (keep the default), kwargs outside the
        vocabulary raise, inapplicable knobs are dropped, and pinned variant
        settings win.  This resolved mapping — not the caller's raw kwargs —
        is what identifies a serving configuration: the service-level
        result cache keys on ``(algorithm, resolved tuning)``, so two
        services differing only in dropped/defaulted kwargs alias the same
        entries while genuinely different tunings never collide.
        """
        tuning = {key: value for key, value in kwargs.items() if value is not None}
        unknown = set(tuning) - TUNING_KWARGS
        if unknown:
            raise QueryError(
                f"unknown searcher option(s) {sorted(unknown)}; "
                f"the tuning vocabulary is {sorted(TUNING_KWARGS)}"
            )
        effective = {
            key: value
            for key, value in tuning.items()
            if key in self.accepts and key not in self.pinned
        }
        effective.update(self.pinned)
        return effective

    def build(self, database: TrajectoryDatabase, **kwargs) -> Searcher:
        """Instantiate the variant, applying the kwarg semantics above."""
        return self.factory(database, **self.resolve_tuning(**kwargs))


def _spec(name, factory, accepts=(), pinned=None, description=""):
    return AlgorithmSpec(
        name=name,
        factory=factory,
        accepts=frozenset(accepts),
        pinned=MappingProxyType(dict(pinned or {})),
        description=description,
    )


#: Algorithm registry: name -> :class:`AlgorithmSpec`.
ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "collaborative",
            CollaborativeSearcher,
            accepts=("scheduler", "batch_size", "refinement", "alt"),
            description="the paper's collaborative spatial-textual search",
        ),
        _spec(
            "collaborative-rr",
            CollaborativeSearcher,
            accepts=("batch_size", "refinement", "alt"),
            pinned={"scheduler": "round-robin"},
            description="collaborative search without the scheduling heuristic",
        ),
        _spec(
            "collaborative-nr",
            CollaborativeSearcher,
            accepts=("scheduler", "batch_size", "alt"),
            pinned={"refinement": False},
            description="collaborative search without direct refinement",
        ),
        _spec(
            "spatial-first",
            SpatialFirstSearcher,
            accepts=("scheduler", "batch_size"),
            description="pure expansion ablation (text only at refinement)",
        ),
        _spec(
            "text-first",
            TextFirstSearcher,
            description="text-domain-driven baseline with spatial refinement",
        ),
        _spec(
            "brute-force",
            BruteForceSearcher,
            description="exhaustive exact scoring (the oracle)",
        ),
        _spec(
            "scan",
            ScanSearcher,
            description="exact two-phase scan: bounded SSSP per location, phase 2 on the blocking set only",
        ),
        _spec(
            "sharded",
            ShardedSearcher,
            accepts=("shards", "scheduler", "batch_size", "refinement", "alt"),
            description="in-process scan of spatial shards with bound-based shard pruning",
        ),
    )
}


def get_spec(algorithm: str) -> AlgorithmSpec:
    """The registry entry for ``algorithm`` (:class:`QueryError` if unknown).

    Ad-hoc entries registered as bare callables (tests inject fakes this
    way) are wrapped on the fly: they receive any tuning kwarg the caller
    passes, unfiltered — their signature is the injector's concern.
    """
    try:
        entry = ALGORITHMS[algorithm]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    if isinstance(entry, AlgorithmSpec):
        return entry
    return AlgorithmSpec(name=algorithm, factory=entry, accepts=TUNING_KWARGS)


def make_searcher(
    database: TrajectoryDatabase, algorithm: str = "collaborative", **kwargs
) -> Searcher:
    """Instantiate a registered searcher by name.

    The tuning kwargs (``alt=``, ``batch_size=``, ``refinement=``,
    ``scheduler=``) follow the semantics in the module docstring:
    ``None`` keeps defaults, inapplicable knobs are dropped, pinned
    variant settings win, and anything outside the vocabulary raises.
    """
    return get_spec(algorithm).build(database, **kwargs)
