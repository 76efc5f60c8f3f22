"""Answer checking against the brute-force oracle, under one tie rule.

A response passes when, rank by rank, it names the oracle's trajectory
with the oracle's score (to :data:`TOLERANCE`).  It may name a *different*
trajectory at a rank only when that trajectory's exact score — recomputed
here with :class:`repro.core.similarity.ExactScorer`, not taken from the
response — equals the oracle's score at that rank: a genuine tie the two
searchers broke differently.  Such ranks are counted as
``tie_substitutions`` and reported, never silently accepted; anything else
is a mismatch and fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from data import query_from_body

TOLERANCE = 1e-9


class Rescorer:
    """Exact score of one trajectory for one query.

    ``get_database`` is called on first use only: the static lanes need
    the database just for the rare id the stored ranking does not cover,
    so its 2 s load is paid lazily.
    """

    def __init__(self, get_database):
        self._get_database = get_database
        self._database = None

    def __call__(self, body: dict, trajectory_id: int) -> float | None:
        from repro.core.similarity import ExactScorer

        if self._database is None:
            self._database = self._get_database()
        database = self._database
        if trajectory_id not in database.trajectories:
            return None
        scorer = ExactScorer(database, query_from_body(body))
        return scorer.score(database.get(trajectory_id)).score


@dataclass
class Verdict:
    """Running totals of one workload's oracle checks."""

    checked: int = 0
    mismatches: int = 0
    tie_substitutions: int = 0
    details: list[str] = field(default_factory=list)

    def note(self, detail: str) -> None:
        self.mismatches += 1
        if len(self.details) < 5:
            self.details.append(detail)

    def summary(self) -> str:
        return (
            f"oracle: checked={self.checked} mismatches={self.mismatches} "
            f"tie_substitutions={self.tie_substitutions}"
        )


def check_answer(
    verdict: Verdict,
    body: dict,
    got: list[tuple[int, float]],
    want: list[tuple[int, float]],
    rescore: Rescorer,
) -> bool:
    """Fold one response (``got``) against the oracle's ranking (``want``);
    returns whether it passed.

    ``want`` may run past ``k`` (see ``data.ORACLE_MARGIN``): the extra
    rows are brute force's exact scores of the runners-up, consulted before
    ``rescore`` when a rank names a different trajectory.
    """
    verdict.checked += 1
    exact_scores = dict(want)
    want = want[: body["k"]]
    if len(got) != len(want) or len({tid for tid, _ in got}) != len(got):
        verdict.note(f"{body}: {len(got)} items (duplicates?) vs oracle {len(want)}")
        return False
    substitutions = 0
    for rank, ((got_id, got_score), (want_id, want_score)) in enumerate(
        zip(got, want)
    ):
        if abs(got_score - want_score) > TOLERANCE:
            verdict.note(
                f"{body}: rank {rank} score {got_score!r} vs oracle {want_score!r}"
            )
            return False
        if got_id != want_id:
            exact = exact_scores.get(got_id)
            if exact is None:
                exact = rescore(body, got_id)
            if exact is None or abs(exact - want_score) > TOLERANCE:
                verdict.note(
                    f"{body}: rank {rank} id {got_id} (exact {exact!r}) "
                    f"vs oracle id {want_id} ({want_score!r})"
                )
                return False
            substitutions += 1
    verdict.tie_substitutions += substitutions
    return True
