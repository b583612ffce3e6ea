"""Exact reference for the multimodal score, for oracle tests.

Every term is rounded the way ``engine._score_file_multimodal`` rounds it:
each decay, product, quotient and ``log1p`` is one float operation. Sums are
different: their terms are added as exact fractions and rounded once, so a
score that depends on summation order, or on the interpreter's ``sum``,
disagrees with this one.
"""
import math
from fractions import Fraction

from busfactor.model import age_days, decay


def exact_sum(terms) -> float:
    return float(sum(map(Fraction, terms), Fraction(0)))


def doa_reference(ledger, engineer_id: str, as_of_ms: int, params) -> float:
    def decayed(ts: int) -> float:
        return decay(age_days(ts, as_of_ms), params.decay_days)

    engineers = {*ledger.commits, *ledger.reviews}
    engineers.update(e for entries in ledger.meetings.values() for a, _, _ in entries for e in a)
    if ledger.first_authorship is not None:
        engineers.add(ledger.first_authorship[1])
    if engineer_id not in engineers:
        return 0.0
    dl = {e: exact_sum(map(decayed, ledger.commits.get(e, ()))) for e in engineers}
    rv = {e: exact_sum(map(decayed, ledger.reviews.get(e, ()))) for e in engineers}
    dl_total, rv_total = exact_sum(dl.values()), exact_sum(rv.values())
    e = engineer_id
    fa = 0.0
    if ledger.first_authorship is not None and ledger.first_authorship[1] == e:
        fa = decayed(ledger.first_authorship[0])
    # the engineer's bucket under each key: the entries it attended
    buckets = [
        [m * decayed(ts) for attendees, ts, m in entries if e in attendees]
        for entries in ledger.meetings.values()
    ]
    meetings = exact_sum(
        min(1.0, exact_sum(bucket) / params.mte_minutes) for bucket in buckets if bucket
    )
    return exact_sum((
        params.fa_weight * fa,
        params.dl_weight * dl[e],
        params.rv_weight * rv[e],
        meetings,
        params.log_dl_weight * (math.log1p(dl_total) - math.log1p(dl_total - dl[e])),
        params.log_rv_weight * (math.log1p(rv_total) - math.log1p(rv_total - rv[e])),
    ))
