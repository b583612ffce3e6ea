"""Naive reference review join, for oracle tests.

Keeps the merged reviews, then spells out one REVIEW event per (review,
distinct reviewed commit on the branch, distinct reviewer who is not that
commit's author, live file of the commit), and one warning per distinct
commit id of a review that is not on the branch. ``collab.emit_review_events``
returns one credit per (review, commit) instead; spelled out, the two must
give the same events. Intentionally simple and slow.
"""
from busfactor.model import ContributionEvent, EventKind


def emit_review_events(reviews, commit_index, identity):
    """The REVIEW events and the warnings of ``reviews``, merged or not."""
    events, warnings = [], []
    for review in reviews:
        if review.state.lower() != "merged":
            continue
        reviewer_ids = []
        for actor in review.reviewers:
            engineer = identity.resolve(actor)
            if engineer not in reviewer_ids:
                reviewer_ids.append(engineer)
        seen = []
        for commit_id in review.commit_ids:
            if commit_id in seen:
                continue
            seen.append(commit_id)
            if commit_id not in commit_index:
                warnings.append(
                    f"review {review.id!r} references commit {commit_id} "
                    f"not on the analyzed branch; skipped"
                )
                continue
            knowledge = commit_index[commit_id]
            for engineer in reviewer_ids:
                if engineer == knowledge.engineers[0]:
                    continue
                for path in knowledge.file_paths:
                    events.append(
                        ContributionEvent(
                            kind=EventKind.REVIEW,
                            engineer_id=engineer,
                            file_path=path,
                            timestamp_ms=review.completed_at_ms,
                            commit_ref=commit_id,
                        )
                    )
    return events, warnings
