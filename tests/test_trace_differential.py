"""``tests/trace_differential.py`` in tier-1, so that the script keeps
running and its digest keeps being compared between revisions."""

import hashlib

from trace_differential import run, traces


def test_traces_are_fixed_and_distinct():
    labels = [label for label, _ in traces()]
    assert len(labels) == 19
    assert len(set(labels)) == len(labels)


def test_every_trace_keeps_its_digest():
    # the lines are main's; the last one reads "total 19 traces <this digest>"
    total = hashlib.sha256()
    for label, text in traces():
        total.update(f"{label} {run(text)}\n".encode())
    assert total.hexdigest()[:16] == "6acd0cc8b5371321"
