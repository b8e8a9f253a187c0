"""A sample of ``tests/differential.py`` in tier-1, so that the script keeps
running and its digests keep being compared between revisions."""

import hashlib
import itertools

from differential import cases, run


def test_cases_are_fixed_and_distinct():
    labels = [label for label, *_ in cases()]
    assert len(labels) == 14_816
    assert len(set(labels)) == len(labels)


def test_every_53rd_case_keeps_its_digest():
    # 280 cases, 147 of them at 64 threads or more; the lines are main's
    total = hashlib.sha256()
    for label, g, depth, hop, params in itertools.islice(cases(), 0, None, 53):
        total.update(f"{label} {run(g, depth, hop, params)}\n".encode())
    assert total.hexdigest()[:16] == "54f84340de3a7743"
