"""The benchmark's calls into the program, run in the tier-1 suite.

perfbench/workloads.py and perfbench/refs.py are imported as they are, and
each workload runs `run` and then `check` on a few of its items, so that a
changed signature or output the benchmark relies on fails here too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import refs  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def bern():
    return refs.Bernoulli()


def _run_and_check(workload, items):
    for item in items:
        workload.check(item, workload.run(item))


def test_one_certify_item_of_each_kind(bern):
    certify = workloads.Certify(1, bern)
    smallest = {}
    for item in certify.items:
        if item.kind not in smallest or item.s < smallest[item.kind].s:
            smallest[item.kind] = item
    assert smallest.keys() == {"catalog", "L", "hurwitz"}
    _run_and_check(certify, smallest.values())


def test_one_integrality_item(bern):
    integrality = workloads.Integrality(1, bern)
    _run_and_check(integrality, [min(integrality.items, key=lambda item: item.s)])


def test_twenty_query_requests(bern):
    queries = workloads.Queries(1, bern)
    # the first requests of every kind but the JSON-character ones, which fail today
    by_kind = [[item for item in queries.items if item.kind == kind]
               for kind, _ in workloads.QUERY_MIX]
    items = [group[k] for k in range(3) for group in by_kind][:20]
    _run_and_check(queries, items)
