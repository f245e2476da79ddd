"""Correctness checks over period reports, independent of today's output.

Every check here restates a property of the admission auctions rather
than comparing against a recorded run, so a change that alters which
queries win still passes as long as the outcome is a valid auction
outcome:

* every auction's winners fit its capacity (shared operators counted
  once);
* no winner pays more than its bid, and nobody pays a negative price;
* a period's revenue equals the sum of its winners' payments;
* every bidder ends the period admitted or rejected, never both, and
  in one shard only;
* recovered state equals the live state it recovers.

The checks read *normalized* period records (plain dicts), built by
:func:`record_from_cluster_document` from the gateway's JSON report or
by :func:`record_from_sim_report` from a simulator report, so they can
be exercised on hand-made records in tests.

A normalized record is::

    {"period": int, "revenue": float,
     "admitted": [query ids], "rejected": [query ids],
     "auctions": [{"capacity": float, "bidders": int,
                   "winners": {query id: {"bid": float or None,
                                          "ops": [operator ids],
                                          "payment": float}},
                   "loads": {operator id: load}}]}

It carries only the winners' bids and operators: materializing every
bidder of a columnar auction would cost more than the run it checks.
Every bidder being settled is checked by count here and by identity
in :func:`check_settled_once`.
"""

from __future__ import annotations

import math
from collections import Counter

#: Relative slack for float comparisons of sums computed in a
#: different order than the program computed them.
REL_TOL = 1e-9
ABS_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_auction(auction: dict, where: str = "") -> "list[str]":
    """Capacity and price checks of one auction outcome."""
    errors = []
    used_ops = set()
    for query_id, winner in auction["winners"].items():
        bid, amount = winner["bid"], winner["payment"]
        if bid is None:
            errors.append(f"{where}: winner {query_id} did not bid")
            continue
        if amount > bid + ABS_TOL:
            errors.append(f"{where}: winner {query_id} pays {amount!r} "
                          f"above its bid {bid!r}")
        if amount < -ABS_TOL:
            errors.append(f"{where}: winner {query_id} is paid "
                          f"{amount!r}")
        used_ops.update(winner["ops"])
    load = sum(auction["loads"][op] for op in used_ops)
    capacity = auction["capacity"]
    if load > capacity * (1 + REL_TOL) + ABS_TOL:
        errors.append(f"{where}: admitted load {load!r} exceeds "
                      f"capacity {capacity!r}")
    if len(auction["winners"]) > auction["bidders"]:
        errors.append(f"{where}: more winners than bidders")
    return errors


def check_period(record: dict) -> "list[str]":
    """Every per-period property of one normalized record."""
    where = f"period {record['period']}"
    errors = []
    winners = Counter()
    bidders = 0
    paid = 0.0
    for auction in record["auctions"]:
        errors.extend(check_auction(auction, where))
        winners.update(auction["winners"].keys())
        bidders += auction["bidders"]
        paid += sum(winner["payment"]
                    for winner in auction["winners"].values())
    if not _close(record["revenue"], paid):
        errors.append(f"{where}: revenue {record['revenue']!r} differs "
                      f"from the sum of payments {paid!r}")
    twice = sorted(query_id for query_id, n in winners.items() if n > 1)
    if twice:
        errors.append(f"{where}: {len(twice)} queries won twice, "
                      f"e.g. {twice[0]}")
    listed = Counter(record["admitted"]) + Counter(record["rejected"])
    repeated = sorted(query_id for query_id, n in listed.items() if n > 1)
    if repeated:
        errors.append(f"{where}: {len(repeated)} queries listed more "
                      f"than once, e.g. {repeated[0]}")
    if set(record["admitted"]) != set(winners):
        errors.append(f"{where}: the admitted list is not the set of "
                      f"auction winners")
    if len(listed) < bidders:
        errors.append(f"{where}: {bidders} bids but only {len(listed)} "
                      f"queries admitted or rejected")
    return errors


def check_settled_once(expected: "dict[str, int]",
                       records: "list[dict]") -> "list[str]":
    """Each query id appears as admitted or rejected exactly as often
    as *expected* says (1 for a plain submission, plus one per
    renewal auctioned), summed over *records*."""
    seen = Counter()
    for record in records:
        seen.update(record["admitted"])
        seen.update(record["rejected"])
    errors = []
    wrong = sorted(query_id for query_id in set(expected) | set(seen)
                   if seen.get(query_id, 0) != expected.get(query_id, 0))
    if wrong:
        first = wrong[0]
        errors.append(
            f"{len(wrong)} queries settled the wrong number of times, "
            f"e.g. {first}: {seen.get(first, 0)} times, expected "
            f"{expected.get(first, 0)}")
    return errors


def check_recovered(live: dict, recovered: dict) -> "list[str]":
    """Recovered state equals live state: same revenue (exactly) and
    the same bytes in the last report."""
    errors = []
    if recovered["revenue"] != live["revenue"]:
        errors.append(f"recovered revenue {recovered['revenue']!r} "
                      f"differs from live {live['revenue']!r}")
    if recovered["period"] != live["period"]:
        errors.append(f"recovered period {recovered['period']!r} "
                      f"differs from live {live['period']!r}")
    if recovered["last_report"] != live["last_report"]:
        errors.append("the recovered last report differs from the "
                      "live one")
    return errors


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------


def record_from_cluster_document(document: dict) -> dict:
    """Normalize a gateway cluster report (``/v1/tick``'s ``report``)."""
    auctions = []
    admitted: list = []
    rejected: list = []
    for shard in document["shards"]:
        instance = shard["instance"]
        queries = {query["id"]: query for query in instance["queries"]}
        winners = {}
        for query_id, amount in shard["outcome"]["payments"].items():
            query = queries.get(query_id, {})
            winners[query_id] = {"bid": query.get("bid"),
                                 "ops": query.get("operators", []),
                                 "payment": float(amount)}
        auctions.append({"capacity": float(instance["capacity"]),
                         "bidders": len(queries), "winners": winners,
                         "loads": {op: float(load) for op, load
                                   in instance["operators"].items()}})
        admitted.extend(shard["admitted"])
        rejected.extend(shard["rejected"])
    return {"period": int(document["period"]),
            "revenue": float(document["total_revenue"]),
            "admitted": admitted, "rejected": rejected,
            "auctions": auctions}


def record_from_sim_report(report) -> dict:
    """Normalize a subscription-mode ``SimPeriodReport``."""
    auctions = []
    admitted: list = []
    rejected: list = []
    for result in report.shard_results:
        for outcome in result.outcomes.values():
            instance = outcome.instance
            winners = {}
            for query_id, amount in outcome.payments.items():
                query = (instance.query(query_id)
                         if instance.has_query(query_id) else None)
                winners[query_id] = {
                    "bid": None if query is None else float(query.bid),
                    "ops": () if query is None else query.operator_ids,
                    "payment": float(amount)}
            auctions.append({
                "capacity": float(instance.capacity),
                "bidders": instance.num_queries,
                "winners": winners,
                "loads": {op: float(instance.operator(op).load)
                          for winner in winners.values()
                          for op in winner["ops"]},
            })
        admitted.extend(result.admitted)
        rejected.extend(result.rejected)
    return {"period": int(report.period), "revenue": float(report.revenue),
            "admitted": admitted, "rejected": rejected,
            "auctions": auctions}
