"""The benchmark's arithmetic: medians, quartiles, span self time, deadline
charging and failure shares.  Pure Python, so it is unit-tested alone."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = None                          # index of the enclosing span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())]
        out.append(s.duration - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def self_time_by_name(spans):
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def charged_seconds(ok, seconds, deadline):
    """A failed instance costs the full deadline, however fast it failed."""
    return seconds if ok else deadline


def fail_share(outcomes):
    """Failed attempts over attempts; outcomes are booleans (True = ok)."""
    outcomes = list(outcomes)
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def summarise(attempts, deadline):
    """End-to-end figures from {instance id: [(ok, seconds), ...]}.

    Each instance's time is the median of its charged attempts; wall_s is
    their sum and solve_p50_s their median.
    """
    per = [median([charged_seconds(ok, s, deadline) for ok, s in runs])
           for runs in attempts.values()]
    flat = [ok for runs in attempts.values() for ok, _ in runs]
    return {"wall_s": sum(per), "solve_p50_s": median(per),
            "fail_share": fail_share(flat), "attempted": len(flat),
            "failed": sum(1 for ok in flat if not ok), "instances": len(per)}
