"""The linear scan ``ScheduleCache.nearest`` is pinned against.

:meth:`repro.core.schedule_cache.ScheduleCache.nearest` scores a context's
canonical entries in one array pass over an index kept beside the
canonical map.  This is the scan it replaced: walk the canonical map in
insertion order, keep the entries of the asked context, and hold on to
the first strictly smallest :meth:`CachedSchedule.distance`.
"""

from __future__ import annotations

from repro.core.schedule_cache import CachedSchedule, ScheduleCache
from repro.workloads.descriptors import Workload


def nearest_by_scan(cache: ScheduleCache, context: tuple,
                    workload: Workload) -> CachedSchedule | None:
    """Closest canonical entry of ``context`` by a scan of every entry."""
    best: CachedSchedule | None = None
    best_distance = float("inf")
    for key, entry in cache._canonical.items():
        if key[0] != context:
            continue
        distance = entry.distance(workload)
        if distance < best_distance:
            best, best_distance = entry, distance
    return best
