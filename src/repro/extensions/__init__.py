"""Paper §6 future-work extensions: flexible jobs.

Vector (multi-dimensional) packing graduated to the first-class path: the
packers live in :mod:`repro.algorithms.vector`, items, bins and packings are
the core :class:`~repro.core.Item`, :class:`~repro.core.Bin` and
:class:`~repro.core.PackingResult`, and the lower bounds live in
:mod:`repro.bounds`.
"""

from .flexible import FlexibleJob, FlexibleSchedule, SlackAwareScheduler

__all__ = [
    "FlexibleJob",
    "FlexibleSchedule",
    "SlackAwareScheduler",
]
