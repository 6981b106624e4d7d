"""Shared machinery for the static and dynamic analyzers.

Six layers gate this tree in CI.  Five are static and run through one
driver, ``python -m repro.analysis`` (:mod:`repro.analysis.driver`),
which parses the tree once into one :class:`repro.flow.project.Project`
and one call graph and hands both to every selected tool:

* lint -- per-file AST invariants (:mod:`repro.lint`);
* flow -- whole-program exception flow, option plumbing and layering
  (:mod:`repro.flow`);
* hotpath -- static cost analysis of the hot set (:mod:`repro.hotpath`);
* bounds -- resource bounds and lifecycles (:mod:`repro.bounds`);
* proto -- state-machine conformance (:mod:`repro.proto`).

The sixth, repro-sanitize, replays scenarios under shuffled schedules
(``python -m repro.sanitize``).  All of them share one contract:

* exit status 0 when clean, 1 when findings were reported, 2 on usage
  errors (:data:`EXIT_CLEAN` / :data:`EXIT_FINDINGS` / :data:`EXIT_USAGE`);
* one finding record (:class:`Finding`);
* per-line suppressions ``# repro-<tool>: disable=<name>[,<name>...]``
  with a ``disable-next=`` form for multi-line statements
  (:func:`parse_suppressions`);
* ``--format github`` emitting ``::error`` workflow commands that land
  as inline PR annotations (:func:`github_annotation`);
* a strict/relaxed/auto profile split resolving per file -- strict under
  ``src/repro``, relaxed for harness code (:func:`profile_for`), with one
  table of relaxed exemptions keyed by check name
  (:data:`RELAXED_EXEMPT`).
"""

from .harness import (  # noqa: F401
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    PROFILES,
    RELAXED_EXEMPT,
    Finding,
    UsageError,
    discover,
    keep_finding,
    module_name_for,
    parse_suppressions,
    profile_for,
    suppressed,
)
from .output import FORMATS, github_annotation  # noqa: F401

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "FORMATS",
    "PROFILES",
    "RELAXED_EXEMPT",
    "Finding",
    "UsageError",
    "discover",
    "github_annotation",
    "keep_finding",
    "module_name_for",
    "parse_suppressions",
    "profile_for",
    "suppressed",
]
