"""repro-proto: static state-machine & protocol conformance analysis.

The sixth analysis layer on the shared :mod:`repro.analysis` harness.
Classes declare their lifecycle with ``@protocol`` / ``__protocol__``
(:mod:`repro.common.protomodel`); this package reads those declarations
off the AST, inventories every state-field write through the
:mod:`repro.flow` call graph, and enforces that each transition is
declared, guarded, ordered, owner-local, and observable.  Run it as
``python -m repro.analysis --check proto [paths...]``.
"""

from .analyze import ALL_CHECKS, ProtoResult, analyze
from .declarations import ProtocolSpec, collect_protocols
from .inventory import Binding, ProtoInventory, TransitionSite

__all__ = [
    "ALL_CHECKS",
    "Binding",
    "ProtoInventory",
    "ProtoResult",
    "ProtocolSpec",
    "TransitionSite",
    "analyze",
    "collect_protocols",
]
