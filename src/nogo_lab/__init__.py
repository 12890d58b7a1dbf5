"""nogo-lab: machine checks for hidden-variable models of quantum systems.

The library turns the classical-embeddability question for finite
quantum systems into finitely checkable computations: operator identities
behind forced commutativity, phase-space axiom checkers, uniqueness of the
conditioned state, and exact rational feasibility of measurement scenarios
(CHSH, parity squares, state-forced parity games).

Importing the package loads only the operator layers behind the names below;
each other module loads on its own import, so a command pays only for its
layer.
"""

__version__ = "0.1.0"

from .opcore import CLUSTER_GAP, TOL  # noqa: F401
from .quantum import Density, Observable, Projector  # noqa: F401
