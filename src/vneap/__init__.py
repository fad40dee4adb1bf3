"""Virtual network embedding with alternative topologies.

A request asks for an application that can be realized by any one of
several functionally equivalent virtual topologies (e.g. with or without
a traffic-reducing accelerator function).  The solver picks, per request,
one alternative and an embedding of it onto the substrate network -- or
rejects the request at a penalty.

The package provides:

* an exact MILP / LP formulation of the problem (:mod:`vneap.formulation`),
* a solver backend with an exact HiGHS MILP oracle (:mod:`vneap.lp`),
* a greedy per-request embedder (:mod:`vneap.greedy`),
* an aggregate-LP randomized-rounding embedder (:mod:`vneap.tanto`),
* an independent feasibility/cost validator (:mod:`vneap.validator`),
* an experiment harness over network topologies (:mod:`vneap.harness`),
* a command-line interface (:mod:`vneap.cli`).
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateArc,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNode,
    link_preorder,
    validate_application,
    validate_substrate,
)
