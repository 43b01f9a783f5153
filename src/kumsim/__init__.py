"""Pointer-machine simulators with step-exact cost accounting.

The package bundles a storage-graph engine for two classic machine
models (an undirected bounded-degree flavor and a directed flavor with
unbounded in-degree), a streaming runtime that meters work between
input symbols, real-time recognizers for a block-lookup language on
both models, and a brute-force oracle to check them against.
"""

from kumsim.blocklang import (
    FormatError, Instance, NegativeKind, encode, gen_all_equal,
    gen_negative, gen_positive, member, parse,
)
from kumsim.engine import (
    DegreeBoundExceeded, EngineError, ModelKind, ModelMismatch, NodeRef,
    PortFree, PortOccupied, StorageGraph, UnknownColor, new_graph,
)
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import (
    Program, Registers, RejectReason, Runner, Trace, Verdict, max_gap,
    mean_gap, run,
)
from kumsim.smm_recognizer import SMM_CADENCE, build_smm_recognizer

__version__ = "0.1.0"

__all__ = [
    "DegreeBoundExceeded", "EngineError", "FormatError", "Instance",
    "KUM_CADENCE", "ModelKind", "ModelMismatch", "NegativeKind", "NodeRef",
    "PortFree", "PortOccupied", "Program", "Registers", "RejectReason",
    "Runner", "SMM_CADENCE", "StorageGraph", "Trace", "UnknownColor",
    "Verdict", "build_kum_recognizer", "build_smm_recognizer", "encode",
    "gen_all_equal", "gen_negative", "gen_positive", "max_gap", "mean_gap",
    "member", "new_graph", "parse", "run", "__version__",
]
