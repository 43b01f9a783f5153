"""Storage-graph memory shared by the two pointer-machine flavors.

A StorageGraph is the working memory of a pointer machine.  Two variants
sit behind one interface:

* KUM: an undirected ported graph with a hard degree bound.  link()
  occupies one named port on each endpoint and the edge is visible from
  both sides; unlink() removes it from both.
* SMM: a directed graph.  Each node has one outgoing pointer slot per
  direction label, targets are overwritten freely, and a node's in-degree
  is unconstrained (that asymmetry is the whole point of keeping both
  models around).

Every mutating or probing primitive costs exactly one step on the graph's
step counter; idle() buys any number of do-nothing steps at once.
graph_stats() is harness instrumentation and costs nothing.

Node handles are plain ints, stable for the life of the graph (nodes are
never deleted, only unlinked).  Colors and port labels are declared as
name strings in new_graph(), which checks them; every primitive takes
their index in that declaration, and the graph looks no name up.
palette[0] is the default color of every fresh node.

Port rows are stored flat: one list holds every node's port targets, and
port p of node v lives at index v * nports + p (for KUM a bytearray of
the same shape holds the far-side port of each edge, read only where a
target is set).  Port ids, colors and degrees fit in a byte (at most
MAX_PORTS labels and MAX_PALETTE colors; a degree is at most the port
count), so colors and degrees are bytearrays too; only SMM in-degrees,
which are unbounded, stay a list.  create_node() extends every column by
one prebuilt blank row and fork() is a handful of whole-column copies.
Because a port out of range would silently address the next node's row,
every primitive range-checks its ports as well as its node handles; a
bad handle, port or idle count raises BadHandle, BadPort or BadCount,
which are EngineErrors (so the driver reports a machine fault) and
ValueErrors.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence


class ModelKind(enum.Enum):
    KUM = "kum"
    SMM = "smm"


# Handles and symbols at the operation level.  Kept as bare ints for speed;
# the names exist so signatures read the way the machine model talks.
NodeRef = int
Color = int
PortLabel = int

MAX_PALETTE = 64
MAX_PORTS = 64


class EngineError(Exception):
    """A primitive was applied in a state that the model forbids."""


class DegreeBoundExceeded(EngineError):
    pass


class PortOccupied(EngineError):
    pass


class PortFree(EngineError):
    pass


class UnknownColor(EngineError):
    pass


class ModelMismatch(EngineError):
    """link() on an SMM graph, or set_pointer() on a KUM graph."""


class BadHandle(EngineError, ValueError):
    """An argument that is not a node handle of this graph."""


class BadPort(EngineError, ValueError):
    """An argument that is not a port id of this graph."""


class BadCount(EngineError, ValueError):
    """An idle count that is not a nonnegative int."""


class StorageGraph:
    """Ported-graph storage with step-exact cost accounting.

    Construct via new_graph().  All failed primitives raise a subclass of
    EngineError and leave the graph untouched.
    """

    __slots__ = (
        "model", "degree_bound", "palette", "labels",
        "step_counter", "_is_kum", "_ncolors", "_nports", "_blank_row",
        "_zero_row",
        "_adj", "_peer", "_color", "_deg", "_indeg",
        "_node_count", "_max_degree", "_max_in_degree",
    )

    def __init__(self, model: ModelKind, degree_bound: Optional[int],
                 palette: Sequence[str], labels: Sequence[str]):
        if not isinstance(model, ModelKind):
            raise ValueError("model must be a ModelKind")
        if not palette:
            raise ValueError("palette must not be empty")
        if len(palette) > MAX_PALETTE:
            raise ValueError("palette size capped at %d" % MAX_PALETTE)
        if not labels:
            raise ValueError("label alphabet must not be empty")
        if len(labels) > MAX_PORTS:
            raise ValueError("label alphabet capped at %d" % MAX_PORTS)
        if len(set(palette)) != len(palette):
            raise ValueError("duplicate color names")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate port labels")

        self.model = model
        self._is_kum = model is ModelKind.KUM
        if self._is_kum:
            # The port alphabet may be larger than the degree bound; the
            # bound is enforced per node at link time, not at creation.
            if degree_bound is None or degree_bound < 1:
                raise ValueError("KUM requires a positive degree bound")
            self.degree_bound = degree_bound
        else:
            # SMM out-degree is capped by the direction alphabet itself;
            # an explicit bound is accepted but must agree.
            if degree_bound is not None and degree_bound != len(labels):
                raise ValueError("SMM out-degree bound is |labels|")
            self.degree_bound = len(labels)

        self.palette = tuple(palette)
        self.labels = tuple(labels)
        self._ncolors = len(self.palette)
        self._nports = len(self.labels)
        self._blank_row = (None,) * self._nports
        self._zero_row = bytes(self._nports)

        # The initial node; construction costs no steps.
        self._adj: list[Optional[int]] = list(self._blank_row)
        self._peer = bytearray(               # KUM: far-side port ids
            self._zero_row if self._is_kum else b"")
        self._color = bytearray(1)
        self._deg = bytearray(1)              # KUM degree / SMM out-degree
        self._indeg: list[int] = (            # SMM only; KUM in-degree is 0
            [] if self._is_kum else [0])
        self._node_count = 1
        self._max_degree = 0
        self._max_in_degree = 0
        self.step_counter = 0

    @property
    def initial_node(self) -> NodeRef:
        return 0

    # -- internals ----------------------------------------------------------

    # link, set_pointer and unlink test their arguments inline with the same
    # predicate as these helpers, and call them only to raise the error.

    def _check_node(self, v) -> None:
        if type(v) is not int or not 0 <= v < self._node_count:
            raise BadHandle("not a node handle of this graph: %r" % (v,))

    def _check_port(self, p) -> None:
        if type(p) is not int or not 0 <= p < self._nports:
            raise BadPort("not a port id of this graph: %r" % (p,))

    # -- primitives (one step each) ------------------------------------------

    def create_node(self, c: Color) -> NodeRef:
        if type(c) is not int or not 0 <= c < self._ncolors:
            raise UnknownColor(c)
        v = self._node_count
        self._node_count = v + 1
        self._adj += self._blank_row
        if self._is_kum:
            self._peer += self._zero_row
        else:
            self._indeg.append(0)
        self._color.append(c)
        self._deg.append(0)
        self.step_counter += 1
        return v

    def link(self, a: NodeRef, pa: PortLabel, b: NodeRef, pb: PortLabel) -> None:
        """Attach an undirected edge between port pa of a and port pb of b."""
        if not self._is_kum:
            raise ModelMismatch("link() is a KUM primitive; use set_pointer()")
        n = self._node_count
        k = self._nports
        if not (type(a) is int and type(b) is int and type(pa) is int
                and type(pb) is int and 0 <= a < n and 0 <= b < n
                and 0 <= pa < k and 0 <= pb < k):
            self._check_node(a)
            self._check_node(b)
            self._check_port(pa)
            self._check_port(pb)
        ia = a * k + pa
        ib = b * k + pb
        adj = self._adj
        if adj[ia] is not None or adj[ib] is not None:
            raise PortOccupied((a, pa) if adj[ia] is not None else (b, pb))
        if ia == ib:
            raise PortOccupied((a, pa))
        # New degrees, read once: a bytearray index is not specialized by
        # the interpreter the way a list index is.
        deg = self._deg
        da = deg[a] + 1
        db = da + 1 if a == b else deg[b] + 1
        bound = self.degree_bound
        if da > bound or db > bound:
            raise DegreeBoundExceeded("node %d would exceed degree bound %d"
                                      % (a if da > bound else b, bound))
        adj[ia] = b
        adj[ib] = a
        peer = self._peer
        peer[ia] = pb
        peer[ib] = pa
        deg[a] = da
        deg[b] = db
        m = da if da >= db else db
        if m > self._max_degree:
            self._max_degree = m
        self.step_counter += 1

    def set_pointer(self, a: NodeRef, d: PortLabel, b: NodeRef) -> None:
        """Aim the directed pointer (a, d) at b, overwriting any old target."""
        if self._is_kum:
            raise ModelMismatch("set_pointer() is an SMM primitive; use link()")
        n = self._node_count
        if not (type(a) is int and type(b) is int and type(d) is int
                and 0 <= a < n and 0 <= b < n and 0 <= d < self._nports):
            self._check_node(a)
            self._check_node(b)
            self._check_port(d)
        i = a * self._nports + d
        adj = self._adj
        old = adj[i]
        indeg = self._indeg
        if old is not None:
            indeg[old] -= 1
        else:
            d = self._deg[a] + 1
            self._deg[a] = d
            if d > self._max_degree:
                self._max_degree = d
        adj[i] = b
        indeg[b] += 1
        if indeg[b] > self._max_in_degree:
            self._max_in_degree = indeg[b]
        self.step_counter += 1

    def unlink(self, a: NodeRef, p: PortLabel) -> None:
        """Remove the edge or pointer at port p of a (both sides, for KUM)."""
        k = self._nports
        if not (type(a) is int and type(p) is int
                and 0 <= a < self._node_count and 0 <= p < k):
            self._check_node(a)
            self._check_port(p)
        i = a * k + p
        adj = self._adj
        b = adj[i]
        if b is None:
            raise PortFree((a, p))
        if self._is_kum:
            adj[i] = None
            adj[b * k + self._peer[i]] = None
            deg = self._deg
            if a == b:
                deg[a] -= 2
            else:
                deg[a] -= 1
                deg[b] -= 1
        else:
            adj[i] = None
            self._deg[a] -= 1
            self._indeg[b] -= 1
        self.step_counter += 1

    # The three probes below are the hot path, so they test only ranges
    # (as they always have, a bool passes as 0 or 1); a TypeError from a
    # comparison or an index (None, a float) falls through to the checks.

    def neighbor(self, a: NodeRef, p: PortLabel) -> Optional[NodeRef]:
        k = self._nports
        try:
            if 0 <= a < self._node_count and 0 <= p < k:
                v = self._adj[a * k + p]
                self.step_counter += 1
                return v
        except TypeError:
            pass
        self._check_node(a)
        self._check_port(p)

    def get_color(self, a: NodeRef) -> Color:
        try:
            if 0 <= a < self._node_count:
                c = self._color[a]
                self.step_counter += 1
                return c
        except TypeError:
            pass
        self._check_node(a)

    def set_color(self, a: NodeRef, c: Color) -> None:
        if type(c) is not int or not 0 <= c < self._ncolors:
            raise UnknownColor(c)
        try:
            if 0 <= a < self._node_count:
                self._color[a] = c
                self.step_counter += 1
                return
        except TypeError:
            pass
        self._check_node(a)

    def identity_eq(self, a: NodeRef, b: NodeRef) -> bool:
        self._check_node(a)
        self._check_node(b)
        self.step_counter += 1
        return a == b

    def idle(self, count: int = 1) -> None:
        """Spend count do-nothing steps (used to pad work to a fixed cadence)."""
        if type(count) is not int or count < 0:
            raise BadCount("idle count must be a nonnegative int: %r"
                           % (count,))
        self.step_counter += count

    # -- observers (zero steps) ----------------------------------------------

    def graph_stats(self) -> dict:
        """Snapshot of instrumentation watermarks.  Costs no steps."""
        return {
            "node_count": self._node_count,
            "max_degree": self._max_degree,
            "max_in_degree": self._max_in_degree,
        }

    def degree(self, a: NodeRef) -> int:
        self._check_node(a)
        return self._deg[a]

    def in_degree(self, a: NodeRef) -> int:
        self._check_node(a)
        return 0 if self._is_kum else self._indeg[a]

    def fork(self) -> "StorageGraph":
        """Copy the graph state so two futures can be explored.

        Harness-side; costs no steps on either copy.
        """
        g = StorageGraph.__new__(StorageGraph)
        g.model = self.model
        g._is_kum = self._is_kum
        g.degree_bound = self.degree_bound
        g.palette = self.palette
        g.labels = self.labels
        g._ncolors = self._ncolors
        g._nports = self._nports
        g._blank_row = self._blank_row
        g._zero_row = self._zero_row
        g._adj = self._adj[:]
        g._peer = self._peer[:]
        g._color = self._color[:]
        g._deg = self._deg[:]
        g._indeg = self._indeg[:]
        g._node_count = self._node_count
        g._max_degree = self._max_degree
        g._max_in_degree = self._max_in_degree
        g.step_counter = self.step_counter
        return g


def new_graph(model: ModelKind, degree_bound: Optional[int],
              palette: Sequence[str], labels: Sequence[str]) -> StorageGraph:
    """Fresh graph with one initial node of the default color and 0 steps."""
    return StorageGraph(model, degree_bound, palette, labels)
