"""
Storage graphs in both machine models
=====================================

The engine provides one mutable pointer graph with two rule sets.  The
undirected flavor has symmetric links on named ports and a hard degree
bound; the directed flavor has one-way pointers on named directions and
no limit on how many pointers may share a target.
"""

from kumsim import DegreeBoundExceeded, ModelKind, PortOccupied, StorageGraph

# --- undirected: ports, symmetric links, degree bound -------------------

# model, degree bound, colors, port names; node 0 already exists
g = StorageGraph(ModelKind.KUM, 2, ("zero", "one"), ("p", "l", "r", "v"))
root = g.initial_node
a = g.create_node(1)
g.link(root, 1, a, 0)        # root.l <-> a.p, one call wires both ends
print("root.l ->", g.neighbor(root, 1))
print("a.p    ->", g.neighbor(a, 0), "(the back edge is automatic)")
print("colors:", g.get_color(root), g.get_color(a))

# every primitive bumps one counter, so cost stays visible
print("ops so far:", g.step_counter)
print("stats:", g.graph_stats())

# ports are exclusive and the degree bound is checked at link time
try:
    g.link(root, 1, a, 2)
except PortOccupied as e:
    print("relinking an occupied port:", type(e).__name__)

b = g.create_node(0)
c = g.create_node(0)
g.link(root, 2, b, 0)
try:
    g.link(root, 3, c, 0)    # root would reach degree 3 > bound 2
except DegreeBoundExceeded as e:
    print("degree bound enforced:", e)

# --- directed: one-way pointers, unbounded in-degree ---------------------

h = StorageGraph(ModelKind.SMM, None, ("zero", "one"), ("l", "r", "v"))
hub = h.initial_node
spokes = [h.create_node(1) for _ in range(10)]
for s in spokes:
    h.set_pointer(s, 2, hub)     # all ten v-pointers land on hub
print("hub in-degree:", h.in_degree(hub))
print("hub out-degree 0:", all(h.neighbor(hub, d) is None for d in range(3)))

# pointers retarget silently, there is nothing to unlink first
h.set_pointer(spokes[0], 2, spokes[1])
print("after one retarget, hub in-degree:", h.in_degree(hub))
