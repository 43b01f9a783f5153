"""Post-run graph inspection used by recognizer and acceptance tests.

These walk the finished storage graph through the public engine API.
Probing costs steps on the (already halted) run's graph, which is fine:
the run's stats and trace were captured at halt time.
"""


def levels(g, root, left_port, right_port):
    """Breadth-first trie layout: list of node lists, index = depth."""
    out = [[root]]
    frontier = [root]
    while True:
        nxt = []
        for node in frontier:
            for port in (left_port, right_port):
                child = g.neighbor(node, port)
                if child is not None:
                    nxt.append(child)
        if not nxt:
            return out
        out.append(nxt)
        frontier = nxt


def chain_bits(g, head, toward_tail_port):
    """Chain colors head to tail as a bit string (head = most significant)."""
    bits = []
    node = head
    while node is not None:
        bits.append(str(g.get_color(node)))
        node = g.neighbor(node, toward_tail_port)
    return "".join(bits)


def count_color(g, color):
    """How many nodes in the whole graph carry the given color."""
    n = g.graph_stats()["node_count"]
    return sum(1 for node in range(n) if g.get_color(node) == color)


# repr() of each event kind from when kinds were EventKind members; the
# pinned fingerprints in tests/data/acceptance_fingerprints.json hash it.
_KIND_REPRS = {"read": "<EventKind.READ_SYMBOL: 'read'>",
               "halt": "<EventKind.HALT: 'halt'>"}


def event_reprs(trace):
    """repr() of each (kind, position, gap) event of trace, as pinned."""
    gaps = trace.gaps()
    last = len(gaps) - 1 if trace.halted else -1
    return ["(%s, %d, %d)" % (_KIND_REPRS["halt" if i == last else "read"],
                              i, gap)
            for i, gap in enumerate(gaps)]


def broken_kum_builder():
    """A deliberately wrong machine: flips every accepting verdict.

    Used to prove the differential fuzz harness actually catches a bad
    build rather than waving everything through.
    """
    import dataclasses

    from kumsim.kum_recognizer import build_kum_recognizer
    from kumsim.runtime import RejectReason, Verdict

    prog = build_kum_recognizer()
    real_on_end = prog.on_end

    def flipped_on_end(g, R):
        v = real_on_end(g, R)
        if v.accepted:
            return Verdict.reject(RejectReason.FORMAT)
        return v

    return dataclasses.replace(prog, on_end=flipped_on_end)
