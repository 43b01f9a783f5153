"""Streaming driver: feeds a Program one symbol at a time and meters it.

The driver owns the input cursor, so a Program can never peek ahead; it
sees exactly one symbol per on_symbol() call and learns about end-of-input
only through on_end().  Between consecutive reads the driver counts engine
steps, records them as trace gaps, and optionally pads each symbol's work
up to a fixed per-symbol step budget (the cadence) with idle steps.  With
padding on, a correct recognizer shows the same gap on every symbol of
every input, which is what makes the real-time constant a single pinned
number instead of a distribution.

Gap semantics follow the usual real-time accounting: the reference tape
delivers one symbol per time unit, so the step gap between consecutive
reads is itself the real-time constant c for that interval.

A trace stores only those gaps, one int per symbol (about 8 bytes, since
the gaps are small cached ints).
"""

from __future__ import annotations

import enum
import keyword
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from kumsim.blocklang import ALPHABET
from kumsim.engine import EngineError, StorageGraph

MAX_REGISTERS = 32


class RejectReason(enum.Enum):
    BAD_ALPHABET = "bad-alphabet"
    FORMAT = "format"
    PACING = "pacing"
    TRUNCATED = "truncated"
    BAD_SUFFIX = "bad-suffix"
    MACHINE_FAULT = "machine-fault"


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[RejectReason] = None

    @staticmethod
    def accept() -> "Verdict":
        return _ACCEPT

    @staticmethod
    def reject(reason: RejectReason) -> "Verdict":
        return Verdict(False, reason)

    def __str__(self) -> str:
        return "accept" if self.accepted else "reject:%s" % self.reason.value


_ACCEPT = Verdict(True, None)


class Registers:
    """Fixed-name register file holding a value per name, None at first.

    Registers(names) builds a file for that name set, every register
    None.  Its class has one __slots__ entry per name, so handlers read
    and write registers as attributes (R.icur) and assigning an unnamed
    register fails inside CPython with AttributeError.  The harness may
    subscript instead: R[name] reads, R[name] = v writes, both raising
    KeyError on an unknown name, and keys() lists the names, so dict(R)
    works.  copy() returns a second file of the same class holding the
    same values; register_class compiles it with the class, which a
    Program builds once.  Values
    are the machine's distinguished node handles (or None), except that
    a recognizer's phase, z_color, flag and carry registers hold finite
    control, not a node: a phase table, one of a few chain colors, a
    bool and a bit (see gadgets).
    Reading and writing registers is finite control, not graph work, so
    it costs no steps.
    """

    __slots__ = ()
    _names: tuple = ()

    def __new__(cls, names: Optional[Iterable[str]] = None):
        if cls is Registers:
            cls = register_class(names)
        R = object.__new__(cls)
        for name in cls._names:
            setattr(R, name, None)
        return R

    def keys(self) -> tuple:
        return self._names

    def __getitem__(self, name):
        if name not in self._names:
            raise KeyError("unknown register %r" % (name,))
        return getattr(self, name)

    def __setitem__(self, name, value):
        if name not in self._names:
            raise KeyError("unknown register %r" % (name,))
        setattr(self, name, value)


def register_class(names: Iterable[str]) -> type:
    """The Registers subclass with one slot per name, in order.

    At most MAX_REGISTERS names, none twice.  A name must be an
    identifier that is not a Python keyword, does not start with an
    underscore and does not shadow an attribute of a register file (keys,
    copy).
    """
    names = tuple(names)
    if len(names) > MAX_REGISTERS:
        raise ValueError("register file capped at %d names" % MAX_REGISTERS)
    for name in names:
        if (not isinstance(name, str) or not name.isidentifier()
                or keyword.iskeyword(name) or name.startswith("_")
                or name == "copy" or hasattr(Registers, name)):
            raise ValueError("bad register name %r" % (name,))
    if len(set(names)) != len(names):
        raise ValueError("duplicate register names")
    cls = type("Registers", (Registers,),
               {"__slots__": names, "_names": names})
    # copy() is compiled to straight-line attribute code (the exec
    # technique of namedtuple and dataclasses): Runner.fork copies the
    # file at every branch of a sweep, and a getattr/setattr loop by name
    # costs about five times as much.
    src = "def copy(self):\n    R = _new(_cls)\n%s    return R\n" % "".join(
        "    R.%s = self.%s\n" % (name, name) for name in names)
    env = {"_new": object.__new__, "_cls": cls}
    exec(src, env)
    cls.copy = env["copy"]
    return cls


class Trace:
    """The step gaps of a run, one per delivered symbol plus the halt.

    Gap i is the number of steps spent between read i - 1 (or the end of
    on_start, for i = 0) and read i.  Once the run halts, a last gap holds
    the steps spent after the last read (all of on_start's steps, if it
    faulted) and halted becomes true; total_steps is the step counter at
    the halt.  gaps() returns a copy of the gap list.

    A Trace is also the sequence of the run's (kind, position, gap)
    events, built on demand: read i is ("read", i, gap i) and the halt is
    ("halt", number of reads, last gap), so an event's position is its
    index.  It has len, truth, int indexing and iteration, and events
    returns the trace itself, the name the benchmark harness reads.  New
    code reads gaps() and halted.
    """

    __slots__ = ("_gaps", "halted", "total_steps")

    def __init__(self):
        self._gaps: list[int] = []
        self.halted = False
        self.total_steps = 0

    @property
    def events(self) -> "Trace":
        return self

    def gaps(self) -> list[int]:
        return self._gaps[:]

    def __len__(self) -> int:
        return len(self._gaps)

    def __getitem__(self, i: int):
        gaps = self._gaps
        n = len(gaps)
        j = i + n if i < 0 else i
        if not 0 <= j < n:
            raise IndexError("trace event index out of range")
        return ("halt" if self.halted and j == n - 1 else "read", j, gaps[j])

    def __iter__(self):
        gaps = self._gaps
        reads = len(gaps) - self.halted
        for i in range(reads):
            yield ("read", i, gaps[i])
        if self.halted:
            yield ("halt", reads, gaps[reads])


@dataclass(frozen=True)
class Program:
    """A machine program: a register file plus three handlers.

    Handlers act only through engine primitives on the given graph and
    through the register file, whose class (register_class) is built once
    here from register_names.  on_symbol may return a rejecting Verdict to
    stop the run early; accepting early is a program bug (membership can
    depend on the unread suffix) and is reported as MACHINE_FAULT.  on_end
    must decide the final verdict.

    cadence, when set, is the fixed per-symbol step budget: after each
    on_symbol call the driver idles the graph up to exactly that many
    steps.  A handler that overruns the budget is not real-time at the
    declared rate; the driver reports that as MACHINE_FAULT too.
    """

    register_names: tuple
    graph_factory: Callable[[], StorageGraph]
    on_start: Callable
    on_symbol: Callable
    on_end: Callable
    cadence: Optional[int] = None
    register_class: type = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cadence is not None and (type(self.cadence) is not int
                                         or self.cadence < 1):
            raise ValueError("cadence must be a positive int")
        object.__setattr__(self, "register_class",
                           register_class(self.register_names))


class Runner:
    """Incremental run state: feed symbols one by one, then finish.

    A Runner is also the run's record: its verdict (None until the
    halt), trace and stats, and the graph and registers as introspection
    handles for the harness, not part of machine semantics.  run() is the
    one-shot wrapper.  fork() snapshots the whole machine mid-stream,
    which lets a harness explore many continuations of a common prefix
    without replaying it.
    """

    __slots__ = ("program", "graph", "registers", "trace", "_mark",
                 "verdict")

    def __init__(self, program: Program):
        self.program = program
        self.graph = program.graph_factory()
        self.registers = program.register_class()
        self.trace = Trace()
        self.verdict: Optional[Verdict] = None
        self._mark = 0
        try:
            program.on_start(self.graph, self.registers)
        except EngineError:
            self._halt(Verdict.reject(RejectReason.MACHINE_FAULT))
        self._mark = self.graph.step_counter

    @property
    def position(self) -> int:
        """The number of symbols delivered so far."""
        t = self.trace
        return len(t._gaps) - t.halted

    @property
    def stats(self) -> dict:
        """graph.graph_stats(); reading them costs no steps."""
        return self.graph.graph_stats()

    def feed(self, symbol: str) -> Optional[Verdict]:
        """Deliver one symbol; returns the verdict if the run just ended."""
        if self.verdict is not None:
            raise RuntimeError("run already halted")
        g = self.graph
        now = g.step_counter
        self.trace._gaps.append(now - self._mark)
        self._mark = now
        if symbol not in ALPHABET:
            return self._halt(Verdict.reject(RejectReason.BAD_ALPHABET))
        try:
            early = self.program.on_symbol(g, self.registers, symbol)
        except EngineError:
            return self._halt(Verdict.reject(RejectReason.MACHINE_FAULT))
        # an overrun is a fault even on a symbol whose handler rejects
        cadence = self.program.cadence
        if cadence is not None:
            spent = g.step_counter - self._mark
            if spent > cadence:
                return self._halt(Verdict.reject(RejectReason.MACHINE_FAULT))
        if early is not None:
            if early.accepted:
                early = Verdict.reject(RejectReason.MACHINE_FAULT)
            return self._halt(early)
        if cadence is not None:
            g.idle(cadence - spent)
        return None

    def finish(self) -> "Runner":
        """Signal end-of-input (if the run has not halted) and return self."""
        if self.verdict is None:
            try:
                verdict = self.program.on_end(self.graph, self.registers)
            except EngineError:
                verdict = Verdict.reject(RejectReason.MACHINE_FAULT)
            if verdict is None:
                verdict = Verdict.reject(RejectReason.MACHINE_FAULT)
            self._halt(verdict)
        return self

    def _halt(self, verdict: Verdict) -> Verdict:
        now = self.graph.step_counter
        t = self.trace
        t._gaps.append(now - self._mark)
        t.halted = True
        t.total_steps = self._mark = now
        self.verdict = verdict
        return verdict

    def fork(self) -> "Runner":
        """Independent copy of the current machine and trace state."""
        r = Runner.__new__(Runner)
        r.program = self.program
        r.graph = self.graph.fork()
        r.registers = self.registers.copy()
        r.trace = t = Trace.__new__(Trace)
        t._gaps = self.trace._gaps[:]
        t.halted = self.trace.halted
        t.total_steps = self.trace.total_steps
        r._mark = self._mark
        r.verdict = self.verdict
        return r


def run(program: Program, text: str) -> Runner:
    """Run a Program over text, strictly left to right, one symbol each,
    and return the finished Runner.

    Symbols outside {0,1,@,#} reject at the offending position without
    reaching the program.  Early rejection stops delivery; engine rule
    violations inside handlers surface as Reject(MACHINE_FAULT) rather
    than masquerading as input rejection.
    """
    runner = Runner(program)
    if runner.verdict is None:
        for symbol in text:
            if runner.feed(symbol) is not None:
                break
    return runner.finish()


def max_gap(trace: Trace) -> int:
    """Largest step gap in the trace (the observed real-time constant)."""
    return max(trace._gaps)


def mean_gap(trace: Trace) -> float:
    """Steps per gap over a halted run (total_steps counts on_start too)."""
    if not trace.halted:
        raise ValueError("trace has not halted")
    return trace.total_steps / len(trace._gaps)
