"""Closed-loop passes over a workload, and span-tree accounting.

An *operation* is one SQL statement, timed from ``Server.submit`` to the
completion of the future it returns (the moment ``future.result()`` can
return).  A pass repeats whole script cycles, closed loop.

The end-to-end timings are reported *at par*: every operation is
divided by a :class:`Yardstick` sample taken right after it, so that a
host that runs everything a third slower for a minute (this one does)
does not read as a slower program; see :meth:`PassResult.at_par`.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from workloads import OP_TIMEOUT_S, Op, Workload, WorkloadAbort


@dataclass
class OpRecord:
    """What one operation returned, kept for the per-layer read-out."""

    start_s: float
    latency_s: float
    tag: str
    stats: object
    trace: object


#: What one yardstick sample takes on the reference host when it is
#: quiet.  A timing *at par* is the measured time x ``PAR_S`` / the
#: sample taken beside it: milliseconds on a host that runs the
#: yardstick in exactly this time.
PAR_S = 0.006

class Yardstick:
    """A fixed piece of work with the program's own mix: interpreter
    bytecode, many small numpy calls, a gather that misses the caches, a
    weighted ``bincount`` scatter into a 1024² canvas.  Calling it runs
    it once and returns the seconds it took.

    It is frozen: the figures at par of two commits compare only while
    this stays as it is (and numpy and the interpreter with it).  Its
    inputs are drawn from a fixed seed, not from ``--seed``: they are no
    input of the program.

    A sample also evicts the program's working set from the caches, and
    the statement after it runs a sixth slower for it.  So a single
    client takes one after every ``workload.sample_every``-th statement
    of a cycle, a fixed pattern (about one part in eight of a run).
    Sampling by the clock, once 40 ms had gone by, fed back: on
    ``warm_accurate``, whose statements take about 40 ms, a host a
    little slower meant a sample after every statement instead of every
    other, and ten runs' medians moved by 16% where the yardstick had
    moved by 2%.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(4_000_000)
        self._index = rng.integers(0, len(self._table), 120_000)
        self._pixels = rng.integers(0, 1 << 20, 60_000)
        self._weights = rng.random(60_000)
        self._small = rng.random(64)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        small = self._small
        for _ in range(800):
            small = small * 1.0000001 + 0.5
        self._table[self._index].sum()
        np.bincount(self._pixels, weights=self._weights, minlength=1 << 20)
        return time.perf_counter() - start


@dataclass
class PassResult:
    latencies_s: list[float] = field(default_factory=list)
    records: list[OpRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall of the pass (see :func:`run_pass` for what it covers).
    wall_s: float = 0.0
    #: Whole script cycles finished (refreshes, summed over swarm clients).
    cycles: int = 0
    failures: list[str] = field(default_factory=list)
    yardstick: Yardstick = field(default_factory=Yardstick)
    #: Every yardstick sample of the pass, seconds.
    yardstick_s: list[float] = field(default_factory=list)
    #: Per operation: its latency in yardsticks (latency ÷ the sample
    #: taken right after it).
    op_costs: list[float] = field(default_factory=list)
    #: (client, cycle of the script period) -> the wall of each
    #: repetition of that cycle, in yardsticks, and what one repetition
    #: completes: (statements, point-table rows).
    cycle_costs: dict = field(default_factory=dict)
    cycle_work: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies_s, q)) * 1e3

    def at_par(self) -> tuple[float, float, float]:
        """``(p50 latency in ms, statements/s, points/s)`` at par.

        This VM has two vCPUs of a shared machine.  User time for
        identical work — no steal, no page faults, no system time —
        drifts by a tenth to a third within seconds and stays off for a
        minute or more, and in a bad quarter of an hour runs come out
        2.5x slower than their neighbours; no estimator over one pass
        averages that out, and ten whole-pass medians of one commit have
        spread by 55%.  The yardstick slows down with the program, so
        the ratio of the two holds to 4-14% through the same stretches.

        The latency is the median over every operation of the pass of
        its cost in yardsticks, times :data:`PAR_S`.  The throughput is
        what a client completes per second when every cycle of its
        script period costs its median repetition (a script repeats
        itself every ``workload.period`` cycles, so repetitions of a
        cycle are the same work), summed over clients.  Medians over the
        whole pass: a stall that hits half the statements shows.
        """
        latency = statistics.median(self.op_costs) * PAR_S
        qps = pps = 0.0
        for client in {slot[0] for slot in self.cycle_costs}:
            mine = [slot for slot in self.cycle_costs if slot[0] == client]
            period_s = PAR_S * sum(
                statistics.median(self.cycle_costs[slot]) for slot in mine
            )
            qps += sum(self.cycle_work[slot][0] for slot in mine) / period_s
            pps += sum(self.cycle_work[slot][1] for slot in mine) / period_s
        return latency * 1e3, qps, pps

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


class _InFlight:
    """One submitted operation; stamps the moment its future completes.

    The stamp is taken in a done-callback, on the thread that finished
    the statement, so a client that collects its futures in submission
    order still records each one's own completion time.
    """

    def __init__(self, server, op: Op) -> None:
        self.op = op
        self.done_s = 0.0
        self.start_s = time.perf_counter()
        self.future = server.submit(op.sql)
        self.future.add_done_callback(self._stamp)

    def _stamp(self, _future) -> None:
        self.done_s = time.perf_counter()


def _submit(server, op: Op, out: PassResult, lock) -> _InFlight | None:
    with lock:
        out.attempted += 1
    try:
        return _InFlight(server, op)
    except Exception as exc:  # noqa: BLE001 - rejection is a failed op
        with lock:
            out.fail(f"{type(exc).__name__}: {exc}")
        return None


def _collect(flight: _InFlight | None, out: PassResult, lock,
             keep: bool) -> float | None:
    """Wait for one operation, check its answer and tier, record it;
    returns its latency, or None when it failed."""
    if flight is None:
        return None
    op = flight.op
    try:
        result = flight.future.result(OP_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed op
        with lock:
            out.fail(f"{type(exc).__name__}: {exc}")
        return None
    # ``result()`` can return before the done-callbacks have run; then
    # the client was woken by this very completion and "now" is its time.
    latency = (flight.done_s or time.perf_counter()) - flight.start_s
    extra = result.stats.extra
    wrong_tier = {k: extra.get(k) for k, v in op.tier.items()
                  if extra.get(k) != v}
    if wrong_tier:
        # Never report a run that measured another regime than the one
        # the workload is named for.
        raise WorkloadAbort(
            f"{op.sql!r} answered from {wrong_tier}, wanted {op.tier}"
        )
    with lock:
        if not np.array_equal(result.values, op.expected, equal_nan=True):
            out.fail(f"answer differs from its checked reference: {op.sql}")
            return None
        out.latencies_s.append(latency)
        if keep:
            out.records.append(OpRecord(flight.start_s, latency, op.tag,
                                        result.stats, result.trace))
    return latency


#: Single-client passes need no lock around the pass result.
_NO_LOCK = nullcontext()


def _sample(out: PassResult, waiting: list[float]) -> float:
    """Take a yardstick sample; the operations whose latencies are
    ``waiting`` for one are the ones it was taken right after."""
    sample = out.yardstick()
    out.yardstick_s.append(sample)
    out.op_costs += [latency / sample for latency in waiting]
    waiting.clear()
    return sample


def _cycle_done(out: PassResult, slot: tuple, cost: float,
                ops: list[Op]) -> None:
    out.cycles += 1
    out.cycle_costs.setdefault(slot, []).append(cost)
    out.cycle_work[slot] = (len(ops), sum(op.rows for op in ops))


def _single_client(workload: Workload, more, first_cycle: int,
                   out: PassResult, keep: bool) -> None:
    index = first_cycle
    waiting: list[float] = []
    while True:
        ops = workload.cycle(index)
        wall = cost = unpaired = 0.0
        for position, op in enumerate(ops):
            start = time.perf_counter()
            if op.before is not None:
                op.before()
            latency = _collect(_submit(workload.server, op, out, _NO_LOCK),
                               out, _NO_LOCK, keep)
            unpaired += time.perf_counter() - start
            if latency is not None:
                waiting.append(latency)
            if ((position + 1) % workload.sample_every == 0
                    or position == len(ops) - 1):
                wall += unpaired
                cost += unpaired / _sample(out, waiting)
                unpaired = 0.0
        out.wall_s += wall
        _cycle_done(out, (0, index % workload.period), cost, ops)
        index += 1
        if not more(index - first_cycle, out.wall_s):
            return


def _swarm(workload: Workload, more, first_cycle: int, out: PassResult,
           keep: bool) -> None:
    """Independent closed-loop clients, one long-lived thread each: a
    client submits a whole refresh, collects all of it, then starts its
    next refresh whatever the other clients are doing.

    The yardstick is read before the clients start and after they have
    finished, and every refresh is set against the median of those
    samples: one taken while the server works for another client would
    measure that client."""
    lock = threading.Lock()
    errors: list[BaseException] = []
    refreshes: list[tuple] = []
    beside = [out.yardstick() for _ in range(5)]
    start = time.perf_counter()

    def client(number: int) -> None:
        try:
            index = first_cycle
            while True:
                refresh = workload.client_script(number, index)
                began = time.perf_counter()
                flights = [_submit(workload.server, op, out, lock)
                           for op in refresh]
                latencies = [_collect(flight, out, lock, keep)
                             for flight in flights]
                refreshes.append(((number, index % workload.period),
                                  time.perf_counter() - began, latencies,
                                  refresh))
                index += 1
                if not more(index - first_cycle,
                            time.perf_counter() - start):
                    return
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(number,))
               for number in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.wall_s += time.perf_counter() - start
    if errors:
        raise errors[0]
    beside += [out.yardstick() for _ in range(5)]
    sample = statistics.median(beside)
    out.yardstick_s += beside
    for slot, wall, latencies, refresh in refreshes:
        out.op_costs += [s / sample for s in latencies if s is not None]
        _cycle_done(out, slot, wall / sample, refresh)


def run_pass(workload: Workload, *, seconds: float | None = None,
             cycles: int | None = None, first_cycle: int = 0,
             keep: bool = False, out: PassResult | None = None) -> PassResult:
    """Repeat whole cycles: ``cycles`` of them (per client), or whole
    script periods until ``seconds`` of wall time have been measured (at
    least one period).  Passing ``out`` accumulates into an earlier
    pass's result.

    With one client the wall is the time spent inside the system: each
    statement's ``before`` step (re-registering an edited table) plus
    submit-to-completion; generating the next cycle's inputs and their
    oracle references, and the yardstick, are outside it.  With several clients it runs from
    the first client's start to the last client's finish.
    """
    out = out if out is not None else PassResult()

    def more(done: int, wall_s: float) -> bool:
        if cycles is not None:
            return done < cycles
        return wall_s < seconds or done % workload.period != 0

    drive = _swarm if workload.clients > 1 else _single_client
    drive(workload, more, first_cycle, out, keep)
    return out


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def self_times(root) -> dict[str, float]:
    """Self time per span name over one tree.

    A span's self time is its duration minus the part of its interval
    that its children cover (children of a concurrent ``tiles`` span
    overlap, so coverage is the union of their intervals, not the sum).
    """
    totals: dict[str, float] = {}

    def visit(span) -> None:
        covered = 0.0
        reach = span.start_s
        end = span.start_s + span.duration_s
        for child in sorted(span.children, key=lambda s: s.start_s):
            lo = max(child.start_s, reach)
            hi = min(child.start_s + child.duration_s, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
            visit(child)
        totals[span.name] = (totals.get(span.name, 0.0)
                             + max(0.0, span.duration_s - covered))

    visit(root)
    return totals


def span_count(root) -> int:
    return sum(1 for _ in root.walk())


class Spans:
    """The ledger's own spans: in memory, written when the run ends."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs):
        return _Scope(self, name, attrs)

    def add(self, name: str, start_s: float, duration_s: float,
            **attrs) -> int:
        """Record a span measured elsewhere; returns its id."""
        self.rows.append({"id": len(self.rows), "parent": None,
                          "name": name, "start_s": start_s,
                          "duration_s": duration_s, "attrs": attrs})
        return len(self.rows) - 1

    def adopt(self, root, parent: int) -> None:
        """Hang a program span tree (``result.trace``) under a ledger span."""

        def visit(span, parent_id: int) -> None:
            row = {"id": len(self.rows), "parent": parent_id,
                   "name": span.name, "start_s": span.start_s,
                   "duration_s": span.duration_s,
                   "attrs": {k: _plain(v) for k, v in span.attrs.items()}}
            self.rows.append(row)
            for child in span.children:
                visit(child, row["id"])

        visit(root, parent)

    def write_jsonl(self, path: str) -> None:
        import json

        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _Scope:
    def __init__(self, spans: Spans, name: str, attrs: dict) -> None:
        self.spans, self.name, self.attrs = spans, name, attrs

    def __enter__(self) -> "_Scope":
        parent = self.spans._stack[-1] if self.spans._stack else None
        self.row = {"id": len(self.spans.rows), "parent": parent,
                    "name": self.name, "start_s": time.perf_counter(),
                    "duration_s": 0.0, "attrs": self.attrs}
        self.spans.rows.append(self.row)
        self.spans._stack.append(self.row["id"])
        return self

    def __exit__(self, *exc) -> bool:
        self.row["duration_s"] = time.perf_counter() - self.row["start_s"]
        self.spans._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.row["duration_s"]
