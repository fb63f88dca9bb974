"""Outside-in span tracer for the bwalloc layer modules.

``Tracer.install`` replaces every public function of the named modules, and
every binding of it that another module imported, with a wrapper that opens a
span. Nothing inside the library changes; uninstalling restores the original
bindings.

Spans are aggregated per function name as they close, so millions of calls
to a hot leaf cost a few counters, not a record each. Per span the tracer
measures wall time (``perf_counter``) and the CPU time of the calling thread
(``thread_time``):

* self wall time is the span's duration minus the part of it that its child
  spans cover. Children on the same thread never overlap, so their durations
  add. A span opened on another thread with no open parent there (a worker
  of ``experiments._pool_map``) is attributed to the innermost span open on
  the thread that created the tracer, and its interval is merged with the
  other workers' before it is subtracted, so that concurrent workers are
  not counted twice;
* self busy time is the span's thread CPU time minus that of its children on
  the same thread (a worker's CPU is its own thread's, not the parent's);
* wait time is self wall minus self busy: time the thread held a span open
  without running, i.e. waiting for the interpreter lock or the scheduler.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


class NameStats:
    """Totals over every closed span of one function."""

    __slots__ = ("calls", "wall_s", "self_s", "busy_s")

    def __init__(self):
        self.calls = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.busy_s = 0.0

    def add(self, other: "NameStats") -> None:
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.self_s += other.self_s
        self.busy_s += other.busy_s


class Frame:
    """An open span. ``cross`` collects the intervals of spans attributed
    to it from other threads; ``tags`` lets hooks of children mark it."""

    __slots__ = (
        "name", "start", "cpu_start", "end", "parent", "same_thread",
        "child_wall", "child_cpu", "cross", "tags",
    )

    def __init__(self, name, start, cpu_start, parent, same_thread):
        self.name = name
        self.start = start
        self.cpu_start = cpu_start
        self.end = start
        self.parent = parent
        self.same_thread = same_thread
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.cross = None
        self.tags = None

    def tag(self, label: str) -> None:
        if self.tags is None:
            self.tags = set()
        self.tags.add(label)


class _ThreadState:
    """Open spans and running totals of one thread. Each thread updates only
    its own state, so the hot path takes no lock; ``Tracer`` merges the
    states when asked for totals."""

    __slots__ = ("stack", "stats", "counters", "spans", "pool_parent", "pool_worker")

    def __init__(self):
        self.stack: list[Frame] = []
        self.stats: dict[str, NameStats] = defaultdict(NameStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans = 0
        self.pool_parent = 0.0
        self.pool_worker = 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span recorder; see the module docstring for the accounting rules.

    ``hooks`` maps a qualified name (``"metrics.success_prob_k"``) to a
    callable ``hook(counters, frame, args, kwargs, result)`` run when a span
    of that name closes, with the closing thread's counters; ``result`` is
    None when the call raised. Hooks may tag the parent frame.
    """

    def __init__(self, hooks=None, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._home = self._state()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, name: str):
        state = self._state()
        stack = state.stack
        if stack:
            parent, same_thread = stack[-1], True
        else:
            # a root span off the home thread belongs to the home thread's
            # innermost open span (the sweep that started the worker)
            home = self._home.stack
            parent = home[-1] if (home and state is not self._home) else None
            same_thread = False
        frame = Frame(name, self.clock(), self.cpu_clock(), parent, same_thread)
        stack.append(frame)
        return state, frame

    def _exit(self, state: _ThreadState, frame: Frame, hook, call) -> None:
        end = frame.end = self.clock()
        cpu = self.cpu_clock() - frame.cpu_start
        state.stack.pop()
        wall = end - frame.start
        covered = frame.child_wall
        if frame.cross:
            # workers have finished: the sweep span closes after them
            covered += _union_length(frame.cross, frame.start, end)
            state.pool_parent += wall
            state.pool_worker += sum(b - a for a, b in frame.cross)
        stats = state.stats[frame.name]
        stats.calls += 1
        stats.wall_s += wall
        stats.self_s += max(0.0, wall - covered)
        stats.busy_s += max(0.0, cpu - frame.child_cpu)
        state.spans += 1
        if hook is not None:
            hook(state.counters, frame, *call)
        parent = frame.parent
        if parent is not None:
            if frame.same_thread:
                parent.child_wall += wall
                parent.child_cpu += cpu
            else:
                with self._lock:
                    if parent.cross is None:
                        parent.cross = []
                    parent.cross.append((frame.start, end))

    def wrap(self, fn, name: str):
        hook = self.hooks.get(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(state, frame, hook, (args, kwargs, None))
                raise
            exit_(state, frame, hook, (args, kwargs, result))
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, modules, rebind_in) -> int:
        """Wrap the public functions defined in ``modules`` (a mapping of
        layer name to module) and rebind them in every module of
        ``rebind_in``. Returns the number of functions wrapped."""
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for module in rebind_in:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- reporting --------------------------------------------------------

    def _merged(self):
        with self._lock:
            return list(self._states)

    @property
    def stats(self) -> dict[str, NameStats]:
        out: dict[str, NameStats] = defaultdict(NameStats)
        for state in self._merged():
            for name, st in state.stats.items():
                out[name].add(st)
        return dict(out)

    @property
    def counters(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for state in self._merged():
            for key, value in state.counters.items():
                out[key] += value
        return out

    @property
    def spans(self) -> int:
        return sum(state.spans for state in self._merged())

    def layer_totals(self) -> dict[str, NameStats]:
        """Per-layer sums of the per-name totals (layer = text before the
        first dot of the span name)."""
        out: dict[str, NameStats] = defaultdict(NameStats)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]].add(st)
        return dict(out)

    def pool_concurrency(self) -> float:
        """Summed wall time of spans attributed across threads over the wall
        time of the spans they were attributed to; 0 when there were none."""
        states = self._merged()
        parent = sum(s.pool_parent for s in states)
        worker = sum(s.pool_worker for s in states)
        return worker / parent if parent > 0.0 else 0.0
