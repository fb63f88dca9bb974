import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracer import Tracer, _union_length


class FakeClock:
    """Wall and CPU clocks that advance only when told to."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def tick(self, wall, cpu):
        self.wall += wall
        self.cpu += cpu


def _module(name, source, **env):
    mod = types.ModuleType(name)
    mod.__dict__.update(env)
    exec(source, mod.__dict__)
    return mod


NESTED = """
def leaf():
    clock.tick(1.0, 1.0)

def inner():
    clock.tick(2.0, 0.0)
    leaf()
    leaf()

def outer():
    clock.tick(3.0, 1.0)
    return inner()

def _private():
    return outer()
"""


def test_union_length_merges_overlaps_and_clips():
    assert _union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert _union_length([(0, 2), (1, 3)], 1.5, 2.5) == pytest.approx(1.0)
    assert _union_length([], 0, 1) == 0.0


def test_nested_self_busy_and_wait():
    clock = FakeClock()
    layer = _module("fake_layer", NESTED, clock=clock)
    consumer = types.ModuleType("fake_consumer")
    consumer.inner = layer.inner
    originals = (layer.outer, layer.inner, layer.leaf)

    seen = []

    def parent_of(counters, frame, *call):
        seen.append((frame.name, frame.parent.name))

    tracer = Tracer(
        hooks={"fake.leaf": parent_of, "fake.inner": parent_of},
        clock=lambda: clock.wall,
        cpu_clock=lambda: clock.cpu,
    )
    assert tracer.install({"fake": layer}, [layer, consumer]) == 3
    assert consumer.inner is not originals[1]
    layer._private()
    tracer.uninstall()
    assert (layer.outer, layer.inner, layer.leaf) == originals
    assert consumer.inner is originals[1]

    st = tracer.stats
    assert st["fake.leaf"].calls == 2
    assert (st["fake.leaf"].wall_s, st["fake.leaf"].self_s, st["fake.leaf"].busy_s) == (2, 2, 2)
    assert (st["fake.inner"].wall_s, st["fake.inner"].self_s, st["fake.inner"].busy_s) == (4, 2, 0)
    assert (st["fake.outer"].wall_s, st["fake.outer"].self_s, st["fake.outer"].busy_s) == (7, 3, 1)
    assert "fake._private" not in st
    total = tracer.layer_totals()["fake"]
    assert (total.calls, total.self_s, total.busy_s) == (4, 7, 3)
    assert seen == [
        ("fake.leaf", "fake.inner"),
        ("fake.leaf", "fake.inner"),
        ("fake.inner", "fake.outer"),
    ]
    assert tracer.spans == 4


def test_failed_calls_close_their_span():
    clock = FakeClock()
    source = "def boom():\n    clock.tick(1.0, 0.5)\n    raise ValueError\n"
    layer = _module("fake_err", source, clock=clock)
    tracer = Tracer(clock=lambda: clock.wall, cpu_clock=lambda: clock.cpu)
    tracer.install({"err": layer}, [layer])
    with pytest.raises(ValueError):
        layer.boom()
    st = tracer.stats["err.boom"]
    assert (st.calls, st.self_s, st.busy_s) == (1, 1.0, 0.5)


THREADED = """
def nap(seconds):
    time.sleep(seconds)

def spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass

def sweep(items, own_sleep):
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(nap, items))
    time.sleep(own_sleep)
"""


def test_threaded_workers_attributed_to_sweep():
    layer = _module("fake_threads", THREADED, time=time, ThreadPoolExecutor=ThreadPoolExecutor)
    parents = []
    tracer = Tracer(
        hooks={"t.nap": lambda counters, frame, *call: parents.append(frame.parent.name)}
    )
    tracer.install({"t": layer}, [layer])
    t0 = time.perf_counter()
    layer.sweep([0.1] * 4, 0.1)
    elapsed = time.perf_counter() - t0
    layer.spin(0.05)
    tracer.uninstall()

    st = tracer.stats
    assert st["t.nap"].calls == 4
    assert parents == ["t.sweep"] * 4
    # four 0.1 s naps on two workers cover about 0.2 s of the sweep; only the
    # sweep's own 0.1 s sleep is its self time. Subtracting the summed worker
    # time (0.4 s) instead of its union would leave nothing.
    assert st["t.sweep"].wall_s == pytest.approx(elapsed, abs=0.02)
    assert 0.08 <= st["t.sweep"].self_s <= 0.15
    # sleeping spans wait; spinning spans are busy
    assert st["t.nap"].busy_s < 0.02
    assert st["t.nap"].self_s - st["t.nap"].busy_s == pytest.approx(0.4, abs=0.06)
    assert st["t.spin"].busy_s == pytest.approx(0.05, abs=0.01)
    assert st["t.spin"].self_s - st["t.spin"].busy_s < 0.02
    # 0.4 s of worker spans over the 0.3 s sweep
    assert tracer.pool_concurrency() == pytest.approx(0.4 / 0.3, abs=0.15)


def test_concurrent_leaf_counts_are_not_lost():
    layer = _module("fake_hot", "def hot():\n    return 1\n")
    tracer = Tracer()
    tracer.install({"hot": layer}, [layer])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [layer.hot() for _ in range(20_000)]) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    tracer.uninstall()
    assert not any(t.is_alive() for t in threads)
    assert tracer.stats["hot.hot"].calls == 80_000
