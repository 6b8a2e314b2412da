import tracemalloc
import weakref

import numpy as np
import pytest

import oudrift.simulate as simulate


@pytest.fixture
def peak_bytes(monkeypatch):
    """measure(fn, *args, **kwargs) -> (peak bytes, fn's result).

    The peak is tracemalloc's traced peak plus the most scan-buffer bytes
    mapped at once.  `simulate_path` maps its scan buffer from the OS, which
    tracemalloc does not see, so the sum bounds the true peak from above.
    """
    make = simulate._scan_buffer
    maps = []  # (weak reference to a buffer's memory, its bytes)
    most = [0]

    def mapped(n, d):
        buf = make(n, d)
        root = buf
        while isinstance(root, np.ndarray):
            root = root.base
        maps.append((weakref.ref(root), buf.nbytes))
        most[0] = max(most[0], sum(size for ref, size in maps if ref() is not None))
        return buf

    monkeypatch.setattr(simulate, "_scan_buffer", mapped)

    def measure(fn, *args, **kwargs):
        maps.clear()
        most[0] = 0
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak + most[0], out

    return measure
