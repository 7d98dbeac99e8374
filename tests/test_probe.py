"""The benchmark's probe still finds every engine function it wraps.

``perfbench/probe.py`` wraps engine functions by name; renaming or
dropping one fails ``Probe.install`` here, in a second, rather than in a
benchmark run.
"""

import importlib.util
from pathlib import Path

from arraybench import algebra, model

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_installs_and_uninstalls():
    originals = (algebra.filter, algebra.shift, model.make_dense_chunk,
                 model.make_sparse_chunk)
    probe = load_probe().Probe()
    probe.install()
    try:
        wrapped = (algebra.filter, algebra.shift, model.make_dense_chunk,
                   model.make_sparse_chunk)
        for fn, original in zip(wrapped, originals):
            assert fn is not original
            assert fn.__wrapped__ is original
    finally:
        probe.uninstall()
    assert (algebra.filter, algebra.shift, model.make_dense_chunk,
            model.make_sparse_chunk) == originals
