"""The benchmark's traced mode against the library it wraps.

``bench/tracing.py`` replaces library attributes by name, so a renamed or
moved function would break ``bench/run.py --trace 1`` without failing any
library test.  These tests import the tracer from ``bench/`` as it is and
check that its targets exist, that tracing does not change a report, that
every DF read-off reaches a traced solve, and that ``uninstall`` puts every
original back.
"""

import contextlib
import io
import sys
from pathlib import Path

from fairmaxcut import verify
from fairmaxcut.cli import main
from fairmaxcut.families import make_paw_instance

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))

import tracing  # noqa: E402

PAW = str(ROOT / "tests" / "goldens" / "paw.inst")


def solve_paw() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", PAW, "--no-timestamp"]) == 0
    return out.getvalue()


def test_every_target_resolves():
    for owner, attr, name, layer, counter in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert layer in tracing.LAYERS


def test_traced_solve_writes_the_untraced_report():
    untraced = solve_paw()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = solve_paw()
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"instances.load_instance", "exact.build_payoff_matrix", "maximin.solve_maximin"} <= names
    assert tracer.counts["exact.passes"] == 1


def test_traced_check_chain_counts_its_df_read_offs():
    # the paw's four groups: both DF masters grow past the start column
    inst = make_paw_instance()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        checks = verify.check_chain(inst.graph, inst.model, inst.partition)
    finally:
        tracer.uninstall()
    assert checks and all(check.passed for check in checks)
    names = [span[0] for span in tracer.spans]
    assert names.count("maximin.solve_maximin") == 2
    assert tracer.counts["maximin.columns_in"] > 0
    assert tracer.counts["maximin.support_size"] > 0


def test_uninstall_restores_every_attribute():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
