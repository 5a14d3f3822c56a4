"""``fleetbench --trace 1`` can still wrap every entry point it names.

The fleet benchmark's layer table (``fleetbench/spans.py``) wraps
``src/`` entry points by owner and attribute name and reads each one from
its owner's ``__dict__``: an entry point that moved to another class, or
went away, makes ``--trace 1`` raise.  This test loads that file
read-only, runs a small traced campaign inside ``LayerTracer.installed()``
and checks that every wrapped attribute was patched, timed and restored.
The campaign runs in this process (``workers=1``): the spans time only
the process they are installed in.
"""

import importlib.util
import sys

from repro.radio import BufferPool, RfMedium, ShardedRfMedium
from tests.golden import generate

SPANS = generate.GOLDEN_DIR.parents[1] / "fleetbench" / "spans.py"


def _spans_module():
    name = "fleetbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_traced_campaign_installs_and_restores_every_span():
    spans = _spans_module()
    targets = [(owner, attr) for owner, attr, _ in spans._SPANS]
    targets += [(cls, "_delivery_candidates") for cls in (RfMedium, ShardedRfMedium)]
    targets.append((BufferPool, "__init__"))
    # Each wrapped attribute is defined on its own owner, not inherited.
    originals = [owner.__dict__[attr] for owner, attr in targets]

    workload = generate.fleetbench_workloads().WORKLOADS["chaos"]
    tracer = spans.LayerTracer()
    with tracer.installed():
        for (owner, attr), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original, (owner, attr)
        result = workload.run(workload.spec(1), workers=1)

    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, (owner, attr)
    assert result.ledger_balanced
    assert result.ledger["medium.deliveries.delivered"] > 0
    assert tracer.scans == result.ledger["medium.transmissions"]
    assert tracer.pools and sum(pool.hits for pool in tracer.pools) > 0
    for layer in ("sched", "build", "radio.scan", "radio.compose", "phy.frontend"):
        assert tracer.self_s[layer] > 0.0, layer
