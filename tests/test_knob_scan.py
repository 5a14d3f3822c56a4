"""``scripts/knob_scan.py`` finds the defaulted settings no call sets,
the defs no non-test code names and the imports no code uses.

The script is loaded by path and run on small fixture modules: one whose
calls set some knobs by keyword, by position, through a literal ``**``
dict and by pass-through, and leave the others alone; one whose calls
pass some knobs only their literal defaults; one whose calls reach only
the same-named defs their arguments bind to; one whose overrides call
themselves on ``super()``; a library plus a user of it that names some
of its defs directly, by attribute or by string, and the others only in
``__all__``, an import or their own body;
a module that uses some of its imports and not others; a tree whose
only call of a setting is under ``tests/``; and a tree with a module
that does not parse.
"""

import importlib.util
import sys
import textwrap

from tests.golden import generate

SCRIPT = generate.GOLDEN_DIR.parents[1] / "scripts" / "knob_scan.py"

FIXTURE = textwrap.dedent(
    '''
    from dataclasses import dataclass, field

    def tune(a, b=1, c=2, d=3, e=4, *, f=5):
        pass

    def wrapper(x, c=None, e=None):
        tune(x, c=c, e=e)

    class Radio:
        def __init__(self, name, power=0.0, gain=1.0):
            pass

        def send(self, frame, repeats=1):
            pass

    class Stick(Radio):
        def __init__(self, power=0.0):
            super().__init__("stick", power)

    @dataclass
    class Profile:
        distance: float = 3.0
        noise: float = -100.0
        log: list = field(default_factory=list)
        state: int = field(default=0, init=False)

    def run():
        tune(0, 7)
        tune(0, **{"d": 1})
        wrapper(0, e=9)
        Radio("r").send(b"", 2)
        Stick(1.5)
        Profile(noise=-90.0)
    '''
)


LIBRARY = textwrap.dedent(
    '''
    __all__ = ["listed_only"]

    def called():
        def nested():
            pass

    def listed_only():
        pass

    def imported_only():
        pass

    def recursive(n):
        return recursive(n - 1) if n else 0

    class Radio:
        def __repr__(self):
            return "Radio()"

        def tune(self):
            pass

        def by_string(self):
            pass

        def unused(self):
            pass
    '''
)

USER = textwrap.dedent(
    '''
    from library import imported_only

    def main(radio):
        called()
        radio.tune()
        getattr(radio, "by_string")()
        return Radio
    '''
)


def _load():
    spec = importlib.util.spec_from_file_location("knob_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses resolve their module by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_scan_reports_only_the_knobs_no_call_sets(tmp_path):
    knob_scan = _load()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    unset = knob_scan.scan([("fixture", path)], [path])
    assert unset == [
        ("fixture", "Profile", "distance"),
        ("fixture", "Profile", "log"),
        # Radio's power is set through Stick's, which a caller sets.
        ("fixture", "Radio.__init__", "gain"),
        # c reaches tune only through wrapper's own unset c; e is set
        # through wrapper's e, which a caller sets.
        ("fixture", "tune", "c"),
        ("fixture", "tune", "f"),
        ("fixture", "wrapper", "c"),
    ]
    kept = {
        "fixture.Profile.distance": "kept on purpose",
        "fixture.tune.d": "x",
    }
    report = knob_scan.format_report(unset, kept).splitlines()
    assert report[0] == "fixture (6)"
    assert "    Profile: distance: kept on purpose" in report
    assert "    tune: f: NOT KEPT: no call sets it" in report
    assert "    fixture.tune.d: in KEPT_KNOBS but set" in report
    assert report[-1] == "total: 6"


DEFAULTS = textwrap.dedent(
    '''
    from dataclasses import dataclass, field

    SPAN = 3

    def pulse(bt, span=3, scale=1.0, flag=True, at=(0.0, 0.0), gap=-1, n=SPAN):
        pass

    @dataclass
    class Burst:
        power: float = 10.0
        center: float = field(default=2405e6)

    def run():
        pulse(0.5, 3, scale=1.0, at=(0.0, 0.0), gap=-1)
        pulse(0.5, flag=1, n=SPAN)
        Burst(power=10.0, center=2410e6)
    '''
)


def test_a_literal_equal_to_the_default_sets_no_knob(tmp_path):
    knob_scan = _load()
    path = tmp_path / "defaults.py"
    path.write_text(DEFAULTS)
    assert knob_scan.scan([("defaults", path)], [path]) == [
        ("defaults", "Burst", "power"),
        ("defaults", "pulse", "at"),
        ("defaults", "pulse", "gap"),
        ("defaults", "pulse", "scale"),
        ("defaults", "pulse", "span"),
        # 1 is not the literal True, and SPAN is a name, not a literal.
    ]


BINDING = textwrap.dedent(
    '''
    from dataclasses import dataclass, field

    class Radio:
        def start(self, channel, handler):
            pass

    class Beacon:
        def start(self, interval_s=1.0):
            pass

        def stop(self, flush=False):
            pass

    class Relay:
        def stop(self, *args, drain=False, **kwargs):
            pass

    @dataclass
    class Frame:
        psdu: bytes
        ok: bool = False

    @dataclass
    class Locked(Frame):
        start: int = 0

    def run(radio, handler):
        radio.start(14, handler)
        radio.stop(0, 1, drain=True)
        Locked(b"", start=3)
    '''
)


def test_a_call_reaches_only_the_defs_its_arguments_bind_to(tmp_path):
    knob_scan = _load()
    path = tmp_path / "binding.py"
    path.write_text(BINDING)
    # Two positional arguments are one too many for Beacon.start, and
    # Beacon.stop takes neither two positions nor ``drain``; Relay.stop
    # takes both through *args and **kwargs.  Locked binds Frame's psdu
    # by position before its own start.
    assert knob_scan.scan([("binding", path)], [path]) == [
        ("binding", "Beacon.start", "interval_s"),
        ("binding", "Beacon.stop", "flush"),
        ("binding", "Frame", "ok"),
    ]


def test_a_call_only_under_tests_sets_no_knob(tmp_path, monkeypatch, capsys):
    knob_scan = _load()
    for name in ("src", "tests", "scripts"):
        (tmp_path / name).mkdir()
    (tmp_path / "src" / "radio.py").write_text(
        "def tune(channel=11):\n    pass\n"
    )
    (tmp_path / "tests" / "test_radio.py").write_text(
        "from radio import tune\n\ntune(channel=26)\n"
    )
    monkeypatch.setattr(knob_scan, "ROOT", tmp_path)
    monkeypatch.setattr(knob_scan, "KEPT", {"radio.tune": "kept on purpose"})
    monkeypatch.setattr(knob_scan, "KEPT_KNOBS", {})
    assert knob_scan.main() == 1
    assert "    tune: channel: NOT KEPT: no call sets it" in (
        capsys.readouterr().out.splitlines()
    )
    # The same call outside tests/ sets it.
    (tmp_path / "scripts" / "use.py").write_text(
        "from radio import tune\n\ntune(channel=26)\n"
    )
    monkeypatch.setattr(knob_scan, "KEPT", {})
    assert knob_scan.main() == 0


OVERRIDES = textwrap.dedent(
    '''
    class Base:
        def start(self):
            pass

        def pause(self):
            pass

        def stop(self):
            pass

    class Node(Base):
        def start(self):
            super().start()

        def resume(self):
            super().pause()

        def stop(self):
            super().stop()

    def main(node):
        node.stop()
        node.resume()
    '''
)


def test_an_override_calling_its_own_name_on_super_reaches_nothing(tmp_path):
    knob_scan = _load()
    path = tmp_path / "overrides.py"
    path.write_text(OVERRIDES)
    # super().start() inside Node.start reaches no one else's start;
    # super().pause() inside resume is a use, and main names stop.
    assert knob_scan.reach([("overrides", path)], [("overrides", path)]) == [
        "overrides.Base.start",
        "overrides.Node",
        "overrides.Node.start",
        "overrides.main",
    ]


def test_reach_reports_the_defs_no_other_code_names(tmp_path):
    knob_scan = _load()
    library, user = tmp_path / "library.py", tmp_path / "user.py"
    library.write_text(LIBRARY)
    user.write_text(USER)
    unreached = knob_scan.reach(
        [("library", library)], [("library", library), ("user", user)]
    )
    assert unreached == [
        "library.Radio.unused",
        "library.imported_only",
        "library.listed_only",
        "library.recursive",
    ]
    report = knob_scan.format_reach_report(
        unreached, {"library.recursive": "kept on purpose", "library.called": "x"}
    ).splitlines()
    assert report[0] == "defs no non-test code names (4)"
    assert "    library.recursive: kept on purpose" in report
    assert "    library.listed_only: NOT KEPT: only tests reach it" in report
    assert report[-1] == "    library.called: in KEPT but reached"


IMPORTS = textwrap.dedent(
    '''
    from __future__ import annotations

    import os.path
    import numpy as np
    from typing import Dict, List, Optional
    from library import exported, unused as renamed

    __all__ = ["exported"]

    def f(x: "Optional[int]") -> Dict:
        return os.path.join(np.pi)
    '''
)


def test_unused_imports_are_reported(tmp_path):
    knob_scan = _load()
    path = tmp_path / "imports.py"
    path.write_text(IMPORTS)
    unused = knob_scan.unused_imports([("imports", path)])
    # A quoted annotation names Optional only as a string; it counts.
    assert unused == ["imports: List", "imports: renamed"]
    report = knob_scan.format_imports_report(unused).splitlines()
    assert report == ["unused imports (2)", "    imports: List", "    imports: renamed"]


def test_a_module_that_does_not_parse_fails_the_scan(
    tmp_path, monkeypatch, capsys
):
    knob_scan = _load()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "clean.py").write_text("X = 1\n")
    broken = tmp_path / "src" / "broken.py"
    broken.write_text("def frame_record(extra_knob: int = 3, seq):\n    pass\n")
    assert knob_scan.unparsable([tmp_path / "src" / "clean.py", broken]) == [
        broken
    ]
    # Without the broken module every report of this tree is clean.
    monkeypatch.setattr(knob_scan, "ROOT", tmp_path)
    monkeypatch.setattr(knob_scan, "KEPT", {})
    monkeypatch.setattr(knob_scan, "KEPT_KNOBS", {})
    assert knob_scan.main() == 1
    assert capsys.readouterr().err == "knob_scan: cannot parse src/broken.py\n"
    broken.unlink()
    assert knob_scan.main() == 0


def test_scan_runs_on_the_repository(capsys):
    knob_scan = _load()
    assert knob_scan.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # The reach report lists exactly the kept defs, each with its reason.
    kept = knob_scan.KEPT
    assert lines[0] == f"defs no non-test code names ({len(kept)})"
    assert lines[1 : 1 + len(kept)] == [
        f"    {name}: {kept[name]}" for name in sorted(kept)
    ]
    # Every knob no call sets is a kept one, listed with its reason.
    kept_knobs = knob_scan.KEPT_KNOBS
    reasons = tuple(f": {reason}" for reason in kept_knobs.values())
    assert len([line for line in lines if line.endswith(reasons)]) == len(
        kept_knobs
    )
    assert not any("NOT KEPT" in line or "in KEPT" in line for line in lines)
    assert f"total: {len(kept_knobs)}" in lines
    # And no module imports a name it never uses.
    assert lines[-1] == "unused imports (0)"
