"""``scripts/knob_scan.py`` finds the defaulted settings no call sets.

The script is loaded by path and run on a small fixture module whose
calls set some knobs by keyword, by position, through a literal ``**``
dict and by pass-through, and leave the others alone.
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
    report = knob_scan.format_report(unset)
    assert report.splitlines()[0] == "fixture (6)"
    assert "    tune: f" in report
    assert report.splitlines()[-1] == "total: 6"


def test_scan_runs_on_the_repository(capsys):
    assert _load().main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("total: ")
