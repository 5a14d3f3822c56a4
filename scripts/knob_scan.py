"""List the settings in ``src/`` that no call ever sets.

Run from anywhere (it takes no options)::

    python scripts/knob_scan.py

Reads every module under ``src/`` with the stdlib :mod:`ast` module and
collects its *knobs*: the defaulted parameters of every function and
method, and the defaulted fields of every dataclass.  It then reads every
call in ``src/``, ``scripts/``, ``benchmarks/``, ``fleetbench/`` and
``examples/`` and marks a knob as set when a call to a function, method
or class of that name passes it

* by keyword,
* by position (a ``*args`` marks every remaining position), or
* through ``**`` of a literal dict (``**{"k": v}`` or ``**dict(k=v)``).

Calls under ``tests/`` set no knob: a setting only tests change is a
constant, and a test that needs another value patches the constant.  A
call reaches only the same-named defs its arguments can bind to: more
positional arguments than a def takes, or a keyword it does not have,
rules that def out, unless it takes ``*args`` or ``**kwargs``.  A
dataclass's fields follow those of its dataclass bases in the same
module.

A literal argument equal to the parameter's literal default (``f(k=3)``
for ``def f(k=3)``) does not set the knob: a setting every caller gives
its default value is a constant.  A call that only passes an enclosing
function's own parameter of the same kind on (``f(x=x)`` inside
``def g(x=None)``) sets the knob only if that outer knob is set itself.
``super().__init__(...)`` calls count against the enclosing class's
bases.

Matching is by name, so a knob of a def whose name and signature fit a
call to another one is hidden (the scan errs towards keeping knobs), and
a ``**`` of any other mapping is not followed: confirm each hit by
reading its callers.

A second report lists the *defs no non-test code names*: every class,
function and method in ``src/`` (nested functions and dunders aside)
whose name appears nowhere in ``src/``, ``scripts/``, ``benchmarks/``,
``fleetbench/`` or ``examples/`` outside its own body, as an identifier,
an attribute or a string constant (``getattr`` and the fleetbench span
table name methods by string).  ``__all__`` lists, imports and a
``super().name(...)`` call inside a def of that same name (an override
reaching the def it overrides) do not count.  The defs in :data:`KEPT`
stay on purpose; any other hit is API only tests reach, and makes the
script exit 1.

The knobs in :data:`KEPT_KNOBS` stay on purpose, each with its reason:
device names, addresses and CRC init values; seams that swap in a test
oracle; the mechanisms of open ROADMAP items; and settings a production
caller passes in a way the scan cannot follow.  Any other knob no call
sets makes the script exit 1.

A third report lists the *unused imports*: every module-level import in
``src/`` whose bound name its module never uses (as a name, or inside a
quoted annotation) and does not list in ``__all__``.  Any hit makes the
script exit 1.

Prints the reach report, then, per module, the knobs no call sets and
their total, then the unused imports.  A module the scan cannot parse
would hide from all three, so each one is listed on standard error and
makes the script exit 1.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFINITION_DIRS = ("src",)
CALL_DIRS = ("src", "scripts", "benchmarks", "fleetbench", "examples")
REACH_DIRS = ("src", "scripts", "benchmarks", "fleetbench", "examples")

#: Defs no non-test code names that stay, each with its reason.
KEPT: Dict[str, str] = {
    "repro.ble.packets.AdStructure.parse_all": (
        "air-input decoder of advertising data; tests/test_robustness.py fuzzes it"
    ),
    "repro.ble.packets.ExtendedAdvertisingPdu.from_pdu": (
        "air-input decoder of extended advertising PDUs; "
        "tests/test_robustness.py fuzzes it"
    ),
}

#: Knobs no call sets that stay, each with its reason, keyed
#: ``module.owner.name``.
KEPT_KNOBS: Dict[str, str] = {
    "repro.ble.crc.ble_crc24.init": (
        "CRC init: packets.check_crc passes its own, kept, crc_init on"
    ),
    "repro.ble.crc.ble_crc24_bits.init": (
        "CRC init: the advertising value by default, a connection's own otherwise"
    ),
    "repro.ble.packets.assemble_on_air_bits.access_address": (
        "address: the advertising Access Address by default, a connection's "
        "own otherwise"
    ),
    "repro.ble.packets.assemble_on_air_bits.crc_init": (
        "CRC init that goes with the Access Address"
    ),
    "repro.ble.packets.check_crc.crc_init": (
        "CRC init that goes with the Access Address"
    ),
    "repro.ble.packets.parse_pdu_bits.crc_init": (
        "CRC init that goes with the Access Address"
    ),
    "repro.chips.ble_radio.BleRadioPeripheral.transmit_pdu.access_address": (
        "address: the advertising Access Address by default"
    ),
    "repro.chips.cc1352.Cc1352R1.__init__.name": (
        "device name: unique per radio on one medium"
    ),
    "repro.chips.cc1352.Cc1352R1.__init__.position": (
        "placement: set through experiments.table3.CHIP_FACTORIES, whose "
        "chip_factory(position=...) call the name match cannot follow"
    ),
    "repro.chips.cc1352.Cc1352R1.__init__.rng": (
        "device stream: set by environment.build_bench's chip_factory(rng=...) "
        "call, which the name match cannot follow"
    ),
    "repro.chips.nrf51822.Nrf51822.__init__.name": (
        "device name: unique per radio on one medium"
    ),
    "repro.chips.smartphone.SmartphoneBle.__init__.advertiser_address": (
        "address: the advertiser's device address"
    ),
    "repro.chips.smartphone.SmartphoneBle.__init__.name": (
        "device name: unique per radio on one medium"
    ),
    "repro.experiments.table3._run_wideband_pair.front_end_cls": (
        "seam: the wideband tests swap in their reference band steps"
    ),
    "repro.experiments.table3.run_table3.primitives": (
        "ROADMAP item 10's modulation-index sweep runs "
        "run_table3(primitives=(\"tx\",))"
    ),
    "repro.experiments.table3.run_table3_cell.fault_profile": (
        "chaos profile: run_table3 passes it in the map_tasks task dicts, "
        "which the name match cannot follow"
    ),
    "repro.ids.monitor.SpectrumSentinel.__init__.name": (
        "device name: unique per radio on one medium"
    ),
    "repro.phy.ble_phy.modem_config.modulation_index": (
        "ROADMAP item 10's per-chip modulation index"
    ),
    "repro.serve.supervisor.SupervisedStage.__init__.backoff_cap_s": (
        "ROADMAP item 9's restart parameters"
    ),
    "repro.serve.supervisor.SupervisedStage.__init__.backoff_s": (
        "ROADMAP item 9's restart parameters"
    ),
    "repro.serve.supervisor.SupervisedStage.__init__.max_restarts": (
        "ROADMAP item 9's restart parameters"
    ),
    "repro.zigbee.fleet.FleetNodeSpec.report_interval_s": (
        "set through make_fleet's report_interval_s"
    ),
    "repro.zigbee.fleet.make_fleet.report_interval_s": (
        "fleetbench's make_fleet(**self.fleet) sets it, a mapping the scan "
        "does not follow"
    ),
}

#: A knob: (module, qualified owner, parameter or field name).
Knob = Tuple[str, str, str]


def knob_key(knob: Knob) -> str:
    """A knob's :data:`KEPT_KNOBS` key, ``module.owner.name``."""
    return ".".join(knob)


@dataclass
class _Signature:
    """One callable's parameters, as a call by *name* reaches them."""

    module: str
    owner: str
    positional: List[str]
    #: Each defaulted parameter, with its default as :func:`_literal`
    #: reads it.
    defaulted: Dict[str, object]
    #: The names a keyword argument can bind to.
    keywords: Set[str]
    #: Whether the callable takes ``*args`` and ``**kwargs``.
    var_positional: bool = False
    var_keyword: bool = False

    def binds(self, positions: int, keywords: Iterable[str]) -> bool:
        """Whether a call passing *positions* positional arguments and
        *keywords* by name can reach this callable."""
        if positions > len(self.positional) and not self.var_positional:
            return False
        return self.var_keyword or all(k in self.keywords for k in keywords)


@dataclass
class _Scan:
    by_name: Dict[str, List[_Signature]] = field(
        default_factory=lambda: defaultdict(list)
    )
    set_knobs: Set[Knob] = field(default_factory=set)
    # knob -> outer knobs whose value it receives by pass-through
    passes: Dict[Knob, Set[Knob]] = field(default_factory=lambda: defaultdict(set))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


_NOT_LITERAL = object()


def _literal(value: ast.expr) -> object:
    """*value* as a ``(type, value)`` pair when it is a literal, so that
    ``1``, ``1.0`` and ``True`` stay apart; :data:`_NOT_LITERAL` else."""
    try:
        literal = ast.literal_eval(value)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return _NOT_LITERAL
    return (type(literal), literal)


def _function_signature(
    module: str, owner: str, fn: ast.FunctionDef, method: bool
) -> _Signature:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(
        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
    )
    if method and not static and positional:
        positional = positional[1:]
    defaults = zip(positional[len(positional) - len(args.defaults):], args.defaults)
    defaulted = {name: _literal(value) for name, value in defaults}
    defaulted.update(
        (a.arg, _literal(d))
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    )
    keywords = {a.arg for a in args.args if a.arg in positional}
    keywords.update(a.arg for a in args.kwonlyargs)
    return _Signature(
        module, owner, positional, defaulted, keywords,
        args.vararg is not None, args.kwarg is not None,
    )


def _dataclass_signature(
    module: str, node: ast.ClassDef, inherited: List[str]
) -> _Signature:
    """*node*'s fields after the *inherited* ones (its dataclass bases')."""
    names: List[str] = list(inherited)
    defaulted: Dict[str, object] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if annotation.startswith(("ClassVar", "typing.ClassVar")):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and getattr(
                value.func, "id", None
            ) == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                if "init" in keywords:
                    continue
                if "default" in keywords:
                    value = keywords["default"]
                elif "default_factory" not in keywords:
                    value = None
            names.append(stmt.target.id)
            if value is not None:
                defaulted[stmt.target.id] = _literal(value)
    return _Signature(module, node.name, names, defaulted, set(names))


def _collect_definitions(scan: _Scan, module: str, tree: ast.Module) -> None:
    # Each dataclass's init fields, for dataclasses in the same module
    # that derive from it.
    fields: Dict[str, List[str]] = {}

    def visit(body: Iterable[ast.stmt], prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{prefix}{node.name}"
                signature = _function_signature(module, owner, node, in_class)
                if in_class and node.name == "__init__":
                    # Reached by calling the class.
                    name = prefix.rstrip(".").rsplit(".", 1)[-1]
                else:
                    name = node.name
                scan.by_name[name].append(signature)
                visit(node.body, f"{owner}.", False)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    inherited = [
                        f for b in node.bases for f in fields.get(getattr(b, "id", ""), [])
                    ]
                    signature = _dataclass_signature(module, node, inherited)
                    fields[node.name] = signature.positional
                    scan.by_name[node.name].append(signature)
                visit(node.body, f"{prefix}{node.name}.", True)

    visit(tree.body, "", False)


def _is_super(node: ast.expr) -> bool:
    """Whether *node* is a ``super()`` call."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "super"


def _callee_names(call: ast.Call, bases: List[str]) -> List[str]:
    func = call.func
    if isinstance(func, ast.BoolOp):  # (factory or Default)(...)
        return [v.id for v in func.values if isinstance(v, ast.Name)]
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and _is_super(func.value):
            return bases
        return [func.attr]
    return []


def _literal_keys(value: ast.expr) -> List[Tuple[str, ast.expr]]:
    if isinstance(value, ast.Dict):
        return [
            (k.value, v)
            for k, v in zip(value.keys, value.values)
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        ]
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
        return [(k.arg, k.value) for k in value.keywords if k.arg is not None]
    return []


def _collect_calls(scan: _Scan, module: Optional[str], tree: ast.Module) -> None:
    """Record every call in *tree*; *module* names a ``src/`` module, whose
    functions' defaulted parameters are knobs for pass-through."""
    knobs = {
        (s.module, s.owner): s.defaulted
        for signatures in scan.by_name.values()
        for s in signatures
        if s.module == module
    }

    def visit(
        node: ast.AST, prefix: str, outer: Dict[str, Knob], bases: List[str]
    ) -> None:
        if isinstance(node, ast.ClassDef):
            class_bases = [
                b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                for b in node.bases
            ]
            for child in node.body:
                visit(child, f"{prefix}{node.name}.", outer, class_bases)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{prefix}{node.name}"
            defaulted = knobs.get((module, owner), set())
            inner = {p: (module, owner, p) for p in defaulted}
            for child in ast.iter_child_nodes(node):
                visit(child, f"{owner}.", inner, bases)
            return
        if isinstance(node, ast.Call):
            _record_call(scan, node, outer, bases)
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, outer, bases)

    visit(tree, "", {}, [])


def _record_call(
    scan: _Scan,
    call: ast.Call,
    outer: Dict[str, Knob],
    bases: List[str],
) -> None:
    passed: List[Tuple[Optional[int], Optional[str], ast.expr]] = []
    starred_from: Optional[int] = None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            starred_from = i if starred_from is None else starred_from
        else:
            passed.append((i, None, arg))
    for keyword in call.keywords:
        if keyword.arg is not None:
            passed.append((None, keyword.arg, keyword.value))
        else:
            passed.extend((None, k, v) for k, v in _literal_keys(keyword.value))
    positions = starred_from if starred_from is not None else len(call.args)
    keywords = [keyword for _, keyword, _ in passed if keyword is not None]
    for name in _callee_names(call, bases):
        for signature in scan.by_name.get(name, []):
            if not signature.binds(positions, keywords):
                continue
            hits: List[Tuple[str, ast.expr]] = []
            for index, keyword, value in passed:
                if keyword is not None:
                    hits.append((keyword, value))
                elif index < len(signature.positional):
                    hits.append((signature.positional[index], value))
            if starred_from is not None:
                hits.extend(
                    (p, call.args[starred_from])
                    for p in signature.positional[starred_from:]
                )
            for param, value in hits:
                if param not in signature.defaulted:
                    continue
                default = signature.defaulted[param]
                if default is not _NOT_LITERAL and _literal(value) == default:
                    continue  # set to its own default: not a setting
                knob = (signature.module, signature.owner, param)
                source = outer.get(value.id) if isinstance(value, ast.Name) else None
                if source is not None and source != knob:
                    scan.passes[knob].add(source)
                else:
                    scan.set_knobs.add(knob)


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except (SyntaxError, UnicodeDecodeError):
        return None


def unparsable(paths: Iterable[Path]) -> List[Path]:
    """The files of *paths* that do not parse."""
    return [path for path in paths if _parse(path) is None]


def scan(
    definition_files: Iterable[Tuple[str, Path]], call_files: Iterable[Path]
) -> List[Knob]:
    """The knobs of *definition_files* ((module, path) pairs) that no call
    in *call_files* sets, sorted."""
    definition_files = list(definition_files)
    result = _Scan()
    for module, path in definition_files:
        tree = _parse(path)
        if tree is not None:
            _collect_definitions(result, module, tree)
    modules = {path: module for module, path in definition_files}
    for path in call_files:
        tree = _parse(path)
        if tree is not None:
            _collect_calls(result, modules.get(path), tree)
    # Pass-through: a knob is set if any outer knob feeding it is set.
    changed = True
    while changed:
        changed = False
        for knob, sources in result.passes.items():
            if knob not in result.set_knobs and sources & result.set_knobs:
                result.set_knobs.add(knob)
                changed = True
    knobs = {
        (s.module, s.owner, p)
        for signatures in result.by_name.values()
        for s in signatures
        for p in s.defaulted
    }
    return sorted(knobs - result.set_knobs)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _collect_defs(module: str, tree: ast.Module) -> List[Tuple[str, str]]:
    """(qualified name, name) of every class, function and method."""
    defs: List[Tuple[str, str]] = []

    def visit(body: Iterable[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, _DEFS):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defs.append((f"{module}.{prefix}{name}", name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{name}.")

    visit(tree.body, "")
    return defs


def _is_all(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(getattr(t, "id", None) == "__all__" for t in targets)


def _collect_uses(
    uses: Dict[str, Set[str]], module: str, tree: ast.Module
) -> None:
    """Add to *uses* each name *tree* uses, with the qualified name of the
    innermost def it is used in (the module's own name at top level)."""

    def visit(node: ast.AST, where: str) -> None:
        if _is_all(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, _DEFS):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Name):
            uses[node.id].add(where)
        elif isinstance(node, ast.Attribute):
            if not (_is_super(node.value) and where.endswith(f".{node.attr}")):
                uses[node.attr].add(where)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                uses[node.value].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)


def reach(
    definition_files: Iterable[Tuple[str, Path]],
    use_files: Iterable[Tuple[str, Path]],
) -> List[str]:
    """The qualified names of the defs in *definition_files* that no file of
    *use_files* (both (module, path) pairs) names outside their own body,
    sorted."""
    uses: Dict[str, Set[str]] = defaultdict(set)
    for module, path in use_files:
        tree = _parse(path)
        if tree is not None:
            _collect_uses(uses, module, tree)
    unreached: List[str] = []
    for module, path in definition_files:
        tree = _parse(path)
        if tree is None:
            continue
        for qualified, name in _collect_defs(module, tree):
            inside = f"{qualified}."
            outside = [
                w for w in uses.get(name, ())
                if w != qualified and not w.startswith(inside)
            ]
            if not outside:
                unreached.append(qualified)
    return sorted(unreached)


def format_reach_report(unreached: List[str], kept: Dict[str, str]) -> str:
    lines = [f"defs no non-test code names ({len(unreached)})"]
    for qualified in unreached:
        reason = kept.get(qualified, "NOT KEPT: only tests reach it")
        lines.append(f"    {qualified}: {reason}")
    stale = sorted(set(kept) - set(unreached))
    lines.extend(f"    {qualified}: in KEPT but reached" for qualified in stale)
    return "\n".join(lines)


def format_report(knobs: List[Knob], kept: Dict[str, str]) -> str:
    lines: List[str] = []
    by_module: Dict[str, List[Knob]] = defaultdict(list)
    for knob in knobs:
        by_module[knob[0]].append(knob)
    for module in sorted(by_module):
        lines.append(f"{module} ({len(by_module[module])})")
        for knob in by_module[module]:
            reason = kept.get(knob_key(knob), "NOT KEPT: no call sets it")
            lines.append(f"    {knob[1]}: {knob[2]}: {reason}")
    stale = sorted(set(kept) - {knob_key(k) for k in knobs})
    lines.extend(f"    {key}: in KEPT_KNOBS but set" for key in stale)
    lines.append(f"total: {len(knobs)}")
    return "\n".join(lines)


def unused_imports(definition_files: Iterable[Tuple[str, Path]]) -> List[str]:
    """``module: name`` for each module-level import in *definition_files*
    ((module, path) pairs) whose name the module never uses, sorted."""
    unused: List[str] = []
    for module, path in definition_files:
        tree = _parse(path)
        if tree is None:
            continue
        imported: Dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = alias.asname or alias.name
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # an __all__ entry
            annotation = _quoted_annotation(node)
            if annotation is not None:
                used.update(
                    n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)
                )
        unused.extend(
            f"{module}: {name}" for bound, name in imported.items()
            if bound not in used and name != "*"
        )
    return sorted(unused)


def _quoted_annotation(node: ast.AST) -> Optional[ast.expr]:
    """*node*'s own annotation, parsed, when it is a string."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    else:  # ast.arg and ast.AnnAssign carry one; other nodes none
        annotation = getattr(node, "annotation", None)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            pass
    return None


def format_imports_report(unused: List[str]) -> str:
    lines = [f"unused imports ({len(unused)})"]
    lines.extend(f"    {entry}" for entry in unused)
    return "\n".join(lines)


def _python_files(root: Path, dirs: Iterable[str]) -> List[Path]:
    return sorted(p for d in dirs for p in (root / d).rglob("*.py"))


def main() -> int:
    src = ROOT / "src"
    definitions = [
        (_module_name(p, src), p) for p in _python_files(ROOT, DEFINITION_DIRS)
    ]
    users = [
        (_module_name(p, src) if src in p.parents else str(p.relative_to(ROOT)), p)
        for p in _python_files(ROOT, REACH_DIRS)
    ]
    unreached = reach(definitions, users)
    print(format_reach_report(unreached, KEPT))
    callers = _python_files(ROOT, CALL_DIRS)  # every file the scan reads
    unset = scan(definitions, callers)
    print(format_report(unset, KEPT_KNOBS))
    unused = unused_imports(definitions)
    print(format_imports_report(unused))
    broken = unparsable(callers)
    for path in broken:
        print(f"knob_scan: cannot parse {path.relative_to(ROOT)}", file=sys.stderr)
    gates = (
        unreached == sorted(KEPT),
        sorted(map(knob_key, unset)) == sorted(KEPT_KNOBS),
        not unused,
        not broken,
    )
    return 0 if all(gates) else 1


if __name__ == "__main__":
    sys.exit(main())
