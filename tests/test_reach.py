"""Every top-level definition and method of the library is reached, or kept for a stated reason.

A top-level function or class of ``src/berglab/*.py`` is reached when its
name appears as a whole word somewhere else in ``src/berglab`` (its own
definition and ``__init__.py`` do not count), or in ``scripts/`` or
``bench/``.  A method of a top-level class (dunder methods aside, which
Python calls itself) is reached when its name appears as an attribute,
``.name``, anywhere in ``src/berglab``, ``scripts/`` or ``bench/``, and so
is a field (an annotated name in a top-level class body).  Tests do not
count: code that only its own tests reach is a deletion candidate unless
``KEPT``, ``KEPT_METHODS`` or ``KEPT_FIELDS`` names it with the reason it
stays.  The scans match names, so they can miss unreached code (a field
sharing its name with a reached method or field looks reached), but they
never report reached code as unreached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "berglab"

KEPT = {
    # lab capabilities the north star keeps by name
    "cutoff_family": "north-star capability: the cutoff families",
    "oscillation_profile": "north-star capability: measured oscillation of a symbol",
    "metric_ball_volume": "north-star capability: volumes of metric balls",
    "uniform_box_sampler": "the whole-box sampler for mu_volume, beside metric_ball_volume's",
    "shell_volume": "north-star capability: volumes of gauge shells",
    "loc_assemble": "north-star capability: localized operator assembly",
    "partition_toeplitz_h": "north-star capability: Toeplitz operators of a partition",
    # read by the acceptance criteria
    "discrete_sum_matrix": "read by acceptance criterion 6",
    "class_indices": "read by acceptance criterion 8",
    "family_cutoff": "read by acceptance criterion 8",
    "a_cell_samples": "read by acceptance criterion 8",
    # public formats and fixtures
    "custom_domain": "builds a domain from its defining polynomial; the test fixtures use it",
    "save_operator": "documented operator file format",
    "load_operator": "documented operator file format",
    "build_cells": "the nested cells with representatives that README advertises",
}

KEPT_METHODS = {
    "DomainSpec.to_json": "writes the custom-domain JSON schema that README documents",
    "Polydisc.contains": "the membership oracle of test_polydisc_sampler_inside",
}

KEPT_FIELDS = {
    "OscillationProfile.shell_sup": "the per-shell sups a vanishing-oscillation plan row is to read",
    "OscillationProfile.vo_verdict": "the verdict a vanishing-oscillation plan row is to report",
}


def _outside() -> list[str]:
    return [p.read_text() for d in ("scripts", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def _unreached() -> set[str]:
    texts = {p: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = _outside()
    found = set()
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        others = [t for q, t in texts.items() if q != path] + outside
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[: start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest, *others]):
                found.add(node.name)
    return found


def _class_members() -> list[tuple[str, ast.AST]]:
    """(class name, node) for every statement in the body of a top-level class of the library."""
    return [(cls.name, node) for p in sorted(SRC.glob("*.py")) for cls in ast.parse(p.read_text()).body
            if isinstance(cls, ast.ClassDef) for node in cls.body]


def _unread_attributes(names: list[tuple[str, str]]) -> set[str]:
    """The ``Class.name`` pairs whose ``.name`` appears nowhere in the library, scripts or bench."""
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))] + _outside()
    return {f"{cls}.{name}" for cls, name in names
            if not any(re.search(rf"\.{re.escape(name)}\b", t) for t in texts)}


def _unreached_methods() -> set[str]:
    return _unread_attributes([
        (cls, node.name) for cls, node in _class_members()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ])


def _unread_fields() -> set[str]:
    return _unread_attributes([
        (cls, node.target.id) for cls, node in _class_members()
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ])


def test_every_definition_is_reached_or_kept():
    unreached = _unreached()
    orphans = sorted(unreached - KEPT.keys())
    stale = sorted(KEPT.keys() - unreached)
    assert not orphans, f"reached by nothing but its own tests: {orphans}"
    assert not stale, f"KEPT names that are reached or no longer defined: {stale}"


def test_every_method_is_reached_or_kept():
    unreached = _unreached_methods()
    orphans = sorted(unreached - KEPT_METHODS.keys())
    stale = sorted(KEPT_METHODS.keys() - unreached)
    assert not orphans, f"methods reached by nothing but their own tests: {orphans}"
    assert not stale, f"KEPT_METHODS names that are reached or no longer defined: {stale}"


def test_every_field_is_read_or_kept():
    unread = _unread_fields()
    orphans = sorted(unread - KEPT_FIELDS.keys())
    stale = sorted(KEPT_FIELDS.keys() - unread)
    assert not orphans, f"fields read by nothing but tests: {orphans}"
    assert not stale, f"KEPT_FIELDS names that are read or no longer defined: {stale}"
