"""Every function, method, class and UPPERCASE constant in src/m36 is named
by the program itself, and every attribute it stores is read by it.

A definition that only tests reach belongs in tests/ (oracles.py or the test
module that uses it), not in the package.  The scan is by name: a
definition counts as used when some Name or attribute in src/m36 outside the
definition's own lines carries its name, so a recursive helper with no other
caller, or a class named only inside its own body, is still caught.  A self.x or cls.x inside a method names only the x
of that method's class (no class in src/m36 inherits from another), so a
method or attribute that only tests reach is caught even when another class
has one of the same name.  Other attributes, such as ech.rank, name every
definition that carries their name, so a name that several classes define
is pinned with the line that reads it (SHARED, SHARED_FIELDS).  Dunder
methods are the interpreter's to call and are skipped.  Attributes are the
fields declared in class bodies (dataclass fields) and the self.x assigned
in __init__; one counts as read when some attribute load in src/m36 outside
its own assignment carries its name.  A reason that names a benchmark/*.py
file holds only while that file carries the definition's short name.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "m36"
BENCHMARK = SRC.parents[1] / "benchmark"

# Program code that no code in src/m36 calls, each kept for a stated reader.
ALLOWED = {
    "cli._table": "benchmark/child.py calls it",
    "cli.parse_expression": "benchmark/child.py and selfcheck.py call it",
    "exactla.ModpEchelon": (
        "a shim with no implementation; benchmark/tracing.py wraps its "
        "insert and kernel_basis"
    ),
    "exactla.ModpEchelon.kernel_basis": (
        "a shim method that only raises; benchmark/tracing.py wraps it"
    ),
    "exactla.IntEchelon.rref": "benchmark/tracing.py wraps it",
    "labels.perm_compose": "planned caller: the S6 config census (ROADMAP F)",
    "labels.perm_inverse": "planned caller: the S6 config census (ROADMAP F)",
    "labels.IDENTITY_PERM": "planned caller: the S6 config census (ROADMAP F)",
    "labels.apply_perm_point": "planned caller: the S6 config census (ROADMAP F)",
    "labels.apply_perm_config": "planned caller: the S6 config census (ROADMAP F)",
    "chowring.DegreeData.runtime_ms": "benchmark/tracing.py reads it",
    "m0nring.M0nDivisor.n": "the frozen dataclass's __eq__, __hash__ and order read it",
}

# Functions and methods that share their name with another definition in
# src/m36 and that the program reaches only through an attribute of an
# object the scan cannot type, so the scan cannot tell which of them is
# used.  Each names the line that reaches it; a new shared name fails
# test_shared_names_are_accounted_for until its caller is checked and added.
SHARED = {
    "chowring.GradedQuotientTable.ranks": "chowring.build_quotient: table.ranks",
    "m0nring.M0nRing.ranks": "verification.crit_m0n_oracles: ring.ranks",
    "exactla.IntEchelon.insert": "exactla.peel: ech.insert(row)",
    "exactla.ModpEchelon.insert": (
        "a shim method that only raises, with no caller in src/m36; "
        "benchmark/tracing.py wraps it, and the ech.insert(row) calls reach "
        "IntEchelon.insert"
    ),
    "exactla.IntEchelon.rref": (
        "no caller in src/m36; benchmark/tracing.py wraps it, and the "
        "dd.rref reads reach DegreeData.rref"
    ),
    "chowring.DegreeData.rref": "chowring.normal_form: reduce_row(row, dd.rref)",
}

# The same for fields: a field whose name another class also declares, read
# only through an object the scan cannot type, with the line that reads it;
# test_shared_fields_are_accounted_for fails on an unlisted one.
SHARED_FIELDS = {
    "boundarycomplex.HomologySummary.rank": "boundarycomplex.homology_report: h.rank",
    "boundarycomplex.HomologySummary.torsion": (
        "boundarycomplex.homology_report: h.torsion"
    ),
    "chowring.DegreeData.rank": "chowring.GradedQuotientTable.ranks: dd.rank",
    "chowring.DegreeData.torsion": (
        "chowring.GradedQuotientTable.torsion_free: dd.torsion"
    ),
    "chowring.GradedQuotientTable.runtime_ms": "chowring.ranks_report: t.runtime_ms",
    "m0nring.M0nRing.n": "m0nring.m0n_psi: n = ring.n",
    "verification.CriterionResult.runtime_ms": "cli: r.runtime_ms in the verify report",
}


def _definitions(tree, module):
    """(qualified name, first line, last line) of every non-dunder function
    or method, every class and every module-level UPPERCASE constant."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((prefix + name, child.lineno, child.end_lineno))
                visit(child, prefix + name + ".")
            elif isinstance(child, ast.ClassDef):
                out.append((prefix + child.name, child.lineno, child.end_lineno))
                visit(child, prefix + child.name + ".")

    visit(tree, module + ".")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                out.append(
                    ("%s.%s" % (module, target.id), node.lineno, node.end_lineno)
                )
    return out


def _attributes(tree, module):
    """(qualified name, first line, last line) of every field declared in a
    class body and every self.x assigned in a class's __init__."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        prefix = "%s.%s." % (module, cls.name)
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.append((prefix + node.target.id, node.lineno, node.end_lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                    elif isinstance(stmt, ast.AnnAssign):
                        targets = [stmt.target]
                    else:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            out.append(
                                (prefix + target.attr, stmt.lineno, stmt.end_lineno)
                            )
    return out


def _owners(tree, module):
    """{id(node): "module.Class"} for every self.x or cls.x attribute inside
    a method of Class."""
    out = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    out[id(node)] = "%s.%s" % (module, cls.name)
    return out


def _scan():
    """(definitions, references, attributes, reads) over src/m36: references
    are (name, module, line, owner) for every Name read and every attribute,
    reads the same for every attribute load.  owner is the qualified class
    of a self.x or cls.x inside one of its methods, else None."""
    defs, refs, attrs, reads = [], [], [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.extend((module,) + d for d in _definitions(tree, module))
        attrs.extend((module,) + a for a in _attributes(tree, module))
        owners = _owners(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, module, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                ref = (node.attr, module, node.lineno, owners.get(id(node)))
                refs.append(ref)
                if isinstance(node.ctx, ast.Load):
                    reads.append(ref)
    return defs, refs, attrs, reads


def _unnamed(defs, refs):
    """Qualified names of defs that no reference outside their own lines
    carries; a reference with an owner counts only for that owner's
    definitions."""
    named = {}
    for name, module, line, owner in refs:
        named.setdefault(name, []).append((module, line, owner))
    out = set()
    for module, qualname, first, last in defs:
        scope, short = qualname.rsplit(".", 1)
        if not any(
            (owner is None or owner == scope)
            and (m != module or not first <= line <= last)
            for m, line, owner in named.get(short, ())
        ):
            out.add(qualname)
    return out


def test_every_definition_is_named_by_the_program():
    defs, refs, _attrs, _reads = _scan()
    unnamed = _unnamed(defs, refs) - set(ALLOWED)
    assert not unnamed, (
        "defined in src/m36 but never named there; move test-only code to "
        "tests/ or delete it: %s" % sorted(unnamed)
    )


def test_every_attribute_is_read_by_the_program():
    _defs, _refs, attrs, reads = _scan()
    unread = _unnamed(attrs, reads) - set(ALLOWED)
    assert not unread, (
        "stored in src/m36 but never read there; delete it or move it to "
        "tests/: %s" % sorted(unread)
    )


def _shared(defs, refs):
    """Qualified names of defs whose name another def also carries and that
    no self.x or cls.x inside their own class reaches."""
    scopes = {}
    for _module, qualname, _a, _b in defs:
        scope, short = qualname.rsplit(".", 1)
        scopes.setdefault(short, set()).add(scope)
    resolved = {(name, owner) for name, _m, _l, owner in refs if owner}
    return {
        qualname
        for _module, qualname, _a, _b in defs
        if len(scopes[qualname.rsplit(".", 1)[1]]) > 1
        and tuple(reversed(qualname.rsplit(".", 1))) not in resolved
    }


def test_shared_names_are_accounted_for():
    defs, refs, _attrs, _reads = _scan()
    assert _shared(defs, refs) - _unnamed(defs, refs) == set(SHARED)
    assert all(reason for reason in SHARED.values())


def test_shared_fields_are_accounted_for():
    _defs, _refs, attrs, reads = _scan()
    shared = _shared(attrs, reads) - _unnamed(attrs, reads) - set(ALLOWED)
    assert shared == set(SHARED_FIELDS)
    assert all(reason for reason in SHARED_FIELDS.values())


def test_allowlist_names_existing_definitions():
    defs, _refs, attrs, _reads = _scan()
    qualnames = {qualname for _module, qualname, _a, _b in defs + attrs}
    assert set(ALLOWED) <= qualnames, sorted(set(ALLOWED) - qualnames)
    assert all(reason for reason in ALLOWED.values())


def _stale_benchmark_reasons(entries):
    """The qualified names among entries whose reason names a benchmark
    file (benchmark/child.py, or a bare selfcheck.py after it) that does
    not carry the definition's short name as a word."""
    out = []
    for qualname, reason in entries.items():
        if "benchmark/" not in reason:
            continue
        short = re.compile(r"\b%s\b" % re.escape(qualname.rsplit(".", 1)[1]))
        for name in re.findall(r"(\w+\.py)\b", reason):
            path = BENCHMARK / name
            if not path.is_file() or not short.search(path.read_text("utf-8")):
                out.append(qualname)
                break
    return out


def test_benchmark_reasons_name_what_the_benchmark_reads():
    assert _stale_benchmark_reasons(ALLOWED) == []
    assert _stale_benchmark_reasons(SHARED) == []
    # a shim the benchmark stopped reading, or a file it does not have
    assert _stale_benchmark_reasons({
        "cli._gone": "benchmark/child.py calls it",
        "cli._table": "benchmark/child.py and missing.py call it",
    }) == ["cli._gone", "cli._table"]
