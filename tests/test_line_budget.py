"""Every name `src/latticelab` defines has a caller (ROADMAP item 18).

A module-level function or class, or a method whose name is not a dunder,
is reached when its name appears as an identifier (a name, an attribute or
an imported name) somewhere in `src/latticelab` outside its own
definition, or anywhere in `tests/test_acceptance.py`.  A name reached
neither way is listed in `UNREACHED` with the reason it stays.  The match
is by identifier, not by resolving what it refers to: a name that collides
with another identifier, such as `SeededRng.bits` with the local `bits`
of other functions, passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticelab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

_CMD = "`cli.main` looks the verb's function up by name"
_STR = "the str form of the streamed codec entry, kept for tests"
_SPANS = "labbench/spans.py wraps or reads it"
UNREACHED = {
    **{f"cli.cmd_{verb}": _CMD for verb in ("keygen", "encrypt", "decrypt", "sign", "verify",
                                            "scan", "attack", "smear", "bgv_eval", "sample",
                                            "bench")},
    "fileio.dump_record": _STR,
    "fileio.load_record": _STR,
    "gaussian.sample_int": _SPANS,
    "gaussian.sample_error_vector": _SPANS,
    "polyring.is_totally_split": _SPANS,
    "polyring.RingParams.int64_safe": _SPANS,
    "polyring.RingElement.centered": _SPANS,
    "rng.SeededRng.uniform_mod": _SPANS,
    "numberfield.canonical_embed": "ROADMAP item 15's cyclotomic geometry replaces it",
    "rng.SeededRng._buf": "tests/test_rng.py reads it as the stream's state oracle",
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(tree):
    """(identifier, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _definitions(module, tree):
    """(qualified name, name, first line, last line) of each module-level
    function and class and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEF):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, _DEF) and not (m.name.startswith("__")
                                                    and m.name.endswith("__")):
                        yield (f"{module}.{node.name}.{m.name}", m.name, m.lineno,
                               m.end_lineno)


def unreached() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {}  # identifier -> its (module, line) in src/
    for module, tree in trees.items():
        for ident, line in _identifiers(tree):
            uses.setdefault(ident, []).append((module, line))
    acceptance = {ident for ident, _ in _identifiers(ast.parse(ACCEPTANCE.read_text()))}
    return {qualname for module, tree in trees.items()
            for qualname, name, first, last in _definitions(module, tree)
            if name not in acceptance and all(m == module and first <= line <= last
                                              for m, line in uses.get(name, ()))}


def test_every_src_name_has_a_caller_or_a_listed_reason():
    found = unreached()
    assert not found - UNREACHED.keys(), (
        f"no caller in src/ or test_acceptance.py: {sorted(found - UNREACHED.keys())}")
    assert not UNREACHED.keys() - found, (
        f"stale UNREACHED entries, gone or now called: {sorted(UNREACHED.keys() - found)}")
