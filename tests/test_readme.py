"""The README's account of the config schema and of the dependencies matches
the code, every exported name has a caller outside the tests, and only
sphere.share_out starts threads."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

from spherecodes.expcli import _KIND_KEYS, _LEARNER_KEYS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_kind_key_table_matches_the_schema():
    rows = re.findall(r"^\| `(\w+)` \| `([\w ]+)` \|$", README, flags=re.MULTILINE)
    assert {kind: set(keys.split()) for kind, keys in rows} == _KIND_KEYS


def test_readme_net_stats_learner_keys_match_the_schema():
    text = " ".join(README.split())
    keys = re.search(r"a `net_stats` config's takes only `([\w ]+)`", text)
    assert keys is not None, "README no longer states the net_stats learner keys"
    assert set(keys.group(1).split()) == _LEARNER_KEYS["net_stats"]


def code_names(source: str) -> set[str]:
    """The NAME tokens of Python source, so docstrings and comments do not
    count, without the name each def or class statement defines."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.NAME]
    return {t.string for prev, t in zip([None, *tokens], tokens) if prev is None or prev.string not in ("def", "class")}


def test_every_exported_name_has_a_caller_beyond_the_tests():
    # a public name only its own tests call is dead weight: each name the
    # package exports must be used as code in src/ (the package's import
    # list aside), demos/ or perfbench/, or be named in the README or a
    # demo shell script
    src = ROOT / "src" / "spherecodes"
    init = ast.parse((src / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    files += [p for d in ("demos", "perfbench") for p in sorted((ROOT / d).iterdir()) if p.is_file()]
    names = set().union(*(code_names(p.read_text()) for p in files if p.suffix == ".py"))
    prose = "\n".join([README, *(p.read_text() for p in files if p.suffix == ".sh")])
    used = {n for n in exported if n in names or re.search(rf"\b{n}\b", prose)}
    assert sorted(exported - used) == []


def test_dependencies_match_the_imports_pyproject_and_readme():
    # every third-party module the package imports, anywhere in a module
    # (inside functions too), is a declared dependency and is named on the
    # README's dependency line, and nothing else is. tomllib is in the
    # standard library from Python 3.11; the package runs on 3.10
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "spherecodes").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names)
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep).group(0) for dep in pyproject["project"]["dependencies"]}
    line = re.search(r"^Dependencies: ([\w, ]+)\.", README, flags=re.MULTILINE)
    assert line is not None, "README no longer has a Dependencies: line"
    assert imported == declared == set(line.group(1).split(", "))


def test_only_sphere_names_a_thread_or_a_thread_pool():
    # sphere.share_out is the one owner of the cores: no other module of
    # the package names concurrent.futures, ThreadPoolExecutor, _thread or
    # threading.Thread, however it is imported or spelled
    found = {}
    for path in sorted((ROOT / "src" / "spherecodes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in ("concurrent", "_thread") or "ThreadPoolExecutor" in name or name == "threading.Thread":
                    found.setdefault(path.name, set()).add(name)
    assert found == {"sphere.py": {"threading.Thread"}}
