"""The README's account of the config schema matches expcli's, and every
exported name has a caller outside the tests."""

import ast
import re
from pathlib import Path

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


def test_every_exported_name_has_a_caller_beyond_the_tests():
    # a public name only its own tests call is dead weight: each name the
    # package exports must appear in src/ (its def or class line and the
    # package's import list aside), demos/, perfbench/ or the README
    src = ROOT / "src" / "spherecodes"
    init = ast.parse((src / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    texts = [p.read_text() for p in src.glob("*.py") if p.name != "__init__.py"]
    texts += [p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).iterdir()) if p.is_file()]
    texts.append(README)
    corpus = "\n".join(texts)

    def used(name):
        defined = re.compile(rf"^\s*(def|class) {name}\b")
        return any(
            re.search(rf"\b{name}\b", line) and not defined.match(line) for line in corpus.splitlines()
        )

    assert sorted(n for n in exported if not used(n)) == []
