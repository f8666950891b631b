"""The README's account of the config schema matches expcli's."""

import re
from pathlib import Path

from spherecodes.expcli import _KIND_KEYS, _LEARNER_KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_kind_key_table_matches_the_schema():
    rows = re.findall(r"^\| `(\w+)` \| `([\w ]+)` \|$", README, flags=re.MULTILINE)
    assert {kind: set(keys.split()) for kind, keys in rows} == _KIND_KEYS


def test_readme_net_stats_learner_keys_match_the_schema():
    text = " ".join(README.split())
    keys = re.search(r"a `net_stats` config's takes only `([\w ]+)`", text)
    assert keys is not None, "README no longer states the net_stats learner keys"
    assert set(keys.group(1).split()) == _LEARNER_KEYS["net_stats"]
