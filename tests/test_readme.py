import json
import re
from pathlib import Path

import pytest

from rankloss.cli import _parse_compare_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
JSON_BLOCKS = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    # Each block runs on its own, as a reader would paste it.
    exec(compile(source, str(README), "exec"), {})


def test_readme_compare_config_parses():
    # The documented `compare` config passes the schema, and its echo in
    # the manifest parses back to itself.
    (source,) = JSON_BLOCKS
    config, _, _ = _parse_compare_config(json.loads(source), None)
    assert _parse_compare_config(config, None)[0] == config
