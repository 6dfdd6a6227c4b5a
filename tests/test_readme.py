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


def _validation_table():
    # Rows of the table in README's Validation section: entry (the first
    # code span of the first cell), rule, bound, error (the first code span
    # of the last cell).
    section = README.read_text().split("## Validation")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            entry, error = (re.search(r"`([^`]+)`", cells[i]).group(1) for i in (0, 3))
            assert entry not in rows, entry
            rows[entry] = (cells[1], cells[2], error)
    return rows


def _bound_words(message):
    # "batch_size must be at least 2, got 1" -> "at least 2"
    if message is None:
        return "none"
    return re.search(r"(?:must be|must lie|need) (.+?), got", message).group(1)


def test_readme_validation_table_matches_the_rule_tables():
    # The README's table names the entries the rule tests run, each with
    # their rule, the words of its bound and its error type, so it cannot
    # drift from the rules.
    from test_errors import BOOL_ENTRIES, INTEGER_ENTRIES, REAL_ENTRIES

    expected = {}
    for rule, table in (("integer", INTEGER_ENTRIES), ("real", REAL_ENTRIES)):
        for entry, (_, field, _, _, below_message) in table.items():
            expected[entry] = (rule, _bound_words(below_message),
                               "ValueError" if field is None else "FieldError")
    for entry, (_, field) in BOOL_ENTRIES.items():
        expected[entry] = ("bool", "none", "ValueError" if field is None else "FieldError")
    assert _validation_table() == expected
