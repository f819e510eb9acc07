import re
from pathlib import Path

import acmil
from acmil.data import DATASET_VERSION
from acmil.model import CHECKPOINT_VERSION


def test_every_exported_name_resolves_once():
    assert len(set(acmil.__all__)) == len(acmil.__all__)
    missing = [name for name in acmil.__all__ if not hasattr(acmil, name)]
    assert missing == []


def test_the_readme_states_the_format_versions_the_code_reads():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("\n## Data formats\n"):]
    section = section[:section.index("\n## ", 1)]
    stated = dict(re.findall(r"A (dataset|checkpoint)[^(.]*\(`format_version` (\d+)\)", section))
    assert stated == {"dataset": str(DATASET_VERSION), "checkpoint": str(CHECKPOINT_VERSION)}
