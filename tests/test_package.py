import re
from pathlib import Path

import acmil
from acmil import losses, mil, optim
from acmil.data import DATASET_VERSION
from acmil.model import CHECKPOINT_VERSION, ModelDims, init_model
from acmil.rng import Rng


def test_every_exported_name_resolves_once():
    assert len(set(acmil.__all__)) == len(acmil.__all__)
    missing = [name for name in acmil.__all__ if not hasattr(acmil, name)]
    assert missing == []


def readme_section(title: str) -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index(f"\n## {title}\n"):]
    return section[:section.index("\n## ", 1)]


def test_the_readme_states_the_format_versions_the_code_reads():
    section = readme_section("Data formats")
    stated = dict(re.findall(r"A (dataset|checkpoint)[^(.]*\(`format_version` (\d+)\)", section))
    assert stated == {"dataset": str(DATASET_VERSION), "checkpoint": str(CHECKPOINT_VERSION)}


def test_the_readme_states_the_gate_sizes_the_code_uses():
    section = readme_section("Library")
    # "1 MiB (`mil.GATE_BLOCK_VALUES`": a size in bytes, then the constant of float64 values
    stated = {name: int(size) * {"KiB": 2**10, "MiB": 2**20}[unit] for size, unit, name
              in re.findall(r"(\d+) (KiB|MiB)[^`(]*\(`(\w+\.\w+)`", section)}
    assert stated == {"mil.GATE_BLOCK_VALUES": 8 * mil.GATE_BLOCK_VALUES,
                      "optim.EVAL_GATE_VALUES": 8 * optim.EVAL_GATE_VALUES,
                      "losses.GRAD_BLOCK_VALUES": 8 * losses.GRAD_BLOCK_VALUES}
    # at paper dims, M=5 and L=128, a row of all branches' gates is 1280 values
    paper = init_model(ModelDims(1, 1, 128, 5, 2), Rng.stream(0, 0))
    counts = {what: int(n) for n, what in re.findall(
        r"(\d+) (rows|instances) at M=5, L=128", section)}
    assert counts == {"rows": mil.gate_block_values(paper) // 1280,
                      "instances": optim.EVAL_GATE_VALUES // 1280}
    # three rows of gates exceed a block from M·L = 21,846 on
    (over,) = re.findall(r"three rows if M·L is over ([\d,]+)", section)
    assert int(over.replace(",", "")) == mil.GATE_BLOCK_VALUES // 6
