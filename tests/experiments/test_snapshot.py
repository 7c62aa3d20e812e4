"""Full-fidelity guard: the pinned experiment renderings, byte for byte.

``results/experiments_snapshot.txt`` pins the 18 experiments the
reproduction publishes (the paper's tables and figures, the ablations,
the extensions and the conclusions) as rendered with the default run
configuration: 5-run averages under sigma-0.02 lognormal noise. The
other experiment tests run ``fast=True`` (one noise-free run), so this
is the tier-1 test that exercises seeded noise averaging end to end.
"""

from pathlib import Path

import pytest

from repro.experiments import ABLATIONS, ALL_EXPERIMENTS, EXPERIMENTS

SNAPSHOT = (
    Path(__file__).resolve().parents[2] / "results"
    / "experiments_snapshot.txt"
)

#: Snapshot order: the sequence its header names for regeneration
#: (``experiment all``, ``ablations``, then the three single ids).
SNAPSHOT_EXPERIMENTS = (
    *EXPERIMENTS,
    *ABLATIONS,
    "extension_mpi",
    "extension_yardsticks",
    "conclusions",
)


def _sections(text: str) -> list[str]:
    """Every rendering in the snapshot, in file order: a title line
    underlined by ``=`` of the same length, up to the blank lines that
    separate renderings."""
    lines = text.split("\n")
    starts = [
        i for i in range(len(lines) - 1)
        if lines[i] and lines[i + 1] == "=" * len(lines[i])
    ]
    return [
        "\n".join(lines[start:end]).rstrip("\n")
        for start, end in zip(starts, starts[1:] + [len(lines)])
    ]


@pytest.fixture(scope="module")
def sections() -> dict[str, str]:
    found = _sections(SNAPSHOT.read_text(encoding="utf-8"))
    assert len(found) == len(SNAPSHOT_EXPERIMENTS)
    return dict(zip(SNAPSHOT_EXPERIMENTS, found))


def test_snapshot_covers_the_published_experiments():
    assert len(SNAPSHOT_EXPERIMENTS) == 18
    assert set(SNAPSHOT_EXPERIMENTS) <= set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", SNAPSHOT_EXPERIMENTS)
def test_rendering_matches_snapshot(name, sections):
    assert ALL_EXPERIMENTS[name]().render() == sections[name]
