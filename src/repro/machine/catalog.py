"""The seven CPUs the paper measures, served from the data registry.

The calibrated parameters live only in the schema-validated JSON
documents under ``repro/registry/data/machines/`` (one document per
machine; see ``docs/REGISTRY.md``, and ``docs/MODEL.md`` §4 for why each
fitted value is what it is). Each factory here is a thin lookup into
:func:`repro.registry.default_registry`, so a catalog CPU and its
registry-loaded twin share one ``machine_digest`` and therefore the
same :mod:`repro.store` artifacts; the digests are pinned by test.

The registry caches parsed documents but constructs per call, so the
factories keep returning fresh immutable instances — callers may use
them as dictionary keys and compare by value, as before.
"""

from __future__ import annotations

from repro.machine.cpu import CPUModel

__all__ = [
    "sg2042",
    "visionfive_v2",
    "visionfive_v1",
    "amd_rome",
    "intel_broadwell",
    "intel_icelake",
    "intel_sandybridge",
    "all_cpus",
    "x86_cpus",
    "riscv_cpus",
]


def _lookup(name: str) -> CPUModel:
    # Imported lazily: the registry validates machine documents through
    # repro.machine.serialize, which imports this package.
    from repro.registry import default_registry

    return default_registry().machine(name)


def sg2042() -> CPUModel:
    """Sophon SG2042: 64 XuanTie C920 cores @ 2 GHz, RVV v0.7.1."""
    return _lookup("sg2042")


def visionfive_v2() -> CPUModel:
    """StarFive VisionFive V2 (JH7110): 4 SiFive U74 cores, no RVV."""
    return _lookup("visionfive_v2")


def visionfive_v1() -> CPUModel:
    """StarFive VisionFive V1 (JH7100): 2 SiFive U74 cores."""
    return _lookup("visionfive_v1")


def amd_rome() -> CPUModel:
    """AMD Rome EPYC 7742 (ARCHER2): 64 Zen 2 cores, AVX2."""
    return _lookup("amd_rome")


def intel_broadwell() -> CPUModel:
    """Intel Broadwell Xeon E5-2695 v4 (Cirrus): 18 cores, AVX2."""
    return _lookup("intel_broadwell")


def intel_icelake() -> CPUModel:
    """Intel Icelake Xeon 6330: 28 cores, AVX-512."""
    return _lookup("intel_icelake")


def intel_sandybridge() -> CPUModel:
    """Intel Sandybridge Xeon E5-2609: 4 cores, AVX without FMA."""
    return _lookup("intel_sandybridge")


def riscv_cpus() -> dict[str, CPUModel]:
    """The RISC-V platforms of Section 3.1, keyed by short name."""
    return {
        "sg2042": sg2042(),
        "visionfive_v2": visionfive_v2(),
        "visionfive_v1": visionfive_v1(),
    }


def x86_cpus() -> dict[str, CPUModel]:
    """The x86 comparison platforms of Table 4, keyed by short name."""
    return {
        "amd_rome": amd_rome(),
        "intel_broadwell": intel_broadwell(),
        "intel_icelake": intel_icelake(),
        "intel_sandybridge": intel_sandybridge(),
    }


def all_cpus() -> dict[str, CPUModel]:
    """Every CPU in the *paper's* study, keyed by short name.

    Registry-only machines added by the sequels (``sophon_sg2044``,
    ``sg2042_2s``) are deliberately absent — the paper's tables stay
    seven machines wide. Use ``default_registry().machines()`` for the
    full set.
    """
    cpus = riscv_cpus()
    cpus.update(x86_cpus())
    return cpus
