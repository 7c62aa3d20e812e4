"""Parameter sensitivity: which hardware knob matters most?

The paper's conclusion lists the improvements it *expects* would close
the gap with x86 (FP64 vectors, wider registers, more L1, more memory
controllers per NUMA region). This module quantifies that intuition:
perturb one machine parameter at a time by a fixed relative amount and
report the relative change in predicted whole-suite time — an elasticity
per knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.machine.cache import CacheHierarchy
from repro.machine.cpu import CPUModel
from repro.suite.config import RunConfig
from repro.suite.runner import run_suites
from repro.util.errors import ConfigError

#: Relative parameter bump applied by default (+25%).
DEFAULT_BUMP = 0.25


def _scale_clock(cpu: CPUModel, factor: float) -> CPUModel:
    return replace(
        cpu, core=replace(cpu.core, clock_hz=cpu.core.clock_hz * factor)
    )


def _scale_dram_bandwidth(cpu: CPUModel, factor: float) -> CPUModel:
    mem = cpu.memory
    return replace(
        cpu,
        memory=replace(
            mem,
            channel_bandwidth_bytes=mem.channel_bandwidth_bytes * factor,
            per_core_bandwidth_bytes=mem.per_core_bandwidth_bytes * factor,
        ),
    )


def _scale_llc_capacity(cpu: CPUModel, factor: float) -> CPUModel:
    levels = list(cpu.caches.levels)
    llc = levels[-1]
    new_capacity = int(llc.capacity_bytes * factor)
    # Keep the capacity a valid multiple of line * associativity.
    quantum = llc.line_bytes * llc.associativity
    new_capacity = max(quantum, (new_capacity // quantum) * quantum)
    levels[-1] = replace(llc, capacity_bytes=new_capacity)
    return replace(cpu, caches=CacheHierarchy(levels=tuple(levels)))


def _scale_cache_bandwidth(cpu: CPUModel, factor: float) -> CPUModel:
    levels = [
        replace(
            lvl,
            bandwidth_bytes_per_cycle=lvl.bandwidth_bytes_per_cycle
            * factor,
            aggregate_bandwidth_bytes_per_cycle=(
                None
                if lvl.aggregate_bandwidth_bytes_per_cycle is None
                else lvl.aggregate_bandwidth_bytes_per_cycle * factor
            ),
        )
        for lvl in cpu.caches.levels
    ]
    return replace(cpu, caches=CacheHierarchy(levels=tuple(levels)))


def _scale_fork_join(cpu: CPUModel, factor: float) -> CPUModel:
    return replace(cpu, fork_join_ns=cpu.fork_join_ns * factor)


#: The tunable knobs, in report order.
KNOBS: dict[str, Callable[[CPUModel, float], CPUModel]] = {
    "core clock": _scale_clock,
    "DRAM bandwidth": _scale_dram_bandwidth,
    "last-level cache capacity": _scale_llc_capacity,
    "cache bandwidth": _scale_cache_bandwidth,
    "fork-join cost": _scale_fork_join,
}


@dataclass(frozen=True)
class Sensitivity:
    """Elasticity of suite time to one parameter.

    ``elasticity`` = (relative time change) / (relative parameter
    change); −1.0 means a 25% faster clock gives 25% less time
    (perfectly clock-bound), 0 means the knob is irrelevant at this
    configuration. Positive values appear for cost knobs (fork-join).
    """

    knob: str
    baseline_seconds: float
    bumped_seconds: float
    bump: float

    @property
    def elasticity(self) -> float:
        rel_change = (
            self.bumped_seconds - self.baseline_seconds
        ) / self.baseline_seconds
        return rel_change / self.bump


def sensitivities(
    cpu: CPUModel,
    config: RunConfig,
    bump: float = DEFAULT_BUMP,
) -> list[Sensitivity]:
    """Compute the elasticity of total suite time to each knob."""
    if bump <= 0:
        raise ConfigError("bump must be positive")
    baseline, *bumped = run_suites(
        [(cpu, config)]
        + [(mutate(cpu, 1.0 + bump), config) for mutate in KNOBS.values()]
    )
    return [
        Sensitivity(
            knob=knob,
            baseline_seconds=baseline.total_seconds(),
            bumped_seconds=result.total_seconds(),
            bump=bump,
        )
        for knob, result in zip(KNOBS, bumped)
    ]


def render_sensitivities(
    cpu: CPUModel, config: RunConfig, bump: float = DEFAULT_BUMP
) -> str:
    """Table rendering for the CLI."""
    from repro.util.tables import render_table

    results = sensitivities(cpu, config, bump)
    rows = [
        (
            s.knob,
            f"{s.elasticity:+.3f}",
            f"{(s.bumped_seconds / s.baseline_seconds - 1) * 100:+.1f}%",
        )
        for s in sorted(results, key=lambda s: s.elasticity)
    ]
    return render_table(
        ("knob (+{:.0%})".format(bump), "elasticity", "suite time"),
        rows,
        title=(
            f"{cpu.name}: parameter sensitivity at "
            f"{config.threads} thread(s), {config.precision.label}"
        ),
    )
