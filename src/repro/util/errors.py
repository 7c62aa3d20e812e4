"""Exception hierarchy for the repro package.

Every error raised intentionally by this package derives from
:class:`ReproError` so callers can catch package failures without also
swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations

import operator


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid run configuration, machine description or experiment
    parameter was supplied (e.g. more threads than cores, a precision the
    kernel does not support, an unknown placement policy)."""


class SimulationError(ReproError):
    """The performance model reached an inconsistent state (e.g. negative
    predicted time, empty thread chunking). Indicates a bug or a machine
    description violating model invariants."""


class TransientError(ReproError):
    """A failure expected to clear on retry (flaky early-silicon run,
    injected chaos fault at the ``run`` site). The resilient runner's
    retry policy exists for exactly this class of error."""


class CheckpointError(ConfigError):
    """A sweep checkpoint file does not match the sweep being resumed
    (wrong grid hash, unreadable header, incompatible version)."""


class IsaError(ReproError):
    """Assembly could not be parsed or translated (unknown mnemonic,
    malformed operands, unsupported RVV construct)."""


class CompilationError(ReproError):
    """The compiler model was asked something it cannot answer (unknown
    kernel IR construct, incompatible target/ISA combination)."""


def as_int(name: str, value: object) -> int:
    """``value`` as a Python int, for a parameter that counts something.

    Integer types (NumPy's included) convert through
    :func:`operator.index`. Bools, floats (even integral ones such as
    ``2.0``) and strings raise :class:`ConfigError` naming ``name``.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an int, got {value!r}")
