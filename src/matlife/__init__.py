"""Matrix lifetime distributions and survival regression."""

__version__ = "0.1.0"

from . import (  # noqa: F401
    cli,
    diagnostics,
    em,
    exceptions,
    inhomogeneity,
    io,
    mortality,
    phasetype,
    regression,
)
