"""Common infrastructure for the simulated legacy applications."""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..x86 import Emulator, Memory, Program

#: Process-wide count of application launches under the emulator.  Every
#: ``Application.run`` goes through :meth:`Application._new_emulator`, so this
#: counts exactly the instrumented program runs the paper's workflow pays for
#: — the artifact-store benchmarks assert a warm lift leaves it untouched.
_run_counter = 0


def app_run_count() -> int:
    """Total application runs (instrumented or not) since process start."""
    return _run_counter


def _count_run() -> None:
    global _run_counter
    _run_counter += 1


def data_digest(*arrays: np.ndarray) -> str:
    """A short content hash of input data arrays, for artifact-store keys."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class KnownDataArray:
    """A piece of user-supplied (or user-captured) data Helium may search for.

    ``array`` is a 2-D byte matrix (rows x row_bytes) for images, or a 1-D
    array for linear data.  ``channels`` records how many interleaved channels
    one pixel spans so dimensionality inference can report a 3-D buffer for
    interleaved images (paper section 4.3).
    """

    name: str
    array: np.ndarray
    role: str                      # "input" or "output"
    channels: int = 1
    element_size: int = 1


@dataclass
class KnownData:
    """The input/output data available for dimensionality inference."""

    inputs: list[KnownDataArray] = field(default_factory=list)
    outputs: list[KnownDataArray] = field(default_factory=list)


@dataclass
class AppRunResult:
    """The artifacts of one program run under instrumentation."""

    app_name: str
    filter_name: Optional[str]
    emulator: Emulator
    memory: Memory
    layout: object
    outputs: dict


class Application:
    """Base class for the simulated applications.

    Subclasses build a :class:`~repro.x86.Program` once (the "installed
    binary") and create a fresh emulator + memory for every run, mirroring how
    the real applications are launched repeatedly during Helium's workflow.
    """

    name = "app"

    def __init__(self) -> None:
        self._program: Program | None = None

    # -- to be provided by subclasses ---------------------------------------

    def build_program(self) -> Program:
        raise NotImplementedError

    def filters(self) -> list[str]:
        raise NotImplementedError

    def run(self, filter_name: Optional[str] = None, tools: Sequence = (),
            intercept_cpuid: bool = True, seed: int = 0) -> AppRunResult:
        """Launch the application once (optionally under instrumentation).

        ``seed`` parameterizes every per-run varying detail (currently the
        background housekeeping scratch data), so two runs of the same app
        with the same filter and seed are bit-identical — the property the
        artifact store's (app, filter, seed) keys rely on.
        """
        raise NotImplementedError

    def known_data(self, filter_name: str, run) -> Optional[KnownData]:
        """Input/output data available for this filter, or ``None``.

        ``run`` is the trace run's :class:`AppRunResult` (or its serialized
        :class:`~repro.core.stages.TraceRunSnapshot` on a store-backed lift);
        implementations may only rely on its ``outputs`` mapping.
        """
        return None

    def data_size_estimate(self, filter_name: str) -> int:
        """Estimated size of the data the kernel processes, in bytes."""
        raise NotImplementedError

    def fingerprint(self) -> dict:
        """Identity + configuration of this app instance, for artifact keys.

        Must capture everything that can change what a lift observes: the
        program the app builds and the data it processes.  Subclasses extend
        the base dict with their geometry and a content hash of their data.
        """
        return {"app": self.name}

    # -- shared helpers ------------------------------------------------------

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = self.build_program()
        return self._program

    def _new_emulator(self, tools: Sequence, intercept_cpuid: bool) -> Emulator:
        _count_run()
        emulator = Emulator(self.program, Memory())
        emulator.cpuid_intercepted = intercept_cpuid
        for tool in tools:
            emulator.attach(tool)
        return emulator
