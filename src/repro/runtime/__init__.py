"""The communicator: executes strategies on the simulated cluster (Sec. V).

This package is the runtime half of AdapCC: transmission contexts with
registered buffers (:mod:`repro.runtime.context`,
:mod:`repro.runtime.buffers`) and the pipelined chunk executor
(:mod:`repro.runtime.executor`) that moves *real numpy payloads* through
the fluid network so collective results are verifiable bit-for-bit.

Every collective starts through :func:`repro.runtime.collectives.launch`
(``launch(topology, strategy, inputs).wait()`` blocks until it is done),
which lowers the strategy into chunk stages once, in
:mod:`repro.runtime.stages` — the lowering the deadlock check and the
race detector read too.
"""

from repro.runtime.collectives import CollectiveResult, PendingCollective, launch
from repro.runtime.buffers import BufferRegistry, GpuBuffers
from repro.runtime.context import ContextManager, TransmissionContext

__all__ = [
    "BufferRegistry",
    "CollectiveResult",
    "PendingCollective",
    "ContextManager",
    "GpuBuffers",
    "TransmissionContext",
    "launch",
]
