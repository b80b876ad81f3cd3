"""The NPU device: MMIO-launched jobs, DMA through the TZASC, IRQ on done.

A job's *execution context* is a set of physical memory ranges: register
commands (the job "code"), the I/O page table, and input/output buffers.
Launching is an MMIO operation (TZPC-filtered by the launching master's
world).  During execution the NPU performs real DMA: it reads the command
and input ranges at start and writes a deterministic transform of the
inputs to the output ranges at completion — every transfer filtered by
the TZASC for the device name ``"npu"``.  Completion raises the NPU IRQ
through the GIC, which routes it to whichever world currently owns the
line.

Because input DMA happens at launch and output DMA at completion, the
model faithfully reproduces the attack the paper's switch-ordering rule
defends against: if the TEE driver granted the NPU access to secure
memory while a previously-launched non-secure job was still in flight,
that job's completion DMA could land in secure memory (§4.3, step
ordering).  Tests exercise both the attack and the defense.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..config import NPUSpec
from ..errors import DeviceError, DMAViolation
from ..sim import Event, Simulator
from .common import AddrRange, World
from .gic import GIC
from .memory import PhysicalMemory
from .tzpc import TZPC

__all__ = ["NPUJob", "NPU", "NPU_IRQ", "NPU_DEVICE"]

NPU_IRQ = 64
NPU_DEVICE = "npu"


@dataclass
class NPUJob:
    """An execution context handed to the NPU."""

    duration: float
    commands: AddrRange
    io_pagetable: AddrRange
    inputs: List[AddrRange] = field(default_factory=list)
    outputs: List[AddrRange] = field(default_factory=list)
    tag: object = None
    job_id: int = -1
    #: filled by the device
    launched_at: float = -1.0
    completed_at: float = -1.0
    faulted: Optional[str] = None


class NPU:
    """Single-queue NPU device (one job in flight, as driven by the driver)."""

    def __init__(
        self,
        sim: Simulator,
        spec: NPUSpec,
        memory: PhysicalMemory,
        tzpc: TZPC,
        gic: GIC,
    ):
        self.sim = sim
        self.spec = spec
        self.memory = memory
        self.tzpc = tzpc
        self.gic = gic
        self.name = NPU_DEVICE
        self.irq = NPU_IRQ
        tzpc.register_device(self.name, World.NONSECURE)
        gic.register_line(self.irq, World.NONSECURE)
        self._current: Optional[NPUJob] = None
        self._idle_waiters: List[Event] = []
        self._job_ids = itertools.count(1)
        self.jobs_completed = 0
        self.jobs_faulted = 0
        self.busy_time = 0.0
        self.powered = True

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._current is not None

    def wait_idle(self) -> Event:
        """Event that triggers as soon as no job is in flight."""
        event = self.sim.event()
        if self._current is None:
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event

    def set_power(self, on: bool) -> None:
        if not on and self.busy:
            raise DeviceError("powering off a busy NPU")
        self.powered = on

    # ------------------------------------------------------------------
    def launch(self, world: World, job: NPUJob) -> NPUJob:
        """MMIO kickoff; returns immediately, completion arrives by IRQ.

        Raises synchronously on MMIO denial, power-off, or a busy queue.
        Input-side DMA faults abort the job (recorded in ``job.faulted``)
        rather than raising into the launcher — the real device raises a
        fault IRQ; here the completion IRQ carries the faulted job.
        """
        self.tzpc.check_mmio(self.name, world)
        if not self.powered:
            raise DeviceError("NPU is powered off")
        if self._current is not None:
            raise DeviceError("NPU busy: job %d in flight" % self._current.job_id)
        job.job_id = next(self._job_ids)
        job.launched_at = self.sim.now
        self._current = job
        self.sim.process(self._execute(job), name="npu-job-%d" % job.job_id)
        return job

    def _execute(self, job: NPUJob):
        input_data = b""
        try:
            # Command fetch, page-table walk, and input reads happen up
            # front, through the TZASC as device DMA.
            self.memory.dma_read(job.commands.base, job.commands.size, self.name)
            if not job.io_pagetable.empty:
                self.memory.dma_read(job.io_pagetable.base, job.io_pagetable.size, self.name)
            chunks = []
            for rng in job.inputs:
                chunks.append(self.memory.dma_read(rng.base, rng.size, self.name))
            input_data = b"".join(chunks)
        except DMAViolation as exc:
            job.faulted = "input:%s" % exc
        yield self.sim.timeout(self.spec.job_launch_latency + max(0.0, job.duration))
        self.busy_time += job.duration
        if job.faulted is None:
            try:
                digest = _transform(input_data)
                for rng in job.outputs:
                    self.memory.dma_write(rng.base, _expand(digest, rng.size), self.name)
            except DMAViolation as exc:
                job.faulted = "output:%s" % exc
        job.completed_at = self.sim.now
        self._current = None
        if job.faulted is None:
            self.jobs_completed += 1
        else:
            self.jobs_faulted += 1
        waiters, self._idle_waiters = self._idle_waiters, []
        for event in waiters:
            event.succeed()
        self.gic.raise_irq(self.irq, job)


def _transform(data: bytes) -> bytes:
    return hashlib.sha256(b"npu:" + data).digest()


def _expand(digest: bytes, size: int) -> bytes:
    if size <= 0:
        return b""
    reps = size // len(digest) + 1
    return (digest * reps)[:size]
