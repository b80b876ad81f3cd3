"""REE CPU scheduler: time-sliced threads on the little cluster.

The evaluation pins REE background applications to the little cores
(§7 "Models and deployment"); this scheduler models them: a round-robin,
time-sliced run queue over ``n_cores`` identical cores.  TA shadow
threads (§3.2) are ordinary REE threads here — when one is dispatched it
"enters" the TEE for its slice, which is exactly why the paper keeps
synchronization state in the TEE: this scheduler is free to run shadow
threads in any order (including maliciously, see
:meth:`REEScheduler.set_malicious_order`).

Threads are generators that yield ``('compute', seconds)`` work items or
simulator events (blocking I/O); the scheduler charges compute against
the thread's core occupancy in slices.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional

from ..errors import ConfigurationError
from ..sim import Event, Simulator

__all__ = ["REEThread", "REEScheduler"]


class REEThread:
    """One schedulable thread."""

    def __init__(self, thread_id: int, name: str, body: Generator):
        self.thread_id = thread_id
        self.name = name
        self.body = body
        self.finished = False
        self.cpu_time = 0.0
        self.wait_time = 0.0
        self.result = None
        self._pending_compute = 0.0
        self._blocked_on: Optional[Event] = None
        self.done = None  # Event, set by the scheduler

    @property
    def runnable(self) -> bool:
        return not self.finished and self._blocked_on is None


class REEScheduler:
    """Round-robin, time-sliced thread scheduler over ``n_cores``."""

    def __init__(self, sim: Simulator, n_cores: int = 4, time_slice: float = 4e-3):
        if n_cores < 1 or time_slice <= 0:
            raise ConfigurationError("bad scheduler geometry")
        self.sim = sim
        self.n_cores = n_cores
        self.time_slice = time_slice
        self._threads: Dict[int, REEThread] = {}
        self._run_queue: Deque[int] = deque()
        self._ids = itertools.count(1)
        self._wake: Optional[Event] = None
        self.context_switches = 0
        #: malicious ordering hook: (run_queue) -> reordered run_queue.
        self._order_hook: Optional[Callable[[List[int]], List[int]]] = None
        for core in range(n_cores):
            sim.process(self._core_loop(core), name="ree-core-%d" % core)

    # ------------------------------------------------------------------
    def spawn(self, body: Generator, name: str = "thread") -> REEThread:
        """Add a thread; returns it (``thread.done`` triggers on exit)."""
        thread = REEThread(next(self._ids), name, body)
        thread.done = self.sim.event()
        self._threads[thread.thread_id] = thread
        self._enqueue(thread)
        return thread

    def set_malicious_order(self, hook: Optional[Callable[[List[int]], List[int]]]) -> None:
        """Let an attacker permute the run queue at every dispatch."""
        self._order_hook = hook

    def _enqueue(self, thread: REEThread) -> None:
        self._run_queue.append(thread.thread_id)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _next_thread(self) -> Optional[REEThread]:
        if self._order_hook is not None and len(self._run_queue) > 1:
            reordered = self._order_hook(list(self._run_queue))
            if sorted(reordered) != sorted(self._run_queue):
                raise ConfigurationError("order hook must permute, not edit")
            self._run_queue = deque(reordered)
        while self._run_queue:
            thread = self._threads.get(self._run_queue.popleft())
            if thread is not None and thread.runnable:
                return thread
        return None

    # ------------------------------------------------------------------
    def _core_loop(self, core: int):
        while True:
            thread = self._next_thread()
            if thread is None:
                self._wake = self.sim.event()
                yield self._wake
                self._wake = None
                continue
            self.context_switches += 1
            yield from self._run_slice(thread)

    def _run_slice(self, thread: REEThread):
        """Run one time slice of ``thread`` on the calling core."""
        budget = self.time_slice
        while budget > 0 and not thread.finished:
            if thread._pending_compute > 0:
                step = min(budget, thread._pending_compute)
                yield self.sim.timeout(step)
                thread.cpu_time += step
                thread._pending_compute -= step
                budget -= step
                continue
            # Pull the next item from the thread body.
            try:
                item = thread.body.send(None)
            except StopIteration as stop:
                thread.finished = True
                thread.result = getattr(stop, "value", None)
                thread.done.succeed(thread.result)
                return
            if isinstance(item, tuple) and item and item[0] == "compute":
                thread._pending_compute = float(item[1])
            elif isinstance(item, Event):
                # Blocking wait: the thread leaves the run queue until
                # the event triggers, then re-enters.
                thread._blocked_on = item
                waited_from = self.sim.now

                def unblock(_event, thread=thread, waited_from=waited_from):
                    thread._blocked_on = None
                    thread.wait_time += self.sim.now - waited_from
                    self._enqueue(thread)

                item.add_callback(unblock)
                return
            else:
                raise ConfigurationError(
                    "thread %r yielded %r (need ('compute', s) or Event)"
                    % (thread.name, item)
                )
        if not thread.finished:
            self._enqueue(thread)  # slice expired: back of the queue
