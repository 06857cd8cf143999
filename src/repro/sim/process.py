"""Generator-based processes for the discrete-event kernel.

A process wraps a Python generator.  The generator yields :class:`Event`
objects; the process suspends until the yielded event triggers, then resumes
with the event's value (or has the event's exception thrown into it).  The
process object is itself an event that triggers when the generator returns
(success, with the generator's return value) or raises (failure).
"""

from __future__ import annotations

import types
import typing
from typing import Any, Generator, Optional

from repro.errors import ScheduleError
from repro.sim.events import Event, Interrupt, PENDING, URGENT, _Callback

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

ProcGen = Generator[Event, Any, Any]


class Process(Event):
    """A running generator, resumable on events, interruptible."""

    __slots__ = ("_generator", "_target", "_name", "_resume")

    def __init__(
        self, kernel: "Kernel", generator: ProcGen, name: Any = None
    ) -> None:
        if not isinstance(generator, types.GeneratorType):
            raise ScheduleError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(kernel)
        self._generator = generator
        self._target: Optional[Event] = None
        # ``name`` may be a tuple of parts, joined lazily by the ``name``
        # property: processes are spawned on the RPC hot path and most
        # names are only ever read in error messages and repr.
        self._name = name if name is not None else generator.__name__
        # One bound method reused for every wait: the resume trampoline is
        # registered as a callback tens of thousands of times per run, and
        # each implicit ``self._resume`` lookup would mint a fresh bound
        # method object.  The cached bound method references the process,
        # so this is a reference cycle: _finish() breaks it on every
        # terminal path, letting a finished process be freed by reference
        # counting instead of waiting for the cyclic GC.
        self._resume = self._do_resume
        # Kick the generator off from the kernel loop, never synchronously
        # inside the caller.  A scheduled callback with a None outcome is
        # schedule-identical to the old already-succeeded init event (one
        # sequence number, URGENT priority) without the Event machinery.
        kernel._seq = seq = kernel._seq + 1
        kernel._queue.push((kernel.now, URGENT, seq, _Callback(self._resume, None)))

    @property
    def name(self) -> str:
        """Process name (joins lazily when spawned with name parts)."""
        n = self._name
        if type(n) is tuple:
            n = self._name = "".join(n)
        return n

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is a no-op, which makes shutdown
        paths (e.g. crashing a node whose workers are mid-exit) simple.
        """
        if self.triggered:
            return
        # Detach from whatever the process was waiting on; the wait event may
        # still trigger later, but it must not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.kernel)
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause), priority=URGENT)

    def _do_resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self._value is not PENDING:
            # A stray wakeup after termination: an interrupt can land while
            # the process had already advanced onto a new wait target whose
            # event then fires too.  The interrupt consumed the process;
            # drop the late resume.
            if event is not None and not event._ok:
                event._defused = True
            return
        self._target = None
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event is None:
                    nxt = send(None)
                elif event._ok:
                    nxt = send(event._value)
                else:
                    event._defused = True
                    nxt = generator.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:  # generator died
                if type(exc) is Interrupt:
                    # A crash signal, not a bug.  Its traceback would hold
                    # this frame and, through f_back, the kernel loop's:
                    # a cycle back to the process that nobody reads.
                    exc.__traceback__ = None
                self._finish(False, exc)
                return

            try:
                callbacks = nxt.callbacks
            except AttributeError:
                self._finish(False, ScheduleError(
                    f"process {self.name!r} yielded non-event {nxt!r}"
                ))
                return

            if callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = nxt
                continue
            callbacks.append(self._resume)
            self._target = nxt
            return

    def _finish(self, ok: bool, value: Any) -> None:
        """Trigger the process event, first dropping the generator and the
        resume trampoline.

        Nothing reads either again: a late wakeup and :meth:`interrupt`
        both return early on a triggered process.  From here on only
        waiters and the owning node's process table hold the process, and
        they let go once the event is processed.
        """
        self._generator = self._resume = None
        if ok:
            self.succeed(value)
        else:
            self.fail(value)
            self.kernel._note_process_failure(self, value)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("done" if self.ok else "failed")
        return f"<Process {self.name} {state}>"
