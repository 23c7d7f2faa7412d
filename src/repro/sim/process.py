"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield`` hands the kernel
an :class:`~repro.sim.event.Event`; the process sleeps until that event fires
and is resumed with the event's value (or the event's exception thrown into
the generator, letting process code use ordinary ``try``/``except``).

A process is itself an event that fires when the generator returns, so
processes can wait on each other (fork/join) by yielding the child process.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class Process(Event):
    """A running simulation process (also usable as a join event)."""

    __slots__ = ("generator", "_target")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: The event this process currently waits on (None when runnable).
        self._target: Optional[Event] = None
        # Kick the process off via an immediately-triggered init event so its
        # first slice runs from the kernel loop, not from the constructor.
        init = Event(env, name=f"init:{self.name}")
        init.callbacks = self._resume  # sole subscriber — no list needed
        init._ok = True
        init._value = None
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def _resume(self, event: Event) -> None:
        """Advance the generator by one slice (kernel callback).

        Hot path: runs once per yield across every process in the
        simulation.
        """
        self._target = None
        try:
            if event.ok:
                result = self.generator.send(event.value)
            else:
                event.defuse()
                result = self.generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(result, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {result!r}; processes must "
                    "yield Event instances (timeout(), another process, ...)"
                )
            )
            return
        if result.env is not self.env:
            self.fail(SimulationError("yielded an event from a different Environment"))
            return
        self._target = result
        result.subscribe(self._resume)
