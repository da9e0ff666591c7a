"""Deterministic fault injection for the native pool and simulated cluster.

The parallel formulations of the paper (and PR 1's native worker pool)
assume processors never fail; a production miner cannot.  This module is
the single source of truth for *which* failures happen *when*, so that
every failure mode is reproducible in tests rather than flaky:

* :class:`FaultEvent` — one injected failure (kill a worker at pass k,
  delay its reply, corrupt its count vector, raise inside it, or refuse
  respawn attempts);
* :class:`FaultSpec` — an ordered, immutable collection of events with a
  compact string syntax (``--fault-spec`` on the CLI) and a seeded
  generator of random single-worker failure sequences for property
  tests;
* :class:`FaultRecord` — what a consumer actually observed and did about
  it (the recovery log surfaced by
  :class:`~repro.parallel.native.NativeCountDistribution.fault_log`).

Two layers consume a spec: the real multiprocessing pool in
:mod:`repro.parallel.native` (workers execute their own events; the
parent consults ``refuse-spawn`` budgets while recovering) and the
simulated :class:`~repro.cluster.cluster.VirtualCluster` (per-processor
failure hooks charge detection + recovery time and mark the timeline).

Spec string syntax — comma-separated events::

    kill@W:kK[:before|mid]   worker W exits at pass K (on receipt of the
                             pass request, or after counting but before
                             replying)
    delay@W:kK:SECONDS       worker W stalls its pass-K reply
    corrupt@W:kK             worker W replies with a truncated vector
    error@W:kK               worker W raises inside the counting loop
                             (surfaces as a structured error frame)
    refuse-spawn[:N]         the next N respawn attempts fail (default 1)
    coord-kill:kK            the coordinator SIGKILLs itself right after
                             pass K's checkpoint record is durable (the
                             whole-process failure the checkpoint layer
                             recovers from)

Example: ``"kill@0:k2,delay@1:k3:0.5,refuse-spawn:2"``.

Events are deterministic: a given spec always produces the same failure
sequence, and :meth:`FaultSpec.single_kills` derives a spec from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Tuple

__all__ = ["FaultEvent", "FaultSpec", "FaultRecord", "KINDS", "KILL_WHEN"]

KINDS = ("kill", "delay", "corrupt", "error", "refuse-spawn", "coord-kill")
#: Kinds executed inside a worker process (as opposed to pool-level).
WORKER_KINDS = ("kill", "delay", "corrupt", "error")
KILL_WHEN = ("before", "mid")


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure.

    Attributes:
        kind: one of :data:`KINDS`.
        worker: target worker/processor index (worker kinds only).
        k: pass number the event fires at, ``>= 2`` for worker kinds
           (the pool starts at pass 2 — pass 1 is a serial scan) and
           ``>= 1`` for ``coord-kill`` (pass 1 is checkpointed too).
        when: for ``kill``: ``"before"`` exits on receipt of the pass
            request, ``"mid"`` exits after counting but before replying.
        delay: for ``delay``: seconds to stall the reply.
        count: for ``refuse-spawn``: respawn attempts to refuse.
    """

    kind: str
    worker: int = -1
    k: int = 0
    when: str = "before"
    delay: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            known = ", ".join(repr(k) for k in KINDS)
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of: {known}"
            )
        if self.kind in WORKER_KINDS:
            if self.worker < 0:
                raise ValueError(
                    f"{self.kind} fault needs a worker index >= 0, "
                    f"got {self.worker}"
                )
            if self.k < 2:
                raise ValueError(
                    f"{self.kind} fault needs a pass number k >= 2, "
                    f"got {self.k} (pass 1 never reaches the pool)"
                )
        if self.kind == "coord-kill" and self.k < 1:
            raise ValueError(
                f"coord-kill fault needs a pass number k >= 1, got {self.k}"
            )
        if self.when not in KILL_WHEN:
            raise ValueError(
                f"kill timing must be 'before' or 'mid', got {self.when!r}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.count < 1:
            raise ValueError(f"refusal count must be >= 1, got {self.count}")

    def format(self) -> str:
        """Render this event in the spec string syntax."""
        if self.kind == "refuse-spawn":
            return f"refuse-spawn:{self.count}"
        if self.kind == "coord-kill":
            return f"coord-kill:k{self.k}"
        base = f"{self.kind}@{self.worker}:k{self.k}"
        if self.kind == "kill" and self.when != "before":
            return f"{base}:{self.when}"
        if self.kind == "delay":
            return f"{base}:{self.delay:g}"
        return base


@dataclass(frozen=True)
class FaultRecord:
    """One observed failure and the recovery action taken.

    Attributes:
        k: pass during which the failure was detected.
        worker: index of the worker/processor that failed.
        failure: what was observed — ``"timeout"`` (no reply within the
            recv timeout), ``"died"`` (pipe EOF: crash or kill) or
            ``"corrupt"`` (malformed / wrong-length reply).
        action: how the block was recovered — ``"respawned"`` (fresh
            replacement process), ``"adopted"`` (a surviving worker took
            over the block), ``"inprocess"`` (counted in the parent;
            the degradation floor) or ``"repacked"`` (a worker died
            while adopting; its own pass counts were already collected,
            so nothing is recounted — the next pass simply re-plans the
            grid over the remaining workers).
        attempts: spawn attempts consumed before the action succeeded.
    """

    k: int
    worker: int
    failure: str
    action: str
    attempts: int = 0


def _parse_event(token: str) -> FaultEvent:
    token = token.strip()
    if not token:
        raise ValueError("empty fault event")
    if token.startswith("refuse-spawn"):
        rest = token[len("refuse-spawn"):]
        if rest == "":
            return FaultEvent("refuse-spawn")
        if not rest.startswith(":"):
            raise ValueError(f"malformed fault event {token!r}")
        return FaultEvent("refuse-spawn", count=int(rest[1:]))
    if token.startswith("coord-kill"):
        rest = token[len("coord-kill"):]
        if not rest.startswith(":k"):
            raise ValueError(
                f"malformed fault event {token!r}; expected coord-kill:kN"
            )
        return FaultEvent("coord-kill", k=int(rest[2:]))
    if "@" not in token:
        raise ValueError(
            f"malformed fault event {token!r}; expected kind@worker:kN"
        )
    kind, _, rest = token.partition("@")
    parts = rest.split(":")
    if len(parts) < 2 or not parts[1].startswith("k"):
        raise ValueError(
            f"malformed fault event {token!r}; expected kind@worker:kN"
        )
    worker = int(parts[0])
    k = int(parts[1][1:])
    extra = parts[2] if len(parts) > 2 else None
    if len(parts) > 3:
        raise ValueError(f"malformed fault event {token!r}")
    if kind == "kill":
        return FaultEvent("kill", worker=worker, k=k, when=extra or "before")
    if kind == "delay":
        if extra is None:
            raise ValueError(
                f"delay event {token!r} needs seconds: delay@W:kK:SECONDS"
            )
        return FaultEvent("delay", worker=worker, k=k, delay=float(extra))
    if kind in ("corrupt", "error"):
        if extra is not None:
            raise ValueError(f"{kind} event {token!r} takes no extra field")
        return FaultEvent(kind, worker=worker, k=k)
    known = ", ".join(repr(x) for x in KINDS)
    raise ValueError(f"unknown fault kind {kind!r}; expected one of: {known}")


@dataclass(frozen=True)
class FaultSpec:
    """An immutable, ordered collection of fault events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the comma-separated spec string syntax.

        Raises:
            ValueError: for malformed events or unknown kinds.
        """
        tokens = [t for t in (x.strip() for x in text.split(",")) if t]
        return cls(tuple(_parse_event(t) for t in tokens))

    @classmethod
    def of(cls, spec: "FaultSpec | str | None") -> "FaultSpec | None":
        """Coerce a spec-or-string-or-None into a spec (or ``None``)."""
        if spec is None or isinstance(spec, FaultSpec):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        raise TypeError(
            f"faults must be a FaultSpec, spec string or None, "
            f"got {type(spec).__name__}"
        )

    @classmethod
    def single_kills(
        cls,
        seed: int,
        num_workers: int,
        passes: Iterable[int],
        probability: float = 0.8,
    ) -> "FaultSpec":
        """Seeded random sequence of at-most-one kill per pass.

        For each pass in ``passes`` (each must be >= 2), with
        ``probability`` a uniformly chosen worker is killed, at a
        uniformly chosen point (``before``/``mid``).  Deterministic in
        ``seed`` — the property tests sweep seeds, not reruns.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for k in passes:
            if rng.random() >= probability:
                continue
            events.append(
                FaultEvent(
                    "kill",
                    worker=rng.randrange(num_workers),
                    k=k,
                    when=rng.choice(KILL_WHEN),
                )
            )
        return cls(tuple(events))

    def format(self) -> str:
        """Render back to the spec string syntax (inverse of parse)."""
        return ",".join(event.format() for event in self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def worker_events(self, worker: int) -> List[FaultEvent]:
        """Worker-side events targeting one worker index, in order."""
        return [
            e
            for e in self.events
            if e.kind in WORKER_KINDS and e.worker == worker
        ]

    def refusals(self) -> int:
        """Total respawn attempts the pool must refuse."""
        return sum(e.count for e in self.events if e.kind == "refuse-spawn")

    def coordinator_kills(self) -> frozenset:
        """Passes after which the coordinator SIGKILLs itself."""
        return frozenset(
            e.k for e in self.events if e.kind == "coord-kill"
        )

    def advance(
        self, completed_k: int, refusals_consumed: int = 0
    ) -> "FaultSpec":
        """The spec as seen by a coordinator resuming after pass ``completed_k``.

        Drops every pass-targeted event (worker kinds and
        ``coord-kill``) with ``k <= completed_k`` — those passes are
        already journaled, so their failures must not replay — and
        decrements ``refuse-spawn`` budgets by the refusals the
        interrupted run already consumed (per the checkpoint cursor).
        Resuming under the *same* ``--fault-spec`` therefore continues
        the failure schedule instead of restarting it.
        """
        remaining = max(0, refusals_consumed)
        events: List[FaultEvent] = []
        for event in self.events:
            if event.kind == "refuse-spawn":
                used = min(event.count, remaining)
                remaining -= used
                if event.count > used:
                    events.append(replace(event, count=event.count - used))
            elif event.k > completed_k:
                events.append(event)
        return FaultSpec(tuple(events))

    def failing_at(self, k: int) -> List[int]:
        """Sorted processor indices with a ``kill`` event at pass ``k``.

        This is the view the simulated cluster's per-processor failure
        hook consumes (delay/corrupt/error have no simulated analogue:
        the cost model has no wire to corrupt).
        """
        return sorted(
            {e.worker for e in self.events if e.kind == "kill" and e.k == k}
        )

    def max_pass(self) -> int:
        """Largest pass number any worker event fires at (0 if none)."""
        return max(
            (e.k for e in self.events if e.kind in WORKER_KINDS), default=0
        )
