"""The cycle engine: demand-driven ticking, channel commits, idle skip.

Two scheduling modes share one code base:

* **Demand-driven** (production): a component is ticked only on cycles
  where it was *woken* -- by a channel delivering tokens or freeing
  space, by a delay-line token maturing (a timer), or by itself
  (``engine.wake(self)``) because it holds in-progress work.  Wall-clock
  cost is proportional to *work*, not cycles x components.  When no
  component is runnable the engine jumps straight to the earliest
  scheduled timer, so idle latency windows cost O(log timers).
* **Legacy** (compatibility): any component that does not declare
  ``demand_driven = True`` forces the seed behaviour -- every component
  is ticked every cycle and idle fast-forward happens only on globally
  inactive cycles.  Simple test harness components keep working
  unmodified, and :class:`LegacyEngine` forces this mode everywhere so
  the two kernels can be compared cycle-for-cycle.

Cycle *results* are identical in both modes: demand scheduling only
skips ticks that are provably no-ops (no visible input tokens, no
freed space, no matured timer, no declared internal work), so the
state trajectory over ``engine.now`` -- and therefore every cycle
count and GTEPS figure -- is bit-identical.  Only the activity
counters (``cycles_simulated``, ``component_ticks``) differ; they are
the measure of the saved work.

On top of demand scheduling sits **macro-tick fusion**
(``REPRO_FUSION``, DESIGN 6.9): when exactly one component is woken
and the stability oracle proves the next cycles are free of timer
maturities, hook points, and cycle-budget edges, the engine offers the
component one ``step_n(engine, budget)`` call that may advance m
provably *silent* cycles in a single batch, then runs a completely
normal tick for the cycle after the batch.  Silent means: the exact
per-cycle state and stat effects, but no channel pushes, no pops from
channels with space watchers, no wakes of other components, and no
hook side effects -- so anything observable happens on the ordinary
per-cycle path and the state trajectory stays bit-identical with
fusion on or off.
"""

import heapq
import os

#: Default cap on the length of one fused run (``REPRO_FUSION=on``).
#: The stability oracle usually clamps far below this; the cap only
#: bounds pathological cases (a component that could run silently
#: forever would otherwise starve the done() check).
FUSION_DEFAULT_CAP = 4096


def fusion_cap_from_env():
    """Parse ``REPRO_FUSION`` into a run-length cap (0 = disabled).

    ``on`` (the default) enables fusion with :data:`FUSION_DEFAULT_CAP`;
    ``off`` disables it; an integer K caps fused runs at K cycles
    (values below 2 cannot amortize anything and disable fusion).
    """
    spec = os.environ.get("REPRO_FUSION", "on").strip().lower()
    if spec in ("", "on", "true", "default"):
        return FUSION_DEFAULT_CAP
    if spec in ("off", "false", "0"):
        return 0
    try:
        cap = int(spec)
    except ValueError:
        raise ValueError(
            f"REPRO_FUSION={spec!r}: expected on, off, or an integer cap"
        ) from None
    return cap if cap >= 2 else 0


class DeadlockError(RuntimeError):
    """Raised when no component can make progress but work remains.

    ``report`` (when set) carries the structured stall report built by
    :func:`repro.faults.report.build_stall_report`: which channels hold
    or block work, who subscribes to them, and which timers remain.
    """

    report = None


class CycleLimitError(RuntimeError):
    """A ``run()`` call exhausted its cycle budget with work remaining.

    Raised only when the caller opts in with ``raise_on_limit=True``;
    the message and the ``activity`` / ``report`` attributes carry the
    diagnosis context (cycle counters, scheduler activity, and the wait
    structure at the moment the budget ran out).
    """

    def __init__(self, message, activity=None, report=None):
        super().__init__(message)
        self.activity = activity or {}
        self.report = report


class Component:
    """Base class for everything ticked by the engine.

    Subclasses override :meth:`tick`.  Components that set
    ``demand_driven = True`` are ticked only when woken and must wire
    their wake conditions (channel subscriptions, timers, or
    ``engine.wake(self)`` re-arms).  Components that keep the default
    ``False`` are ticked every cycle, which preserves the seed engine's
    contract for simple harness components.
    """

    demand_driven = False
    # Activity counters (class attributes double as zero defaults; the
    # first increment creates the instance attribute).
    ticks = 0
    wakes = 0
    _engine_order = -1
    _engine = None  # back-reference, set by Engine.add_component
    # Macro-tick fusion opt-in.  Components that can batch a run of
    # provably *silent* cycles override this with a method
    # ``step_n(engine, budget) -> int`` returning how many cycles m
    # (0 <= m <= budget) were advanced.  The contract (DESIGN 6.9):
    # the m covered cycles must be exactly the state/stat effects the
    # per-cycle ticks would have had, with NO channel pushes, pops
    # from channels that have space watchers, wakes of other
    # components, hook side effects, or per-cycle ``engine.now``
    # reads (the engine advances ``now`` only after step_n returns).
    # The engine then executes a completely normal tick for the next
    # cycle, so anything non-silent happens on the ordinary path.
    step_n = None

    def request_wake(self):
        """Ask to be ticked next cycle (no-op before registration).

        For code outside tick() that mutates component state directly
        (e.g. queueing jobs between run() calls) and must ensure the
        component notices even under manual _step() driving.
        """
        if self._engine is not None:
            self._engine.wake(self)

    def tick(self, engine):
        """Advance this component by one clock cycle."""
        raise NotImplementedError

    def is_idle(self):
        """True if this component holds no in-progress work.

        Used only for end-of-run sanity checks; the default is True so
        purely reactive components need not override it.
        """
        return True


class Engine:
    """Drives a set of components and channels cycle by cycle.

    The per-cycle order is: tick the runnable components in
    registration order, then commit every channel touched this cycle.
    Registered (next-cycle) channel semantics make results independent
    of the registration order; the fixed order merely keeps arbitration
    deterministic.
    """

    _demand_enabled = True
    # Optional no-progress monitor (repro.faults.watchdog.Watchdog);
    # the run loop pays a single "is None" test per step when unset.
    watchdog = None
    # Optional telemetry sampler (repro.telemetry.Telemetry): same
    # contract as the watchdog -- exposes ``next_sample`` and
    # ``sample(engine)``, costs one "is None" test per step when unset,
    # and never mutates simulated state (cycle results are identical
    # with sampling on or off).  Sampling happens after a simulated
    # step only; fast-forwarded idle windows hold no state changes, so
    # the skipped rows would have duplicated the previous one.
    sampler = None
    # Optional periodic checkpointer (repro.checkpoint.Checkpointer):
    # same hook contract again -- exposes ``next_checkpoint`` and
    # ``poll(engine)``, costs one "is None" test per step when unset.
    # Polled *last* among the hooks so a snapshot captures the step's
    # watchdog/sampler effects: a run resumed from the snapshot then
    # continues exactly where the uninterrupted run's loop would.
    checkpointer = None
    # Optional span tracer (repro.tracing.SpanTracer).  Unlike the
    # three hooks above it is purely event-driven -- component hooks
    # feed it and the run loop never polls it -- but it hangs here so
    # stall/fault reports can reach its flight recorder (see
    # repro.faults.report.build_stall_report).
    tracer = None
    # Macro-tick fusion counters (class attributes double as zero
    # defaults for engines unpickled from pre-fusion snapshots, which
    # also resume with fusion disabled: their snapshotted wake/timer
    # state predates the silent-cycle bookkeeping).
    fused_runs = 0
    fused_cycles = 0
    _fusion_cap = 0

    def __init__(self):
        self.now = 0
        self.cycles_simulated = 0
        self.cycles_skipped = 0
        self.component_ticks = 0
        self.component_wakes = 0
        self.fused_runs = 0
        self.fused_cycles = 0
        self.fusion_abort_reasons = {}
        # Read at construction (like REPRO_ENGINE) so one process can
        # race fused vs unfused systems; snapshots carry the cap, so a
        # resumed run replays with the original's fusion decisions.
        self._fusion_cap = fusion_cap_from_env() if self._demand_enabled \
            else 0
        self._components = []
        self._demand_components = []
        self._always = []  # legacy components, ticked every cycle
        self._channels = []
        self._time_sources = []
        self._dirty_channels = []
        self._active = False
        self._wake_next = {}  # order -> component, armed for the next step
        self._timers = []  # heap of (time, order); order -1 = bare event

    # -- registration -------------------------------------------------------

    def add_component(self, component):
        component._engine_order = len(self._components)
        component._engine = self
        self._components.append(component)
        if self._demand_enabled and getattr(component, "demand_driven", False):
            self._demand_components.append(component)
        else:
            self._always.append(component)
        return component

    def add_channel(self, channel):
        channel.bind(self)
        self._channels.append(channel)
        return channel

    def add_delay_line(self, line):
        line.bind(self)
        self._time_sources.append(line)
        return line

    def add_time_source(self, source):
        """Register any object exposing next_event_time() and .pending.

        Time sources steer the legacy idle fast-forward and the
        deadlock diagnosis; demand-driven components additionally
        schedule their own timers via :meth:`wake_at`.
        """
        self._time_sources.append(source)
        return source

    # -- wake API -----------------------------------------------------------

    def wake(self, component):
        """Arm *component* to be ticked on the next simulated cycle."""
        order = component._engine_order
        wake = self._wake_next
        if order not in wake:
            wake[order] = component
            self.component_wakes += 1
            component.wakes += 1

    def wake_at(self, component, time):
        """Arm *component* to be ticked at cycle *time* (at the latest)."""
        if time <= self.now + 1:
            self.wake(component)
        else:
            heapq.heappush(self._timers, (time, component._engine_order))

    def note_event_at(self, time):
        """Record that *something* happens at cycle *time*.

        Used by delay lines with no subscribed consumer: the event
        cannot wake anyone, but it bounds how far idle fast-forward may
        jump.
        """
        if time > self.now:
            heapq.heappush(self._timers, (time, -1))

    def mark_active(self):
        """Called by channels on push/pop; marks the cycle as productive.

        Steers the legacy idle fast-forward only; the demand-driven
        path derives activity from the wake set instead.
        """
        self._active = True

    # -- stepping -----------------------------------------------------------

    def _merge_due_timers(self):
        """Move timers due at the current cycle into the wake set."""
        timers = self._timers
        now = self.now
        wake = self._wake_next
        components = self._components
        while timers and timers[0][0] <= now:
            _, order = heapq.heappop(timers)
            if order >= 0 and order not in wake:
                wake[order] = components[order]

    def _step(self):
        self._active = False
        timers = self._timers
        if timers and timers[0][0] <= self.now:
            self._merge_due_timers()
        wake = self._wake_next
        self._wake_next = {}
        if self._always:
            # Legacy mode: at least one component relies on being
            # ticked every cycle, so everything is (seed semantics).
            run_list = self._components
        elif wake:
            if len(wake) == 1:
                run_list = wake.values()
            else:
                run_list = [wake[order] for order in sorted(wake)]
        else:
            run_list = ()
        self.component_ticks += len(run_list)
        for component in run_list:
            component.ticks += 1
            component.tick(self)
        # Only channels touched this cycle need an end-of-cycle commit.
        dirty = self._dirty_channels
        if dirty:
            self._dirty_channels = []
            for channel in dirty:
                channel.commit()
        self.now += 1
        self.cycles_simulated += 1

    # -- macro-tick fusion --------------------------------------------------

    def _fuse_abort(self, reason):
        counts = self.fusion_abort_reasons
        counts[reason] = counts.get(reason, 0) + 1

    def _try_fuse(self, stable, start, max_cycles):
        """Attempt a fused run for the lone woken component.

        The stability oracle: the wake set over the next ``budget``
        cycles is exactly {component} as long as no timer matures
        inside the silent window (m <= first_timer - now keeps the
        maturing cycle on the real-step path, where ``_step`` merges
        due timers itself), no watchdog / sampler / checkpoint hook
        point lands inside it (each fires when post-step ``now``
        reaches ``next_*``, so m <= next - now - 1), and the caller's
        cycle budget is not overrun (the real step must land within
        it: m <= start + max_cycles - 1 - now).  Channel deliveries
        need no engine-side clamp: a silent cycle by definition makes
        no channel push, and pops are only allowed from channels with
        no space watchers, so no commit inside the window could wake
        anyone -- the component's own ``step_n`` guards enforce that
        (and return 0 otherwise).
        """
        component = next(iter(self._wake_next.values()))
        if component.step_n is None:
            self._fuse_abort("no_step_n")
            return
        if not stable:
            self._fuse_abort("unstable_done")
            return
        now = self.now
        budget = self._fusion_cap
        timers = self._timers
        if timers:
            h = timers[0][0] - now
            if h < budget:
                budget = h
        watchdog = self.watchdog
        if watchdog is not None:
            h = watchdog.next_check - now - 1
            if h < budget:
                budget = h
        sampler = self.sampler
        if sampler is not None:
            h = sampler.next_sample - now - 1
            if h < budget:
                budget = h
        checkpointer = self.checkpointer
        if checkpointer is not None:
            h = checkpointer.next_checkpoint - now - 1
            if h < budget:
                budget = h
        if max_cycles is not None:
            h = start + max_cycles - 1 - now
            if h < budget:
                budget = h
        if budget < 1:
            self._fuse_abort("horizon")
            return
        m = component.step_n(self, budget)
        if not m:
            self._fuse_abort("component")
            return
        # The m covered cycles each executed one tick of *component*
        # and would each have re-armed it for the next cycle (self
        # wake or its input channel's commit-time data wake); the
        # preserved _wake_next singleton feeds the real step that
        # follows.  Counter accounting keeps activity stats identical
        # to the per-cycle schedule.
        self.now = now + m
        self.cycles_simulated += m
        self.component_ticks += m
        component.ticks += m
        self.component_wakes += m
        component.wakes += m
        self.fused_runs += 1
        self.fused_cycles += m

    # -- diagnosis ----------------------------------------------------------

    def _pending_work(self):
        if any(ch.pending for ch in self._channels):
            return True
        if any(source.pending for source in self._time_sources):
            return True
        return False

    def _scan_next_event_time(self):
        """Earliest next event across registered time sources (legacy)."""
        next_time = None
        for line in self._time_sources:
            t = line.next_event_time()
            if t is not None and (next_time is None or t < next_time):
                next_time = t
        return next_time

    def _raise_idle(self, done):
        """Idle with no scheduled events: finish or diagnose a deadlock."""
        if done is None:
            return True  # globally idle: nothing will ever happen
        if done():
            return True
        if self._pending_work():
            raise self._deadlock(
                f"no progress at cycle {self.now} with work pending"
            )
        raise self._deadlock(
            f"run() not done at cycle {self.now} but system is idle"
        )

    def _deadlock(self, message):
        """Build a DeadlockError enriched with a structured stall report."""
        # Imported lazily: the happy path never touches repro.faults.
        from repro.faults.report import build_stall_report, \
            format_stall_report
        report = build_stall_report(self, reason="deadlock")
        error = DeadlockError(f"{message}\n{format_stall_report(report)}")
        error.report = report
        return error

    def _cycle_limit(self, max_cycles, start):
        """Build a CycleLimitError with activity + stall context."""
        from repro.faults.report import build_stall_report, \
            format_stall_report
        activity = self.activity()
        report = build_stall_report(self, reason="cycle budget exceeded")
        pending = sum(ch.pending for ch in self._channels) \
            + sum(source.pending for source in self._time_sources)
        summary = ", ".join(f"{k}={v}" for k, v in activity.items())
        return CycleLimitError(
            f"cycle budget of {max_cycles} exceeded at cycle {self.now} "
            f"(ran {self.now - start} cycles this call, {pending} tokens "
            f"in flight; {summary})\n{format_stall_report(report)}",
            activity=activity,
            report=report,
        )

    # -- the run loop -------------------------------------------------------

    def run(self, done=None, max_cycles=None, raise_on_limit=False,
            resume=False, stable_done=False):
        """Run until *done()* is true (or until globally idle).

        Returns the number of cycles elapsed during this call.  When no
        component is runnable the engine jumps directly to the next
        scheduled event; if there is none and work is still pending,
        the system is deadlocked and :class:`DeadlockError` is raised.

        ``max_cycles`` bounds the call; by default hitting the bound
        just returns (callers that use it as a polling quantum rely on
        that), but with ``raise_on_limit=True`` it raises
        :class:`CycleLimitError` carrying the activity counters and a
        stall report so a busted budget is diagnosable.

        ``resume=True`` continues a run() call that was interrupted
        mid-flight and restored from a snapshot: the entry wake-all and
        the watchdog baseline reset are skipped, because the restored
        ``_wake_next``/``_timers``/watchdog state already encode them --
        re-applying either would perturb the wake counters (reported in
        run stats) away from the uninterrupted run.

        ``stable_done=True`` declares that *done()* can only flip as a
        result of a component tick's channel effects -- never during a
        provably silent cycle -- which licenses macro-tick fusion
        (``REPRO_FUSION``): runs of same-component silent cycles are
        advanced with one ``step_n`` call instead of n ticks.  Callers
        with time- or state-probing done() predicates must leave it
        False (fusion then skips their run, counted under
        ``fusion_abort_reasons["unstable_done"]``).  ``done=None``
        (run to global idle) is always stable: silent cycles cannot
        empty the wake set.
        """
        start = self.now
        if not resume:
            # Callers mutate component state between run() calls
            # (queueing jobs, rewriting memory images); give every
            # demand-driven component one cycle to notice.
            for component in self._demand_components:
                self.wake(component)
        legacy = bool(self._always)
        watchdog = self.watchdog
        if watchdog is not None and not resume:
            watchdog.begin(self)
        sampler = self.sampler
        checkpointer = self.checkpointer
        fusion_cap = self._fusion_cap
        stable = done is None or stable_done
        while True:
            if done is not None and done():
                break
            if max_cycles is not None and self.now - start >= max_cycles:
                if raise_on_limit:
                    raise self._cycle_limit(max_cycles, start)
                break
            if not legacy:
                self._merge_due_timers()
                if not self._wake_next:
                    timers = self._timers
                    if not timers:
                        self._raise_idle(done)
                        break
                    target = timers[0][0]
                    if target > self.now:
                        self.cycles_skipped += target - self.now
                        self.now = target
                    self._merge_due_timers()
                    # Re-check done()/max_cycles at the new time before
                    # stepping; a bare event may have woken nobody.
                    continue
                if fusion_cap and len(self._wake_next) == 1:
                    self._try_fuse(stable, start, max_cycles)
            self._step()
            if watchdog is not None and self.now >= watchdog.next_check:
                watchdog.check(self)
            if sampler is not None and self.now >= sampler.next_sample:
                sampler.sample(self)
            if checkpointer is not None \
                    and self.now >= checkpointer.next_checkpoint:
                checkpointer.poll(self)
            if legacy and not self._active:
                next_time = self._scan_next_event_time()
                if next_time is not None and next_time > self.now:
                    self.cycles_skipped += next_time - self.now
                    self.now = next_time
                elif next_time is None:
                    if self._raise_idle(done):
                        break
        return self.now - start

    # -- statistics ---------------------------------------------------------

    # Execution-strategy bookkeeping inside activity(): how the engine
    # chose to advance time, not what the model computed.  These vary
    # with hook cadence (a checkpointer or sampler clamps fusion
    # horizons), so bit-identity contracts that compare runs across
    # hook configurations (replay, chaos) must exclude them; see
    # AcceleratorSystem._collect_stats.
    FUSION_BOOKKEEPING_KEYS = (
        "fused_runs", "fused_cycles", "mean_run_len",
        "fusion_abort_reasons",
    )

    def activity(self):
        """Scheduler-efficiency counters as a plain dict.

        ``component_ticks`` versus ``cycles x components`` is the
        demand-driven win; ``cycles_skipped`` is the idle fast-forward
        win; ``fused_runs``/``fused_cycles`` are the macro-tick win
        (cycles advanced through ``step_n`` batches instead of
        per-cycle ticks).  The fusion keys are always present --
        explicit zeros when ``REPRO_FUSION=off`` or under the legacy
        engine.  See :mod:`repro.core.stats` for aggregation helpers.
        """
        fused_runs = self.fused_runs
        fused_cycles = self.fused_cycles
        aborts = getattr(self, "fusion_abort_reasons", None) or {}
        return {
            "cycles_simulated": self.cycles_simulated,
            "cycles_skipped": self.cycles_skipped,
            "component_ticks": self.component_ticks,
            "component_wakes": self.component_wakes,
            "n_components": len(self._components),
            "fused_runs": fused_runs,
            "fused_cycles": fused_cycles,
            "mean_run_len": (
                round(fused_cycles / fused_runs, 2) if fused_runs else 0.0
            ),
            "fusion_abort_reasons": {
                reason: aborts[reason] for reason in sorted(aborts)
            },
        }


class LegacyEngine(Engine):
    """The seed engine's schedule: every component, every cycle.

    Kept as the reference for cycle-accuracy regression tests and
    selectable with ``REPRO_ENGINE=legacy``; demand-driven wake wiring
    becomes inert no-ops under this engine.
    """

    _demand_enabled = False


def make_engine(kind=None):
    """Engine factory honouring the ``REPRO_ENGINE`` environment knob.

    ``demand`` (default) builds the demand-driven engine; ``legacy``
    (or ``seed``) builds the reference all-tick engine.
    """
    if kind is None:
        kind = os.environ.get("REPRO_ENGINE", "demand")
    if kind in ("", "demand", "event"):
        return Engine()
    if kind in ("legacy", "seed"):
        return LegacyEngine()
    raise ValueError(f"unknown engine kind {kind!r}")
