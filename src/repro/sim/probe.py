"""The probe bus: one observer slot per component, one event vocabulary.

Every observer of the model -- the token ledger (:mod:`repro.faults`),
telemetry (:mod:`repro.telemetry`) and the span tracer
(:mod:`repro.tracing`) -- watches the same few events: MOMS issue and
retire, MSHR hit/merge/allocate/drain, crossbar hops, DRAM
accept/schedule/deliver.  PEs, MOMS banks, crossbars and DRAM channels
therefore carry a single ``_probe`` class attribute, ``None`` when
nobody listens, so each event site costs one ``is None`` test on the
default path and one call when observed.

Observers subclass :class:`Probe`, which gives every event a no-op
default, and override the events they consume.  :func:`make_probe`
turns the attached observers into the slot value: the observer itself
when there is one (no fan-out cost), a :class:`ProbeFanout` when there
are several.  Observers must never mutate simulated state; fault
injection, which does, keeps its own ``_fault`` slot.  DESIGN.md
Section 6.3 tabulates which observer consumes which event.
"""

class Probe:
    """Subscriber base: a no-op handler for every bus event.

    ``pe_tick``/``bank_tick`` carry the component; every other event
    carries its name (``pe_index`` for PEs) plus token coordinates.
    ``moms_verify`` fires when a PE peeks a response, before its ID
    indexes PE state, so a subscriber raising there stops corruption.
    ``dram_deliver`` gets ``respond_to=None`` for fire-and-forget
    writes, whose beat evaporates in the channel.
    """

    def pe_tick(self, pe, now):
        pass

    def bank_tick(self, bank, now):
        pass

    def pe_phase(self, pe, phase, now):
        pass

    def moms_issue(self, pe, req_id, addr, now):
        pass

    def moms_verify(self, pe, req_id):
        pass

    def moms_retire(self, pe, req_id, addr, now):
        pass

    def bank_hit(self, bank, req_id, port, line_addr, now):
        pass

    def bank_merge(self, bank, req_id, port, line_addr, now):
        pass

    def bank_alloc(self, bank, req_id, port, line_addr, now):
        pass

    def bank_drain(self, bank, line_addr, fan_in, now):
        pass

    def bank_replay(self, bank, req_id, port, line_addr, now):
        pass

    def xbar_hop(self, xbar, token, now):
        pass

    def dram_accept(self, channel, request, now):
        pass

    def dram_schedule(self, channel, addr):
        pass

    def dram_deliver(self, channel, response, respond_to, now):
        pass


EVENTS = tuple(name for name in vars(Probe) if not name.startswith("_"))


def _fan_out(handlers):
    def fan(*args):
        for handler in handlers:
            handler(*args)

    return fan


class ProbeFanout(Probe):
    """Slot value for several observers.

    Each event is bound per instance to exactly the subscribers that
    override it, in attach order: directly to the handler when only
    one does (no fan-out cost), to a loop over the handlers when
    several do, and to the inherited no-op when none does.
    """

    def __init__(self, subscribers):
        self.subscribers = tuple(subscribers)
        for event in EVENTS:
            handlers = tuple(
                getattr(subscriber, event)
                for subscriber in self.subscribers
                if getattr(type(subscriber), event)
                is not getattr(Probe, event)
            )
            if len(handlers) == 1:
                setattr(self, event, handlers[0])
            elif handlers:
                setattr(self, event, _fan_out(handlers))

    # The bound handlers are rebuilt on load; snapshots carry only the
    # subscribers.
    def __getstate__(self):
        return {"subscribers": self.subscribers}

    def __setstate__(self, state):
        self.__init__(state["subscribers"])


def make_probe(subscribers):
    """The ``_probe`` slot value for *subscribers* (Nones skipped)."""
    subscribers = [s for s in subscribers if s is not None]
    if not subscribers:
        return None
    if len(subscribers) == 1:
        return subscribers[0]
    return ProbeFanout(subscribers)


def subscribers_of(probe):
    """The observers behind a ``_probe`` slot value."""
    if probe is None:
        return ()
    if isinstance(probe, ProbeFanout):
        return probe.subscribers
    return (probe,)
