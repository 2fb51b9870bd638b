"""Crossbar switching with per-port conflicts.

The crossbar is where the paper's *bank conflicts* come from: every
output (e.g. a MOMS bank) can accept at most one token per cycle, so
simultaneous requests from several PEs to the same bank serialize.
Inputs are likewise limited to one token per cycle (a physical port).
Arbitration per output is round-robin for fairness.
"""

from repro.sim import Component


class Crossbar(Component):
    """M input channels -> N output channels with a routing function.

    ``route(token)`` returns the output index for a token.  Each cycle
    every output grants at most one input, and every input moves at
    most one token, using per-output round-robin pointers.
    """

    demand_driven = True
    # Probe-bus slot (repro.sim.probe); class attribute so the
    # unobserved path pays one "is None" test per transfer.
    _probe = None

    def __init__(self, inputs, outputs, route, name="xbar"):
        if not inputs or not outputs:
            raise ValueError("crossbar needs inputs and outputs")
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.route = route
        self.name = name
        self._pointers = [0] * len(self.outputs)
        self.transfers = 0
        self.conflict_cycles = 0
        # Wake on any new input token.  Full outputs arm one-shot space
        # wakes at the moment a grant blocks on them; losers of a
        # round-robin conflict re-arm via an explicit self-wake.  This
        # replaces static space subscriptions on every output, which
        # woke the crossbar on every commit of every draining bank port
        # whether or not any input had a token to route.
        for channel in self.inputs:
            channel.subscribe_data(self)

    def tick(self, engine):
        # Each input's head token has exactly one destination, so one
        # scan over the inputs buckets all contenders per output; each
        # output then grants its round-robin winner.  O(M + N) per cycle.
        n_in = len(self.inputs)
        buckets = None
        for in_index, channel in enumerate(self.inputs):
            if channel._visible:  # hot path: avoid can_pop() call overhead
                out_index = self.route(channel._ring[channel._head])
                if buckets is None:
                    buckets = {}
                buckets.setdefault(out_index, []).append(in_index)
        if buckets is None:
            return
        pointers = self._pointers
        rearm = False
        # simlint: disable=R1 -- buckets fills in input-index order in
        # the scan above; dict iteration is insertion-ordered, so the
        # grant order is deterministic by construction.
        for out_index, contenders in buckets.items():
            output = self.outputs[out_index]
            if output._occ + output._staged_n >= output.capacity:
                output.request_space_wake(self)
                continue
            if len(contenders) == 1:
                winner = contenders[0]
            else:
                pointer = pointers[out_index]
                winner = min(contenders, key=lambda i: (i - pointer) % n_in)
                self.conflict_cycles += 1
                # The losers' head tokens can move next cycle (this
                # output just proved it has space and drains one per
                # cycle); nothing else will commit on their behalf.
                rearm = True
            token = self.inputs[winner].pop()
            if self._probe is not None:
                self._probe.xbar_hop(self.name, token, engine.now)
            output.push(token)
            pointers[out_index] = winner + 1 if winner + 1 < n_in else 0
            self.transfers += 1
        if rearm:
            engine.wake(self)
