"""Faults that no configuration sets, injected into a call by a runtime
subclass: links that are down for the whole run, and planned drops of the
handoff exchange's sends. With no faults the run is run_call's run."""

from sipswitch.core import LOSS_LINK_DOWN, MN_URI
from sipswitch.scenario import _CallRuntime, exchange_of
from sipswitch.simnet import Link
from sipswitch.sip import SipMethod


class DownLink(Link):
    """A link that is down for the whole run: it drops every packet."""

    def offer(self, times, size_bytes):
        n = len(times)
        self.offered += n
        self.dropped += n
        return [None] * n, [LOSS_LINK_DOWN] * n


class Faults:
    """A call runtime with faults. down_links names the links that are down
    ("wlan-dl"). drops names the handoff exchange's sends to drop, as
    {(method, occurrence)}: its re-INVITEs and OKs, counted per method
    (0 = first send, 1 = first resend)."""

    def __init__(self, spec, down_links=frozenset(), drops=frozenset()):
        super().__init__(spec)
        self.drops = drops
        self.sends = {}
        params = {iface.iface_id: iface.link for iface in spec.interfaces}
        for links in (self.links_ul, self.links_dl):
            for iface_id, link in links.items():
                if link.link_id in down_links:
                    links[iface_id] = DownLink(self.engine, link.link_id,
                                               params[iface_id], link.rng)

    def _send(self, msg):
        if msg.from_uri == MN_URI and self.state.closed(msg.via_iface):
            return super()._send(msg)  # raises InternalInvariantError
        key = msg.method.value
        if msg.method in (SipMethod.REINVITE, SipMethod.OK) \
                and exchange_of(msg).method is SipMethod.REINVITE:
            occurrence = self.sends.get(key, 0)
            self.sends[key] = occurrence + 1
            if (key, occurrence) in self.drops:
                self.signaling.record(self.engine.now, key, msg.from_uri,
                                      msg.to_uri, msg.via_iface,
                                      "dropped:forced")
                return
        super()._send(msg)


class FaultyRuntime(Faults, _CallRuntime):
    """_CallRuntime with faults."""


def run_faulty(spec, down_links=frozenset(), drops=frozenset()):
    """run_call(spec) with the faults."""
    return FaultyRuntime(spec, down_links, drops).run()
