"""A Link that puts every packet through its queue, one at a time: the
oracle for the closed form that Link.offer takes once a lossless link's
queue has drained."""

from sipswitch.core import LOSS_LINK_DOWN, LOSS_QUEUE, LOSS_RANDOM
from sipswitch.simnet import Link


class PerPacketLink(Link):
    """Link.offer without its closed form."""

    def offer(self, times, size_bytes):
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        n = len(times)
        self.offered += n
        if self.down:
            self.dropped += n
            return [None] * n, [LOSS_LINK_DOWN] * n
        serialization = self.serialization_us(size_bytes)
        busy = self._busy
        lo, span = self.prop_lo_us, self.prop_hi_us - self.prop_lo_us + 1
        arrivals, causes = [], []
        for t in times:
            while busy and busy[0] <= t:
                busy.popleft()
            if len(busy) >= self.queue_capacity_pkts:
                arrivals.append(None)
                causes.append(LOSS_QUEUE)
                continue
            if self.loss_prob > 0.0 and self.rng.random() < self.loss_prob:
                arrivals.append(None)
                causes.append(LOSS_RANDOM)
                continue
            finish = (busy[-1] if busy else t) + serialization
            busy.append(finish)
            arrival = finish + lo
            if span > 1:
                r = self.rng.getrandbits(span.bit_length())
                while r >= span:
                    r = self.rng.getrandbits(span.bit_length())
                arrival += r
            arrival = max(arrival, self._last_arrival)
            self._last_arrival = arrival
            arrivals.append(arrival)
            causes.append(None)
        delivered = causes.count(None)
        self.delivered += delivered
        self.dropped += n - delivered
        return arrivals, causes
