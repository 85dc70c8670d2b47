"""The E-model's two impairment terms one value at a time, for tests that
check them against the model's published values. The runtime binds both once
per window series (metrics.emodel)."""

from sipswitch.metrics import DEFAULT_EMODEL, _bind_id, _bind_ie


def id_delay_impairment(d_ms, params=DEFAULT_EMODEL):
    return _bind_id(params)(d_ms)


def ie_effective(codec, ppl, burst_r, params=DEFAULT_EMODEL):
    return _bind_ie(codec, params)(ppl, burst_r)
