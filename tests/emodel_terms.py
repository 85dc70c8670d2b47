"""The E-model's terms one value at a time, for tests that check them against
the model's published values. The runtime evaluates the model once per
window series, over its columns (metrics.emodel)."""

from sipswitch.metrics import DEFAULT_EMODEL, _bind_id, _bind_ie, emodel


def id_delay_impairment(d_ms, params=DEFAULT_EMODEL):
    return _bind_id(params)(d_ms)


def ie_effective(codec, ppl, burst_r, params=DEFAULT_EMODEL):
    return _bind_ie(codec, params)(ppl, burst_r)


def r_factor(mean_delay_ms, ppl, burst_r, codec, params=DEFAULT_EMODEL):
    """R = r0 - Id - Ie_eff, not clamped (total loss can push it below 0):
    the series' E-model over one window."""
    return emodel(codec, params, [mean_delay_ms], [ppl], [burst_r])[0]
