import pytest

from sipswitch.core import (
    CODEC_PRESETS,
    CodecProfile,
    IfaceState,
    InterfaceDescriptor,
    LinkParams,
    Q_WEIGHT,
    Technology,
    ms_to_us,
    s_to_us,
    validate_codec,
)


def test_time_conversions():
    assert ms_to_us(20.0) == 20_000
    assert ms_to_us(0.5) == 500
    assert ms_to_us(177.3) == 177_300
    assert s_to_us(60.0) == 60_000_000
    assert s_to_us(0.2) == 200_000
    assert isinstance(ms_to_us(1.5), int)


def test_builtin_codec_presets_are_valid():
    assert set(CODEC_PRESETS) == {"G711", "G729", "G723.1"}
    for codec in CODEC_PRESETS.values():
        assert validate_codec(codec) == []


def codec_packet_rate(codec):
    """Packets per second implied by the packetization interval."""
    return 1000.0 / codec.packet_interval_ms


def test_codec_packet_rates():
    assert codec_packet_rate(CODEC_PRESETS["G711"]) == pytest.approx(50.0)
    assert codec_packet_rate(CODEC_PRESETS["G729"]) == pytest.approx(50.0)
    assert codec_packet_rate(CODEC_PRESETS["G723.1"]) == pytest.approx(33.333333, abs=1e-4)


def test_codec_packet_interval_us():
    assert CODEC_PRESETS["G711"].packet_interval_us == 20_000
    assert CODEC_PRESETS["G723.1"].packet_interval_us == 30_000


@pytest.mark.parametrize("name,kbps,interval,payload", [
    ("G711", 64.0, 20.0, 160),
    ("G729", 8.0, 20.0, 20),
    ("G723.1", 6.3, 30.0, 24),
])
def test_rate_identity_holds_for_presets(name, kbps, interval, payload):
    # payload_bytes * 8 / packet_interval_ms == bitrate_kbps within 2%
    implied = payload * 8 / interval
    assert abs(implied - kbps) / kbps <= 0.02


def test_validate_codec_flags_rate_identity_violation():
    bad = CodecProfile("bad", bitrate_kbps=64.0, packet_interval_ms=20.0,
                       payload_bytes=100, ie=0.0, bpl=25.1)
    violations = validate_codec(bad)
    assert len(violations) == 1
    assert "differs from bitrate" in violations[0]


def test_validate_codec_reports_every_violation():
    bad = CodecProfile("junk", bitrate_kbps=-1.0, packet_interval_ms=0.0,
                       payload_bytes=0, ie=-2.0, bpl=0.0)
    violations = validate_codec(bad)
    # one violation per broken field, all reported at once
    assert len(violations) == 5
    assert all("junk:" in v for v in violations)


def test_interface_descriptor_q_weight_bounds():
    # the one q-weight rule, which the config loader and CallSpec.validate
    # both apply
    for q in (0.0, 0.5, 1.0):
        d = InterfaceDescriptor("wlan", Technology.WLAN_LIKE, q,
                                LinkParams(None, 0))
        assert Q_WEIGHT.violation(d.q_weight) is None
        assert d.state is IfaceState.UP
    for q in (-0.1, 1.01, 2.0):
        assert Q_WEIGHT.violation(q) is not None
